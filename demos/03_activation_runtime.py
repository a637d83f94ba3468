"""The activation runtime: one deterministic loop drives all data activity.

Data are registered, queued, and activated one task at a time.  An
activation finds peers through the nearness index, fuses duplicates,
applies queued evidence, fires inference rules, re-tiers the datum, and
publishes alerts to matching subscriptions.  The emitted event log is
byte-for-byte reproducible.
"""

from adatm import (
    ActivationReason,
    ConceptPath,
    Evidence,
    EvidencePolarity,
    HypothesisRule,
    Metadata,
    NearnessKey,
    NotionKind,
    PlanarBox,
    QuerySpec,
    Runtime,
    Subscription,
    TimeInterval,
    encapsulate,
)

KEY = NearnessKey(TimeInterval(0.0, 3600.0), PlanarBox(0.0, 0.0, 50.0, 50.0),
                  ConceptPath.parse("news/world"))

rt = Runtime(concept_radius=1.0, index_cell_size=10.0)

# A standing interest: tell me about anything confident in this box.
rt.subscribe(Subscription(
    id="watch-region",
    spec=QuerySpec.focused(box=PlanarBox(0.0, 0.0, 50.0, 50.0)),
    min_confidence=0.7,
))

rt.register_rule(HypothesisRule(
    id="colocate",
    premise_patterns=(
        {"subject": "Air Force One", "event": "arrived", "city": "Paris"},
        {"person": "The US President", "aboard": "Air Force One"},
    ),
    conclusion_template={"person": "{1.person}", "status": "in",
                         "city": "{0.city}"},
))


def report(datum_id, source, payload, confidence, observed_at):
    d = encapsulate(payload, NotionKind.Event,
                    Metadata(source_id=source, observed_at=observed_at),
                    confidence, KEY, datum_id=datum_id)
    rt.add(d)
    rt.enqueue(d.id, ActivationReason.NewData)


# Two duplicate wire reports plus the two colocation premises.
report("ap-1", "ap", {"subject": "Air Force One", "event": "arrived",
                      "city": "Paris"}, 0.6, 100.0)
report("afp-1", "afp", {"subject": "Air Force One", "event": "arrived",
                        "city": "Paris"}, 0.5, 140.0)
report("pool-1", "pool", {"person": "The US President",
                          "aboard": "Air Force One"}, 0.9, 150.0)

stats = rt.run_until_quiescent(max_steps=100)
print(f"quiescent={stats.quiescent} steps={stats.steps} "
      f"merges={stats.merges} alerts={stats.alerts}")

print("\nsurviving data:")
for datum_id in rt.live_ids():
    d = rt.datum(datum_id)
    print(f"  {d.id}: confidence={d.confidence:.3f} [{d.text}]")

print("\nalerts delivered:")
for alert in rt.alerts:
    print(f"  {alert.subscription_id} <- {alert.datum_id}: {alert.payload_text}")

# The duplicate fused under the lexicographically smaller id; evidence
# arriving later re-activates that survivor.
rt.post_evidence("afp-1", Evidence(EvidencePolarity.Refuting, 0.4, "deskcheck"),
                 at=900.0)
rt.run_until_quiescent(10)
print(f"\nafter a desk-check dispute: afp-1 truth={rt.datum('afp-1').truth:+.3f}")

# Forked copies evolve independently.
original, clone = rt.fork("pool-1")
rt.post_evidence(clone, Evidence(EvidencePolarity.Refuting, 1.0, "retraction"),
                 at=1200.0)
rt.run_until_quiescent(10)
print(f"fork: {original} truth={rt.datum(original).truth:+.3f}, "
      f"{clone} truth={rt.datum(clone).truth:+.3f} (refuted copy only)")

# Data can also exchange messages point to point.
rt.send("afp-1", "pool-1", {"note": "seen at the airport"})
message = rt.receive("pool-1")
print(f"mailbox: pool-1 got {message.payload} from {message.sender}")

print("\nfirst ten event-log lines (seq|type|datum|detail):")
for line in rt.render_event_log().splitlines()[:10]:
    print(" ", line)
