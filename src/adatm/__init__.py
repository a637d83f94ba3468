"""Active, self-describing data applied to airspace congestion prediction.

The package layers cleanly:

* :mod:`adatm.kernel` - value types and pure activity functions
  (encapsulation, duplicate resolution, evidence fusion, aggregation,
  hypothesis inference, storage-tier policy).
* :mod:`adatm.nearness` - the time x space x concept index behind
  neighborhood and focused queries.
* :mod:`adatm.scheduler` - the deterministic activation runtime:
  lifecycle, priority queue, subscriptions, alerts, mailboxes.
* :mod:`adatm.airspace` / :mod:`adatm.trajectory` / :mod:`adatm.traffic`
  - the air-traffic domain: gridded subsectors, storm-dependent
  capacity, trajectory segmentation, the three-case insertion protocol,
  re-route negotiation, and congestion prediction.
* :mod:`adatm.scenario` - scenario files, the simulation driver, the
  centralized brute-force oracle, and report rendering/diffing.
"""

from .airspace import (
    GridSpec,
    StormCell,
    Subsector,
    bucket_capacity,
    storm_overlap_window,
)
from .kernel import (
    ActiveDatum,
    Evidence,
    EvidencePolarity,
    Hyperdata,
    HypothesisRule,
    Metadata,
    NotionKind,
    StorageTier,
    aggregate,
    apply_evidence,
    canonical_text,
    encapsulate,
    fuse,
    infer,
    is_duplicate,
    noisy_or,
    resolve,
    tier_decision,
)
from .nearness import (
    INFINITE_RADIUS,
    ConceptPath,
    NearnessIndex,
    NearnessKey,
    PlanarBox,
    QueryMode,
    QuerySpec,
    TimeInterval,
    concept_distance,
)
from .scenario import (
    Observation,
    Report,
    Scenario,
    ScenarioStorm,
    diff_reports,
    load_scenario,
    parse_report,
    render_report,
    run_oracle,
    run_simulation,
    simulate,
)
from .scheduler import (
    ActivationReason,
    ActivationTask,
    Alert,
    LifecycleState,
    Runtime,
    RunStats,
    Subscription,
)
from .traffic import (
    AirspaceState,
    CaseKind,
    CongestionRecord,
    InsertOutcome,
    InsertStatus,
    RouteChoice,
)
from .trajectory import (
    FlightPlan,
    TrajectorySegment,
    Waypoint,
    plan_segments,
    position_at,
    segment_trajectory,
)

__all__ = [name for name in dir() if not name.startswith("_")]
