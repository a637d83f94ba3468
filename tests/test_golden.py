"""Byte identity of the program's outputs, pinned by SHA-256.

Each input's report JSON, report CSV, event log and ``run_oracle`` JSON
must hash to the digests recorded here.  The inputs are the demo
scenario files, the fixtures of
``test_acceptance.test_criterion_8_determinism_all_fixtures``, the
report-fusion fixture ``conftest.fusion_scenario``, the negotiation
fixture ``conftest.delayed_negotiation_scenario`` (non-integral departure
delays moved by alternate and by delay, which pins the float order of
the delay shift), the two stress scenarios ``conftest.contended_stress_scenario``
(100 flights, most of them negotiating) and ``conftest.wide_storm_scenario``
(80 flights under one storm) and the benchmark's own inputs
(``BENCH_PINS``).

A speed-up or refactor must leave every digest unchanged.  An intended
format or behaviour change (for example dropping the event log's
``peers`` lines) updates the pins in the same change and names that
change in CHANGES.md.
"""

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from adatm import load_scenario, render_report, run_oracle, simulate

from conftest import (
    congestion_scenario,
    contended_stress_scenario,
    delayed_negotiation_scenario,
    fusion_scenario,
    random_case1_scenario,
    storm_reroute_scenario,
    wide_storm_scenario,
)

DEMO_SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

#: name -> SHA-256 of (report JSON, report CSV, event log, oracle JSON).
PINS = {
    "four_residents_accept.json": (
        "8384319e00ba2f2c198fb5971284ec30169bca32fb3007cc359cf683c87df0a8",
        "d1644bd173340e5909577ff92efd3a1b891a8400e539e8fb70ec40e53594d373",
        "0c4688b5cf0023308e51ba1068ae67089cbebdadb99acb96f18275f512ddfffc",
        "372f656c588e110ae3eac5ee2387ea9d38d7072a1fe235cbad59dd110bd69902",
    ),
    "saturated_cell_reject.json": (
        "c95ffad9529f97f85ad0aa318e159e466f3679ca01070a45426d6817790a54c8",
        "cf4b3e364142d475c3bc5d468f672513c3bf3cb6fac510f97894aa70dcda6aec",
        "fb590faf1952bd8a07b81691305a6cadde2d8f915587957548ef206771ef3fd4",
        "7a3385f436c3724a5a2095235203b8564ce80fc1d71c5eea0a20415e8fb393b8",
    ),
    "saturated_cell_reroute.json": (
        "c109e452a38ce8c8cfcce3176323abdfab394b4c809ca5ba40d1538c0d03d9cf",
        "eadcf7d0ed55bdc9bd86aa347c3ced7bf86eb3fa25180c9baaa9cda3c8213b03",
        "ff5de6a61664d05c7efb974c3d44a3bfb36e541748bba9ef8e915002eb15e8e5",
        "d5b584ea503ac922ed483eee7aab6709a73b5639591b47fdb7e78462ca177c1a",
    ),
    "storm_reroute.json": (
        "25047fd2ba6318d50f778f0a68c4f911e8dabd0a73c0a6f2241209289ce0e203",
        "7513645bf12d53187320671a5437c71cf11c74a13da88695b30622f3242d7afc",
        "72a013b518959479533ab0cbc1ba33ec5feb88f246cba2509f83fefdf1e30091",
        "8dc192c9936e62af18c393501b138e9948b4f92d8670dc1da3e86f703d9d4df5",
    ),
    "headroom": (
        "8384319e00ba2f2c198fb5971284ec30169bca32fb3007cc359cf683c87df0a8",
        "d1644bd173340e5909577ff92efd3a1b891a8400e539e8fb70ec40e53594d373",
        "0c4688b5cf0023308e51ba1068ae67089cbebdadb99acb96f18275f512ddfffc",
        "372f656c588e110ae3eac5ee2387ea9d38d7072a1fe235cbad59dd110bd69902",
    ),
    "saturated": (
        "c95ffad9529f97f85ad0aa318e159e466f3679ca01070a45426d6817790a54c8",
        "cf4b3e364142d475c3bc5d468f672513c3bf3cb6fac510f97894aa70dcda6aec",
        "fb590faf1952bd8a07b81691305a6cadde2d8f915587957548ef206771ef3fd4",
        "7a3385f436c3724a5a2095235203b8564ce80fc1d71c5eea0a20415e8fb393b8",
    ),
    "storm-reroute": (
        "25047fd2ba6318d50f778f0a68c4f911e8dabd0a73c0a6f2241209289ce0e203",
        "7513645bf12d53187320671a5437c71cf11c74a13da88695b30622f3242d7afc",
        "72a013b518959479533ab0cbc1ba33ec5feb88f246cba2509f83fefdf1e30091",
        "8dc192c9936e62af18c393501b138e9948b4f92d8670dc1da3e86f703d9d4df5",
    ),
    "storm-bump": (
        "a21f93edd4d08c9cdd7d9834f37b314d18e2aff0412c30de670b772ba873dae1",
        "74c711aff6339e3edd3ffa469ea8af929d7063663b3adb9ea9948dc56c10c534",
        "dcef090c9f65dcbfadd169c4854bebbaeb73ac80769b473d271f3c6807cbf7a3",
        "8dc192c9936e62af18c393501b138e9948b4f92d8670dc1da3e86f703d9d4df5",
    ),
    "random-mix": (
        "b6671960f532be381508464968693048bf720599eb7072cdc550195fe8130fe6",
        "6ec614df487bf527bc6284daed803b4d4994b23fb0263c86dc40fa7ceddf4679",
        "dc54cdfac58a75071b837ca87f2923eb47f0f48bf233b936f82563c9b6136da0",
        "3d7490836600080a70235c680a61afecef5099448642a6d5dcc144e66f5d7ac9",
    ),
    "delayed-negotiation": (
        "1fc830699757072b6408c6bdf6cc0ac344b1a6f0bef127e4d632cb8c810107be",
        "5082d60ddb88dcdf046d4f56b2e1703f1a106074084cafd62e3f68f52218ed11",
        "a539be9317585412283946f66a777d14d5461adedb3c482b120d82ab27a0047d",
        "08ad9a531f1dc3b2547f10441ea558b8810d1ea5410b61635a56f9a248f7194b",
    ),
    "contended-100": (
        "095d06574ed061ede13f00870c04c7d36eafcfa3e4cd4868eba96e6114fd9f56",
        "d239f10e2383ae3f0b43ab7ab6acd17c3d1dee54157f4b9fb39da979b08f579f",
        "a2f62d1b64cd112542e35843630b0989fc1ef9b8d0bdf6047ab51fab96f52b66",
        "6f8df1aed273a73144974a52e3915a3e3d5fddf239d7017c7f8fa6d53003b649",
    ),
    "wide-storm-80": (
        "0c5928ed54220bf3449b1dd6affb1ad9867b64ee24564ab074ca7d37c2f79d3c",
        "394b283ca51341c36795916d85ed2a6c871ad080ea827446347047a28f2d24d9",
        "d012560a45c4eca18321588f224394845ccc05c650430b4d3620692b557abb0c",
        "35beeb224ab8d761c2a6ade69a3e45e8871c97c9919e267dafc120c2d7ab1bbe",
    ),
    "fusion": (
        "3f2468c01c8ebc8647517deffd1a884e2be906d4bc3150be818826d57763f05a",
        "7513645bf12d53187320671a5437c71cf11c74a13da88695b30622f3242d7afc",
        "acf81250a32448a74c01d5e44ac2b8b898a628eb129763a4c426d37fdc781b79",
        "85e18b045051eb459fc14a683e7fc8464f8f99aa9ffd9459282185e855432a15",
    ),
}

FIXTURES = {
    "headroom": lambda: congestion_scenario(residents=4),
    "saturated": lambda: congestion_scenario(residents=6),
    "storm-reroute": lambda: storm_reroute_scenario(with_alternates=True),
    "storm-bump": lambda: storm_reroute_scenario(with_alternates=False),
    "random-mix": lambda: random_case1_scenario(random.Random(88), max_flights=25),
    "fusion": fusion_scenario,
    "delayed-negotiation": delayed_negotiation_scenario,
    "contended-100": contended_stress_scenario,
    "wide-storm-80": wide_storm_scenario,
}


def _scenario(name: str):
    if name in FIXTURES:
        return FIXTURES[name]()
    return load_scenario((DEMO_SCENARIOS / name).read_text(encoding="utf-8"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_demo_scenario_is_pinned():
    demos = {path.name for path in DEMO_SCENARIOS.glob("*.json")}
    assert demos == set(PINS) - set(FIXTURES)


PARTS = ("report json", "report csv", "event log", "oracle json")


def _outputs(scenario) -> tuple[str, str, str, str]:
    run = simulate(scenario)
    return (render_report(run.report, "json"), render_report(run.report, "csv"),
            run.event_log, render_report(run_oracle(scenario), "json"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_outputs_match_their_pinned_digests(name):
    got = [_sha(text) for text in _outputs(_scenario(name))]
    for part, want, have in zip(PARTS, PINS[name], got):
        assert have == want, f"{name}: {part} changed"


# -- the benchmark's own inputs ---------------------------------------------------

def _bench_module(name: str):
    """``bench/<name>.py``, imported under its own name and only read."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"adatm_bench_{name}", path)
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def _bench_workloads():
    return _bench_module("workloads")


#: Bench scenarios 0 to BENCH_SCENARIOS - 1 of each workload are pinned.
BENCH_SCENARIOS = 6

#: (workload, seed) -> per part, the SHA-256 of that part's digests over
#: the scenarios in index order.  These follow the generators' bytes: a
#: benchmark change that alters ``bench/workloads.py`` output re-records
#: them in the same change.
BENCH_PINS = {
    ("contended", 3): (
        "5e3830c8fd77d060424c46651cabc780dd857d410691471da361f2613f2d46c9",
        "543f751e6ed643540ed3784d58c0e5a43f0c7fb8382b63dca28100f63a532ba1",
        "b809c9c8eec95dd671841a90b03cad89a60bffe22e7f8a0589b834e447cb9a33",
        "b8e3233f792669e82774012fc116b07f31e360fc8b1ebb7ccd4efe108e881bf7",
    ),
    ("contended", 7): (
        "d79e0623ad59bccfbf2d1652242f5d20b38ebff9ee55972ce97c886058bbc065",
        "ec2993c7a75a3df0ab3ae0aa87e54730b4f40ed00517437860f647e2a79d77d4",
        "a8c30667e2ac34a1dff7b9d48224b9f29b11e158413c163021b6617ef0a41e34",
        "dc7404caf430b08bd71d1d448e24188734d3a8d35ea00ae9b75d98e2ba1e71cf",
    ),
    ("headroom", 3): (
        "2267f1ecf92520b882e37593af4777860f40d2771ef9965f1e332cdb713956f6",
        "93745f51f2f31dc3c3f020666fc96e2dd933a7eff4d3c568d8058ac981848f25",
        "c2bfdf8c66b75eb7a4e512d2fcd0b183422967fd927e34dbb6a1216e9b5c6491",
        "a5af6102c823e0ee71f171011666be2d3f4ae1e651914d035501451b7c37a2ac",
    ),
    ("headroom", 7): (
        "f26d3fe7aa1b33903cebb177fb9e9f659b3e2f58542b5489bc8e2de82c162a95",
        "27ea134a49f71b30853e07d9588a2e57c22bceef45a9b1ceab15085e6d32e9d6",
        "26694e808e8fff7ef63772c51fb08abed87d7128422a6f9ecb9202a57fb6e38d",
        "80b9f5447e93fdb08bc93a4a6c0750d39af33acb673cf8d150f29649d599d972",
    ),
    ("storm", 3): (
        "8fa2d987a02a1a57de6a6399aa1b29dd288708088ff8a62e4393a60480f00a3d",
        "f47fad774e90974b85e40e616b1c3544daf6f9efdd650e35a832d6370fb0ffe9",
        "220a961e50c4e621dd8b641e87fcccf1ea18de51b7b6b9631857226909732992",
        "c85cc1c8837478873e0e51aed4c868f8ec917fa8e73f4ad2515475ea81314a66",
    ),
    ("storm", 7): (
        "b021d6d19077ab2a54813db1cc869829a67cc5b9f5885cb9e97df76219d7cdb9",
        "a195720ab4294126aa609a5650b190dc0ab4b86df77d97d43cdfbf5d80ef79f3",
        "8e9e1a16993a5858453dffc42e7177a80ea3434bfd38cee0bd9780716c8adb46",
        "eb03467971dc988cbdd1479c16bb3c868eff088111ad1fe9243985d76e9d1ef6",
    ),
}


@pytest.mark.parametrize("workload, seed", sorted(BENCH_PINS))
def test_bench_inputs_match_their_pinned_digests(workload, seed):
    generate = _bench_workloads().WORKLOADS[workload].generate
    digests = [hashlib.sha256() for _ in PARTS]
    for index in range(BENCH_SCENARIOS):
        outputs = _outputs(load_scenario(generate(seed, index)))
        for digest, text in zip(digests, outputs):
            digest.update(_sha(text).encode("ascii"))
    for part, want, digest in zip(PARTS, BENCH_PINS[workload, seed], digests):
        assert digest.hexdigest() == want, f"{workload} seed {seed}: {part} changed"


def test_digest_tool_lists_125_distinct_inputs():
    path = Path(__file__).resolve().parent.parent / "tools" / "digests.py"
    spec = importlib.util.spec_from_file_location("adatm_tools_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [name for name, _ in tool.inputs(sys.modules[__name__])]
    assert len(names) == len(set(names)) == 125
    assert set(PINS) - set(names) == set()
