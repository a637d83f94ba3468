"""Every record class of the package is slotted: its instances have no
``__dict__``, so an attribute the class does not declare cannot be set."""

import dataclasses
import inspect

import pytest

from adatm import airspace, kernel, nearness, scenario, scheduler, traffic, trajectory
from adatm.scheduler import RunStats

from conftest import fusion_scenario, make_datum

MODULES = (airspace, kernel, nearness, scenario, scheduler, traffic, trajectory)

RECORD_CLASSES = sorted(
    {cls for module in MODULES for _, cls in inspect.getmembers(module, inspect.isclass)
     if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__},
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def test_the_modules_hold_records():
    assert len(RECORD_CLASSES) >= 30


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__qualname__)
def test_instances_have_no_dict(cls):
    assert "__slots__" in vars(cls)
    assert cls.__dictoffset__ == 0


def _built_records():
    """Records as a loaded scenario and its run build them."""
    loaded = fusion_scenario()
    run = scenario.simulate(loaded)
    account = next(iter(run.state.flights.values()))
    observation = loaded.observations[0]
    datum = make_datum("d")
    return [loaded, observation, observation.key, observation.key.concept,
            observation.metadata, loaded.flights[0], loaded.flights[0].waypoints[0],
            account, account.segments[0], run.report, run.report.records[0],
            run.report.outcomes[0][1], datum, datum.hyperdata]


def test_an_unknown_attribute_cannot_be_set():
    for record in _built_records():
        assert not hasattr(record, "__dict__"), type(record).__name__
        # ``object.__setattr__`` passes a frozen class's guard, as
        # ``__post_init__`` does; only the slots stop it.
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)
    with pytest.raises(AttributeError):
        RunStats().extra = 1
