"""package: the exports of ``stochworld`` resolve on first use to the
objects their modules define."""

import subprocess
import sys
from pathlib import Path

import pytest

import stochworld

SRC = Path(stochworld.__file__).resolve().parent

#: the package's exports
EXPORTS = [
    "Arrow", "Belief", "CapExceededError", "CharFn", "CoverageError", "Development",
    "EventOccurrence", "EventSet", "EventStream", "FactSet", "FormatError", "FutureSet",
    "InconsistentObservationError", "JourneyError", "JourneyStatistics", "MarkovReport",
    "MinimalModelResult", "Model", "ModelError", "Partition", "Policy", "PolicyError",
    "Preference", "ProbInterval", "SimulationConfig", "State", "StructureReport",
    "ToolkitError", "TraceSpec", "TrackResult", "TrackingError", "Trajectory", "ValidationReport",
    "ValiditySpan", "WhitePeakError", "analyze", "belief_determinize", "canonical",
    "check_markov", "derived_events", "detect_direct", "detect_indirect", "enumerate_future",
    "enumerate_past", "estimate_fomm", "event_to_fact", "exact_future", "export_dot",
    "fact_to_event", "find_black_hole", "find_white_peak", "invert_chain", "invert_mdp_fixed",
    "invert_mdp_plus", "journey_statistics", "memory_bits", "minimal_model",
    "minimal_model_parts", "minimize_forward", "monte_carlo_invert", "parity_model",
    "parse_charfns", "parse_event_stream", "parse_model", "parse_partition", "parse_policy",
    "parse_preference", "parse_trajectory", "phenomenon_validity", "preference_to_policy",
    "quotient", "remove_redundant", "serialize_event_stream", "serialize_model",
    "serialize_trajectory", "simulate", "simulate_events", "simulate_journeys", "step_belief",
    "track", "validate",
]  # fmt: skip


def fresh(source: str) -> str:
    """stdout of ``source`` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_lists_the_exports():
    assert stochworld.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(stochworld))


def test_each_export_is_its_definition():
    for name in EXPORTS:
        value = getattr(stochworld, name)
        assert value.__module__.startswith("stochworld."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from stochworld import *", namespace)
    assert {name: namespace[name] for name in EXPORTS} == {name: getattr(stochworld, name) for name in EXPORTS}


def test_other_names_are_missing_attributes():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        stochworld.no_such_name


def test_submodules_do_not_shadow_exports():
    """Importing a submodule binds it on the package; no submodule is named
    after an export, so ``stochworld.simulate`` stays the function."""
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert not set(modules) & set(EXPORTS)
    out = fresh(
        "import importlib, stochworld\n"
        f"for m in {modules!r}:\n"
        "    importlib.import_module('stochworld.' + m)\n"
        "print(stochworld.simulate.__module__, callable(stochworld.simulate))\n"
    )
    assert out == "stochworld.walk True\n"


def test_import_loads_no_submodule():
    out = fresh(
        "import sys, stochworld\n"
        "print(sorted(m for m in sys.modules if m.startswith('stochworld.')), 'numpy' in sys.modules)\n"
        "from stochworld import analysis\n"
        "print(analysis.__name__)\n"
    )
    assert out == "[] False\nstochworld.analysis\n"
