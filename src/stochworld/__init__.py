"""Stochastic world models: from fully observable chains to event-driven
abstractions, with inversion (predicting the past), doubling and quotient
constructions, minimization, estimation, simulation and event detection.

Each export is imported from its module on first use (PEP 562); numpy loads only with
``journeys``, whose private ``_dense_solve`` (not in ``__all__``) solves what the sparse
reduction of a flow system leaves.
"""

#: module -> the names it exports
_MODULES = {
    "analysis": "StructureReport analyze find_black_hole find_white_peak remove_redundant",
    "constructions": "EventSet FactSet belief_determinize event_to_fact fact_to_event"
    " minimize_forward parity_model quotient",
    "core": "Arrow Belief Development EventOccurrence EventStream FutureSet Model Partition"
    " Policy Preference ProbInterval State TraceSpec Trajectory canonical memory_bits step_belief",
    "errors": "CapExceededError CoverageError FormatError InconsistentObservationError JourneyError"
    " ModelError PolicyError ToolkitError TrackingError WhitePeakError",
    "events": "CharFn TrackResult ValiditySpan derived_events detect_direct detect_indirect"
    " phenomenon_validity track",
    "format": "export_dot parse_charfns parse_event_stream parse_model parse_partition parse_policy"
    " parse_preference parse_trajectory serialize_event_stream serialize_model serialize_trajectory",
    "future": "enumerate_future estimate_fomm exact_future preference_to_policy",
    "inversion": "JourneyStatistics MinimalModelResult enumerate_past invert_chain invert_mdp_fixed"
    " invert_mdp_plus journey_statistics minimal_model minimal_model_parts",
    "journeys": "_dense_solve monte_carlo_invert simulate_journeys",
    "markov": "MarkovReport check_markov",
    "validation": "ValidationReport validate",
    "walk": "SimulationConfig simulate simulate_events",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = sorted(name for name in _EXPORTS if not name.startswith("_"))
__version__ = "0.1.0"


def __getattr__(name: str):
    # anything but an export raises, as a missing attribute does: the import
    # system probes for submodules with hasattr before importing them
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, so that -X importtime reports the module
    value = getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
