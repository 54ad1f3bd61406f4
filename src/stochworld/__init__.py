"""Stochastic world models: from fully observable chains to event-driven
abstractions, with inversion (predicting the past), doubling and quotient
constructions, minimization, estimation, simulation and event detection."""

from .analysis import StructureReport, analyze, find_black_hole, find_white_peak, remove_redundant
from .constructions import (
    EventSet,
    FactSet,
    MinimalModelResult,
    belief_determinize,
    event_to_fact,
    fact_to_event,
    minimal_model,
    minimal_model_parts,
    minimize_forward,
    parity_model,
    quotient,
)
from .core import (
    Arrow,
    Belief,
    Development,
    EventOccurrence,
    EventStream,
    FutureSet,
    Model,
    Partition,
    Policy,
    Preference,
    ProbInterval,
    State,
    Step,
    TraceSpec,
    Trajectory,
    canonical,
    memory_bits,
    step_belief,
)
from .errors import (
    CapExceededError,
    CoverageError,
    FormatError,
    InconsistentObservationError,
    JourneyError,
    ModelError,
    PolicyError,
    ToolkitError,
    TrackingError,
    WhitePeakError,
)
from .events import (
    CharFn,
    TrackResult,
    ValiditySpan,
    derived_events,
    detect_direct,
    detect_indirect,
    phenomenon_validity,
    track,
)
from .format import (
    export_dot,
    parse_charfns,
    parse_event_stream,
    parse_model,
    parse_partition,
    parse_policy,
    parse_preference,
    parse_trajectory,
    serialize_event_stream,
    serialize_model,
    serialize_trajectory,
)
from .inversion import (
    JourneyStatistics,
    invert_chain,
    invert_mdp_fixed,
    invert_mdp_plus,
    journey_statistics,
    monte_carlo_invert,
    simulate_journeys,
)
from .simulate import (
    MarkovReport,
    SimulationConfig,
    check_markov,
    enumerate_future,
    enumerate_past,
    estimate_fomm,
    exact_future,
    preference_to_policy,
    simulate,
    simulate_events,
)
from .validation import ValidationReport, validate

__version__ = "0.1.0"
