"""Exception taxonomy shared by all modules.

Every error carries a short machine-readable ``code`` so the CLI can print
``error: <code>: <detail>`` lines that scripts can match on.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    code = "error"

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(detail)


class ModelError(ToolkitError):
    """Structurally malformed model (dangling ids, bad alphabets, ...)."""

    code = "model"


class FormatError(ToolkitError):
    """Unparseable document; carries a 1-based line number when known."""

    code = "format"

    def __init__(self, detail: str, line: int | None = None):
        self.line = line
        if line is not None:
            detail = f"line {line}: {detail}"
        super().__init__(detail)


class InconsistentObservationError(ToolkitError):
    """Belief update conditioned on an observation of probability zero."""

    code = "inconsistent-observation"


class WhitePeakError(ToolkitError):
    """Operation requires a model without white peaks."""

    code = "white-peak"

    def __init__(self, states):
        self.states = sorted(states)
        super().__init__(" ".join(self.states))


class JourneyError(ToolkitError):
    """Journey statistics are undefined (non-terminating or degenerate)."""

    code = "journey"


class CoverageError(ToolkitError):
    """Quotient construction with class-crossing arrows left unmonitored."""

    code = "coverage"

    def __init__(self, uncovered):
        self.uncovered = list(uncovered)
        detail = "; ".join(f"{a.source} {a.label} {a.target}" for a in self.uncovered)
        super().__init__(detail)


class CapExceededError(ToolkitError):
    """A bounded expansion outgrew its configured cap."""

    code = "cap-exceeded"


class TrackingError(ToolkitError):
    """Trajectory inconsistent with the tracked model."""

    code = "tracking"

    def __init__(self, time_index: int):
        self.time_index = time_index
        super().__init__(f"trajectory inconsistent with model at step {time_index}")


class PolicyError(ToolkitError):
    """Policy or preference violates the model's agent constraints."""

    code = "policy"
