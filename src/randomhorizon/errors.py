"""Exception hierarchy shared by the exact engine."""


class EngineError(Exception):
    """Base class for everything raised on purpose by this package."""


class NotAdapted(EngineError):
    """A process is not constant on the blocks of the filtration it claims."""


class NotPredictable(EngineError):
    """A process fails the one-step-earlier measurability requirement."""


class NotMartingale(EngineError):
    """An operation received a process that must be a martingale but is not."""


class PreconditionViolated(EngineError):
    """A documented theorem precondition does not hold for the given input."""


class InvalidProbabilities(EngineError, ValueError):
    """Atom probabilities that are missing, not strictly positive or do not
    sum to 1; still a ``ValueError`` like every other bad space argument."""


class StructuralViolation(EngineError):
    """An identity that holds on every valid instance failed: engine bug."""


class InadmissibleStrategy(EngineError):
    """A trading strategy drives wealth strictly below -1."""


class InvalidScenario(EngineError):
    """A scenario file violates the schema or the model invariants.

    ``code`` is a stable machine-readable identifier, ``location`` points at
    the offending entry.
    """

    def __init__(self, code: str, location: str, message: str):
        super().__init__(f"[{code}] at {location}: {message}")
        self.code = code
        self.location = location
        self.reason = message
