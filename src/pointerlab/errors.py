"""Exception types shared across the package."""


class PointerLabError(Exception):
    """Base class for every error this package raises on purpose."""


class UnknownSubsystemError(PointerLabError):
    pass


class UnknownLabelError(PointerLabError):
    pass


class DegenerateStateError(PointerLabError):
    """All-zero amplitude vector where a physical state was required."""


class LayoutConflictError(PointerLabError):
    """Two layouts cannot be combined (e.g. duplicate subsystem names)."""


class LayoutMismatchError(PointerLabError):
    """Operands are defined over different layouts."""


class NonInjectiveLabelMapError(PointerLabError):
    pass


class InvalidPartitionError(PointerLabError):
    pass


class NonOrthonormalBasisError(PointerLabError):
    """``gram`` is the failing Gram entry (i, j, value) that
    ``hilbert.gram_defect`` found when orthonormality failed, else None."""

    def __init__(self, message: str, gram: tuple[int, int, complex] | None = None):
        super().__init__(message)
        self.gram = gram


class ApparatusNotReadyError(PointerLabError):
    pass


class IncompleteBranchingError(PointerLabError):
    """Declared branches fail to span the state's support."""


class BasisCoverageError(PointerLabError):
    """Measured bases miss part of the state's support, so probabilities
    would not sum to one."""


class ImpossibleOutcomeError(PointerLabError):
    """Conditioning on an outcome of (numerically) zero probability."""


class ScenarioParseError(PointerLabError):
    """Scenario-file diagnostic with position and a one-line fix hint (a
    str).  A reader raises it with a column; its ``line`` is set only by
    ``scenario.parse_scenario``'s line loop, which knows which line was
    read."""

    def __init__(self, message: str, column: int = 1, hint: str = ""):
        if not isinstance(hint, str):
            raise TypeError(f"ScenarioParseError hint must be a str, not {type(hint).__name__}")
        self.message = message
        self.line = 0
        self.column = column
        self.hint = hint
        super().__init__(message)

    def __str__(self) -> str:
        text = f"line {self.line}, col {self.column}: {self.message}"
        if self.hint:
            text += f" (fix: {self.hint})"
        return text


class ExecutionError(PointerLabError):
    """Scenario execution failure, annotated with the failing action/query."""
