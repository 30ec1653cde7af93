"""Exception and warning types shared across the toolkit."""


class CatsimError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CatsimError, ValueError):
    """A parameter is outside its allowed domain."""


class TruncationError(CatsimError):
    """The Fock cutoff discards more probability mass than allowed."""

    def __init__(self, message: str, tail: float):
        super().__init__(message)
        self.tail = tail


class TruncationBudgetError(DomainError):
    """A joint two-mode dimension exceeds the configured budget."""


class ZeroStateError(CatsimError):
    """StateVector.normalize was given the zero vector."""


class DimensionMismatch(CatsimError, ValueError):
    """Two states live in different truncated spaces."""


class ZeroProbabilityError(CatsimError):
    """A heralding branch has numerically vanishing probability."""


class DegenerateDistributionError(CatsimError):
    """A sampling grid captures too little of the target distribution."""


class ParseError(CatsimError):
    """A data file contains an unreadable record."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SchemaError(CatsimError):
    """A data file does not follow the expected schema."""


class SingularLikelihoodError(CatsimError):
    """Some records have zero probability under the current state.

    `record_indices` are dataset record indices, or histogram-bin numbers
    when the likelihood is binned (the message says which).
    """

    def __init__(self, message: str, record_indices):
        super().__init__(message)
        self.record_indices = list(record_indices)


class BootstrapError(CatsimError):
    """Too many bootstrap replicas failed to reconstruct."""


class MissingInputError(CatsimError):
    """A pipeline stage is missing the outputs of an upstream stage."""

    def __init__(self, stage: str, detail: str = ""):
        msg = f"missing outputs of stage '{stage}'" + (f": {detail}" if detail else "")
        super().__init__(msg)
        self.stage = stage


class ConfigError(CatsimError):
    """A run configuration file is invalid."""


class NonConvergenceWarning(UserWarning):
    """Maximum-likelihood iteration hit its iteration cap."""


class IdentifiabilityWarning(UserWarning):
    """A dataset cannot constrain all density-matrix elements."""
