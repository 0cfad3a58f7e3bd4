"""Exception types shared across the package."""


class HomydError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(HomydError):
    """Incompatible domain/codomain factor dimensions."""


class NotInvertibleError(HomydError):
    """A square map failed to invert; carries the rank found."""

    def __init__(self, message, rank):
        super().__init__(f"{message} (rank {rank})")
        self.rank = rank


class PreconditionError(HomydError):
    """An eagerly verified hypothesis failed; carries the law and witness index."""

    def __init__(self, law, index, message=None):
        self.law = law
        self.index = tuple(index) if index is not None else None
        text = message or f"precondition {law!r} fails at basis index {self.index}"
        super().__init__(text)


class InapplicableError(HomydError):
    """The requested check is undefined for this input (e.g. a bijectivity gate)."""


class WorkLimitError(HomydError):
    """One linear-map operation would exceed the work limits of ``linmap``."""


class CertificationError(HomydError):
    """A constructor's own re-check failed; indicates an internal bug."""

    def __init__(self, report):
        self.report = report
        first = report.failures[0] if report.failures else None
        super().__init__(
            f"construction failed its own certification: law {report.law!r}, "
            f"first failure {first}"
        )


class SpecFileError(HomydError):
    """Malformed or inconsistent structure file; may carry a line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
