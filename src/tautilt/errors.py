"""Exception types shared across the workbench."""


class TautiltError(Exception):
    """Base class for all workbench errors."""


class NotFiniteDimensional(TautiltError):
    """Normal words keep growing past the configured length bound."""


class MalformedRelation(TautiltError):
    """A quiver relation mixes non-parallel paths or is otherwise invalid."""


class NotBasic(TautiltError):
    """An algebra failed the basicness check (non-local diagonal Peirce block)."""


class InvalidRepresentation(TautiltError):
    """Matrices of a representation violate a structure-constant identity."""


class NotAModuleMap(TautiltError):
    """Per-vertex matrices do not commute with the algebra action."""


class NotProjective(TautiltError):
    """A module expected to be projective is not."""


class NotRigid(TautiltError):
    """A pair or complex failed a rigidity precondition."""


class PreconditionViolated(TautiltError):
    """An operation was called outside its documented domain."""


class CertificateFailure(TautiltError):
    """Two independent routes to the same answer disagreed."""


class SearchBudgetExceeded(TautiltError):
    """A search ended without a definite answer; result is indeterminate."""


class MatchFailure(TautiltError):
    """Expected a unique partner and found none or several."""


class IncompleteGraph(TautiltError):
    """An operation needs a fully built exchange graph but got a partial one."""


class NotInWide(TautiltError):
    """A module lies outside the wide subcategory attached to a rigid pair."""


class ParseError(TautiltError):
    """Workspace text input is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
