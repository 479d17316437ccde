"""Exception types shared across the toolkit.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable failures, plus an optional payload of structured detail.
"""

from __future__ import annotations


class ChswitchError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message: str = "", **payload):
        super().__init__(message)
        self.payload = payload


class MalformedMatrix(ChswitchError):
    code = "malformed_matrix"


class MalformedInstance(ChswitchError):
    """Promise instance or gate-set JSON that does not have the expected shape."""

    code = "malformed_instance"


class DomainError(ChswitchError):
    code = "domain_error"


class NotButsonError(ChswitchError):
    code = "not_butson"


class IncompatibleDimension(ChswitchError):
    code = "incompatible_dimension"


class KindMismatch(ChswitchError):
    code = "kind_mismatch"


class SizeMismatch(ChswitchError):
    code = "size_mismatch"


class DimensionMismatch(ChswitchError):
    code = "dimension_mismatch"


class NotDephased(ChswitchError):
    code = "not_dephased"


class AmbiguousColumn(ChswitchError):
    code = "ambiguous"


class PromiseViolation(ChswitchError):
    code = "promise_violation"


class BranchMismatch(ChswitchError):
    code = "branch_mismatch"


class ProtocolError(ChswitchError):
    code = "protocol_error"


class LimitExceeded(ChswitchError):
    code = "limit_exceeded"


class BudgetExceeded(ChswitchError):
    code = "budget_exceeded"
