"""Exception types shared across the package. Each carries `exit_code`, the
code `bprlab` exits with when it ends a command; this is the one exit-code table:

1  RejectedInputError: input the program rejects (any OSError also exits 1);
2  TrainingDivergenceError, UnusableDatasetError, ContractViolationError,
   UndefinedModelError, UnsupportedDiscountError, UnavailableOracleError:
   a run that cannot finish (every BprlabError's default);
3  AuditFailureError.
"""


class BprlabError(Exception):
    """Base class for all package errors."""
    exit_code = 2


class RejectedInputError(BprlabError):
    """Input violates a documented precondition (shape, symmetry, finiteness)."""
    exit_code = 1


class ContractViolationError(BprlabError):
    """Internal contract broken (stale cache, frozen model mutated, ...)."""


class TrainingDivergenceError(BprlabError):
    """A loss, gradient, parameter, feature or return computed during a run is
    not finite."""


class UnusableDatasetError(BprlabError):
    """Dataset cannot support the requested procedure (e.g. all actions ~0)."""


class UndefinedModelError(BprlabError):
    """Empirical model queried at a state-action pair it never observed."""


class UnsupportedDiscountError(BprlabError):
    """Operation requires gamma < 1 (or an absorbing episodic structure)."""


class UnavailableOracleError(BprlabError):
    """A ground-truth quantity was requested but is not available."""


class AuditFailureError(BprlabError):
    """An exact-value audit found a mismatch; message names the quantity."""
    exit_code = 3
