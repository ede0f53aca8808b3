"""Exception and warning taxonomy shared by all modules."""


class VULabError(Exception):
    """Base class for all package errors."""


class InvalidPoint(VULabError):
    """Evaluation point contains NaN or has the wrong dimension."""


class CapabilityMissing(VULabError):
    """The model does not expose the oracle needed by this operation."""


class UnknownBuiltin(VULabError):
    """Requested builtin model name is not registered."""


class AnchorNotInHull(VULabError):
    """Anchor point is not inside the generator hull (to tolerance)."""


class NotASubspace(VULabError):
    """Finite-direction set of a rank-1 support fails the subspace closure test."""


class EmptyBundle(VULabError):
    """No admissible sample points found when collecting limiting Hessians."""


class LambdaTooLarge(VULabError):
    """Moreau envelope parameter exceeds 1/R for the quadratic minorant."""


class SingularHessian(VULabError):
    """Hessian is numerically singular where an inverse is required."""


class InconsistentGradient(VULabError):
    """Finite-difference gradient fails the subdifferential membership cross-check."""


class SolverBudgetExceeded(UserWarning):
    """Inner solver hit its iteration budget; the result is approximate."""


class BoundaryActive(UserWarning):
    """A minimizer landed on the constraint-ball boundary; interiority hypothesis fails."""
