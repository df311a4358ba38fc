"""Exception types shared across the package."""


class GupJcError(Exception):
    """Base class for all package-specific errors."""


class TruncationError(GupJcError):
    """The Fock-space cutoff is too small for the requested state or operation."""


class NonHermitianError(GupJcError):
    """A matrix that must be Hermitian failed the Hermiticity check."""


class DispersiveRegimeError(GupJcError):
    """The detuning is not large enough for the dispersive approximation."""


class LinearityError(GupJcError):
    """The first-order Taylor expansion of the dispersive phases is invalid."""


class SingularDenominatorError(GupJcError):
    """A perturbative expression was evaluated on a resonance line."""


class DegenerateModelError(GupJcError):
    """The GUP model parameters make the quadratic channel vanish (3*delta^2 = 2*epsilon)."""

