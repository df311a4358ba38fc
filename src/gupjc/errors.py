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
    """A first-order expansion, of the dispersive phases or of the Rabi frequency, is invalid."""


class SingularDenominatorError(GupJcError):
    """A perturbative expression was evaluated on a resonance line."""


class DegenerateModelError(GupJcError):
    """The GUP model parameters make the quadratic channel vanish (3*delta^2 = 2*epsilon)."""

