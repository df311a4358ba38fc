"""Simulator and analysis toolkit for the GUP-corrected Jaynes-Cummings model.

Submodules:

- ``fock``: truncated Fock-space states, ladder operators, the exact propagator
- ``gup``: GUP parameters, derived coefficients, Hamiltonian builders
- ``dynamics``: resonant Rabi dynamics and the corrected Rabi frequency
- ``dispersive``: large-detuning evolution and photon-added coherent states
- ``wigner``: Wigner functions and Wigner-difference maps
- ``rwa_validity``: perturbative validity ratios for the rotating-wave model
- ``checks``: the registry of consistency checks behind ``verify`` and the
  acceptance suite
- ``cli``: command-line front end with reproducible run artifacts
"""

__version__ = "0.1.0"

from .constants import HBAR, C_LIGHT, PLANCK_LENGTH, PLANCK_MASS
from .errors import (
    DegenerateModelError,
    DispersiveRegimeError,
    GupJcError,
    LinearityError,
    NonHermitianError,
    SingularDenominatorError,
    TruncationError,
)
from .fock import (
    FockVector,
    build_annihilation,
    coherent_state,
    evolve_on_grid,
    fock_state,
    laguerre,
    photon_added_coherent_state,
)
from .gup import (
    GupCoefficients,
    GupParams,
    InteractionConfig,
    build_full_interaction_hamiltonian,
    build_rwa_hamiltonian,
    derive_coefficients,
    quadratic_coefficients,
    rwa_block,
)
from .dynamics import (
    RabiSolution,
    amplitude_angular_frequency,
    analytic_amplitudes,
    atomic_inversion,
    exact_rabi_shift,
    rabi_shift,
    validate_against_numeric,
)
from .dispersive import (
    DispersiveConfig,
    PhotonAddedDecomposition,
    commutator_check,
    dyson_consistency_check,
    evolve_dispersive_series,
    photon_added_decomposition,
)
from .wigner import (
    GridSpec,
    WignerGrid,
    wigner_difference,
    wigner_maps,
    wigner_precision_ratio,
)
from .rwa_validity import (
    ZetaMap,
    ZetaMapSpec,
    first_order_amplitudes,
    perturbation_cross_check,
    zeta_lq_at,
    zeta_map,
    zeta_rq_at,
)
