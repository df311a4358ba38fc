"""The vectorized ``coefficient-identity`` check against the per-draw scalar
loop it replaced, kept here as its oracle."""

import numpy as np
import pytest

from gupjc.checks import coefficient_identity
from gupjc.gup import GupParams, derive_coefficients


def per_draw_coefficient_identity(params, rng):
    """The check one draw at a time, through GupParams and derive_coefficients."""
    samples = rng.uniform([0.0, -3.0, -3.0, 1e9], [1e8, 3.0, 3.0, 1e17],
                          size=(params["draws"], 4))
    worst = 0.0
    for gamma0, delta, epsilon, omega in map(np.ndarray.tolist, samples):
        c = derive_coefficients(GupParams(gamma0, delta, epsilon), omega)
        scale = abs(c.phi) + 2.0 * abs(c.beta) + 8.0 * abs(c.chi)
        if scale > 0.0:
            worst = max(worst, abs(8.0 * c.chi - (c.phi + 2.0 * c.beta)) / scale)
    return worst


# seed 89 with 7 draws holds a gamma whose libm pow() square is one ulp off
# the product gamma*gamma
@pytest.mark.parametrize("draws", [1, 7, 10_000])
@pytest.mark.parametrize("seed", [0, 1, 89, 1234, 2**32 - 1])
def test_vectorized_check_equals_per_draw_loop(seed, draws):
    params = {"draws": draws}
    vectorized = coefficient_identity(params, np.random.default_rng(seed))
    assert type(vectorized) is float
    assert vectorized == per_draw_coefficient_identity(params, np.random.default_rng(seed))


class _LowDraws:
    """A generator whose uniform draws all sit at the low end, gamma0 = 0, so
    that no draw has scale > 0."""

    def uniform(self, low, high, size):
        return np.broadcast_to(np.asarray(low, dtype=float), size).copy()


def test_no_resolved_draw_measures_zero():
    assert coefficient_identity({"draws": 5}, _LowDraws()) == 0.0
    assert per_draw_coefficient_identity({"draws": 5}, _LowDraws()) == 0.0
