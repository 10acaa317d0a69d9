"""Property tests of the per-receiver rate formulas over link budgets with
every coherent power and noise level anywhere in 1e-12..1e12."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pcdl.rate_core import capacity_bits
from pcdl.schemes import CLAMP_TOL_BITS, _pd_symmetric_grid, _snd_at_receiver

# deterministic, and no example database written next to the sources
PROPERTY_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True,
                             database=None)

power = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


def _tin(s_own, s_int, noise):
    return capacity_bits(s_own / (noise + s_int))


@PROPERTY_SETTINGS
@given(power, power, power)
def test_snd_at_receiver_never_below_tin_or_sd(s_own, s_int, noise):
    i_own = capacity_bits(s_own / noise)
    i_oth = capacity_bits(s_int / noise)
    i_12 = capacity_bits((s_own + s_int) / noise)
    sd = min(i_own, i_oth, 0.5 * i_12)  # both signals decoded uniquely
    r = _snd_at_receiver(i_own, i_oth, i_12)
    assert r >= _tin(s_own, s_int, noise) - CLAMP_TOL_BITS
    assert r >= sd - CLAMP_TOL_BITS


@PROPERTY_SETTINGS
@given(power, power, power, power, power, power)
def test_pd_grid_holds_its_tin_corner(s1_own, s1_int, n1, s2_own, s2_int, n2):
    values = _pd_symmetric_grid((s1_own, s1_int), n1, (s2_own, s2_int), n2,
                                np.linspace(0.0, 1.0, 21))
    tin = min(_tin(s1_own, s1_int, n1), _tin(s2_own, s2_int, n2))
    # mu = (1, 1): both cells send only outer layers, which is TIN
    assert abs(values[-1, -1] - tin) <= CLAMP_TOL_BITS
    assert values.max() >= tin - CLAMP_TOL_BITS
