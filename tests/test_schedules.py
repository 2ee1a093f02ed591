import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dospsim.analysis import theorem5_envelope
from dospsim.schedules import (
    PowerLawSchedule,
    contraction_start,
    step_size_problems,
    theorem5_condition,
)

# an int past the float range; its own id keeps the test name short
_HUGE = pytest.param(10**400, id="1e400")


def test_beta_examples():
    assert PowerLawSchedule(2.5, 0.75, 12.0, 0.25, index_offset=0).beta(1) == 2.5
    assert PowerLawSchedule(2.0, 0.75, 1.0, 0.25).beta(0) == 2.0
    got = PowerLawSchedule(0.4, 0.55, 1.0, 0.25).beta(15)
    assert got == pytest.approx(0.4 * 16 ** (-0.55), rel=1e-12)
    assert got == pytest.approx(0.087055, abs=5e-6)


def test_gamma_examples():
    assert PowerLawSchedule(2.5, 0.75, 12.0, 0.25, index_offset=0).gamma(1) == 12.0
    assert PowerLawSchedule(1.0, 0.75, 1.0, 0.25).gamma(0) == 1.0
    assert PowerLawSchedule(1.0, 0.75, 1.0, 0.25).gamma(255) == pytest.approx(0.25)


@pytest.mark.parametrize("field", ["beta0", "nu1", "gamma0", "nu2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, _HUGE])
def test_non_finite_parameters_rejected(field, value):
    params = dict(beta0=0.5, nu1=0.75, gamma0=1.0, nu2=0.25)
    params[field] = value
    with pytest.raises(ValueError, match="finite"):
        PowerLawSchedule(**params)


def test_offset_zero_undefined_at_origin():
    s = PowerLawSchedule(1.0, 0.75, 1.0, 0.25, index_offset=0)
    with pytest.raises(ValueError):
        s.beta(0)
    with pytest.raises(ValueError):
        s.gamma(0)
    assert s.first_index == 1


def test_vectorized_evaluation():
    s = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    ks = np.arange(0, 100)
    np.testing.assert_allclose(s.beta(ks), 0.5 * (ks + 1.0) ** -0.75)


_STEP_SIZE_MESSAGES = {
    "(i)": "step-size check (i) failed: exponents must be positive",
    "(ii)": "step-size check (ii) failed: sum of beta^2 diverges (needs nu1 > 0.5)",
    "(iii)": "step-size check (iii) failed: sum of beta*gamma converges "
             "(needs nu1 + nu2 <= 1)",
    "beta (i)": "step-size check (i) failed: beta must vanish (needs nu1 > 0)",
    "beta (ii)": "step-size check (ii) failed: sum of beta^2 diverges "
                 "(needs nu1 > 0.5)",
    "beta (iii)": "step-size check (iii) failed: sum of beta converges "
                  "(needs nu1 <= 1)",
}


@pytest.mark.parametrize("nu1,nu2,perturbed,failed", [
    (0.75, 0.25, True, []),
    (0.75, -0.1, True, ["(i)"]),
    (0.4, 0.25, True, ["(ii)"]),
    (0.75, 0.5, True, ["(iii)"]),
    (0.4, -0.1, True, ["(i)", "(ii)"]),
    (0.75, 0.5, False, []),  # beta alone: nu2 is not read
    (0.4, 0.25, False, ["beta (ii)"]),
    (1.2, 0.25, False, ["beta (iii)"]),
    (-0.5, 0.25, False, ["beta (i)", "beta (ii)"]),  # nu1 <= 0 fails both
], ids=lambda v: (None if not isinstance(v, list)
                  else "+".join(v).replace(" ", "-") or "valid"))
def test_step_size_problems(nu1, nu2, perturbed, failed):
    schedule = PowerLawSchedule(1.0, nu1, 1.0, nu2)
    assert step_size_problems(schedule, perturbed=perturbed) == [
        _STEP_SIZE_MESSAGES[key] for key in failed]


def test_validity_reflected_in_partial_sums():
    # numeric sanity behind the analytic decision: for nu1 >= 0.75 the
    # squared-beta series is flat by K = 1e7 while beta*gamma keeps growing
    s = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    assert s.beta(10**7) ** 2 < 1e-9  # increment at the cutoff
    total = 0.0
    last_decade = 0.0
    for lo in range(0, 10**7, 10**6):
        ks = np.arange(lo, lo + 10**6)
        inc = float(np.sum(s.beta(ks) * s.gamma(ks)))
        total += inc
        if lo >= 9 * 10**6:
            last_decade += inc
    # last decade (here: the final tenth) still contributes visibly
    assert last_decade > 0.0
    ks = np.arange(10**6, 10**7)
    assert float(np.sum(s.beta(ks) * s.gamma(ks))) > 0.1 * total


def test_rate_diagnostics_k0_and_exponent():
    s = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    # beta_0*gamma_0 = 0.5 is not < 1/2, so the scan moves to k = 1
    assert contraction_start(s, A=2.0) == 1
    # offset 0 starts at k = 1 with beta_k*gamma_k = 30/k: 30/7 >= 4 > 30/8
    fig5 = PowerLawSchedule(2.5, 0.75, 12.0, 0.25, index_offset=0)
    assert contraction_start(fig5, A=0.25) == 8
    with pytest.raises(ValueError):
        contraction_start(s, A=0.0)
    # K0 = 50^5 - 1, which the scan had not reached after 10 s
    far = PowerLawSchedule(1.0, 0.1, 1.0, 0.1)
    start = time.perf_counter()
    assert contraction_start(far, 50.0) == 312_499_999
    assert time.perf_counter() - start < 1.0
    # K0 past 2**53: the closed form overflowed (a bare OverflowError), or
    # at about 1e200 the settling loop had not returned after 10 s
    for params, A in (((20.0, 0.005, 20.0, 0.006), 100.0),
                      ((100.0, 0.01, 100.0, 0.01), 1.0)):
        past = PowerLawSchedule(*params)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(
                f"K0 of {past} at A = {A} lies past 2**53")):
            contraction_start(past, A)
        assert time.perf_counter() - start < 1.0
    # constant steps with beta * gamma = 1 >= 1/2: the scan never returned
    with pytest.raises(ValueError, match="never falls below 1/A = 0.5"):
        contraction_start(PowerLawSchedule(1.0, 0.0, 1.0, 0.0), 2.0)
    # the envelope decays as (k+1)^(-min{2 nu2, nu1 - nu2})
    assert theorem5_envelope(s, 1.0, 99) == pytest.approx(100.0 ** -0.5)
    assert theorem5_envelope(
        PowerLawSchedule(0.4, 0.55, 1.0, 0.15), 1.0, 99
    ) == pytest.approx(100.0 ** -0.3)


def _contracts(schedule, A, k):
    return schedule.beta(k) * schedule.gamma(k) < 1.0 / A


def _scanned_start(schedule, A, limit):
    """K0 by scanning k up from first_index, None past ``limit``."""
    k = schedule.first_index
    while not _contracts(schedule, A, k):
        if k == limit:
            return None
        k += 1
    return k


@st.composite
def _flat_cases(draw):
    """A schedule with 0 < nu1 + nu2 < 0.01, where beta_k * gamma_k is
    nearly flat, and an A that puts its crossing of 1/A at a drawn k <= 1e4."""
    nu = 10 ** draw(st.floats(-10.0, -2.01))
    nu1 = nu * draw(st.floats(-2.0, 3.0))
    s = PowerLawSchedule(draw(st.floats(0.01, 20.0)), nu1,
                         draw(st.floats(0.01, 20.0)), nu - nu1,
                         index_offset=draw(st.integers(0, 1)))
    target = draw(st.integers(s.first_index, 10**4 - 1)) + s.index_offset
    return s, (target + 0.5) ** nu / (s.beta0 * s.gamma0)


_any_cases = st.tuples(
    st.builds(PowerLawSchedule, st.floats(0.01, 20.0), st.floats(-0.5, 1.5),
              st.floats(0.01, 20.0), st.floats(-0.5, 1.0),
              index_offset=st.integers(0, 1)),
    st.floats(0.01, 100.0))


@settings(max_examples=75, deadline=None)
@given(case=st.one_of(_any_cases, _flat_cases()))
def test_contraction_start_equals_the_scan(case):
    s, A = case
    want = _scanned_start(s, A, 10**4)
    if want is not None:
        assert contraction_start(s, A) == want
    elif s.nu1 + s.nu2 <= 0:  # the product never falls
        with pytest.raises(ValueError, match="never falls below 1/A"):
            contraction_start(s, A)


def test_contraction_start_on_a_product_flat_to_rounding():
    # nu1 + nu2 = 1e-10 with K0 near 1e15: beta_k * gamma_k is flat to
    # rounding over runs of about 1e5 k, which a one-step walk never left
    s = PowerLawSchedule(math.exp(1e-10 * math.log(1e15)), 5e-11, 1.0, 5e-11)
    start = time.perf_counter()
    K0 = contraction_start(s, 1.0)
    assert time.perf_counter() - start < 1.0
    assert _contracts(s, 1.0, K0) and not _contracts(s, 1.0, K0 - 1)
    assert 10**14 < K0 < 10**16


@pytest.mark.parametrize("A", [math.nan, math.inf, -math.inf, 0.0, -2.0, _HUGE])
def test_contraction_start_and_theorem5_condition_refuse_the_same_A(A):
    s = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    for check in (contraction_start, theorem5_condition):
        with pytest.raises(ValueError, match=re.escape(
                f"A must be finite and in (0, inf), got {A!r}")):
            check(s, A)


def test_theorem5_condition_cases():
    s = lambda b0: PowerLawSchedule(b0, 0.75, 1.0, 0.25)
    ok, thr = theorem5_condition(s(0.28), 2.0)
    assert ok and thr == pytest.approx(0.25)
    ok, _ = theorem5_condition(s(0.23), 2.0)
    assert not ok
    ok, _ = theorem5_condition(s(0.25), 2.0)  # boundary: >= passes
    assert ok
