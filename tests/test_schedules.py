import math

import numpy as np
import pytest

from dospsim.analysis import theorem5_envelope
from dospsim.schedules import (
    PowerLawSchedule,
    chi,
    rate_diagnostics,
    theorem5_condition,
    validate_a4,
    varpi,
)


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
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
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


@pytest.mark.parametrize(
    "nu1,nu2,valid,which",
    [
        (0.75, 0.25, True, None),
        (0.4, 0.25, False, "square_summable"),
        (0.75, 0.5, False, "jointly_divergent"),
    ],
)
def test_validate_a4(nu1, nu2, valid, which):
    report = validate_a4(PowerLawSchedule(1.0, nu1, 1.0, nu2))
    names = ("vanishing", "square_summable", "jointly_divergent")
    fields = tuple(getattr(report, name) for name in names)
    assert fields == tuple(name != which for name in names)
    assert all(fields) is valid


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


def test_chi_constant_gamma_is_zero():
    # exponents 0 fail the validity checks but the arithmetic is legal
    s = PowerLawSchedule(1.0, 0.0, 1.0, 0.0)
    assert chi(s, 5) == 0.0


def test_chi_direct_value():
    s = PowerLawSchedule(1.0, 0.75, 1.0, 0.25)
    want = (1 - (101 / 100) ** (-0.5)) * 100
    assert chi(s, 99) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.4963, abs=5e-5)


def test_chi_varpi_bounds_hold_everywhere():
    for beta0, nu1, gamma0, nu2 in [
        (0.5, 0.75, 1.0, 0.25),
        (0.4, 0.55, 1.0, 0.15),
        (2.0, 0.7, 3.0, 0.3),
    ]:
        s = PowerLawSchedule(beta0, nu1, gamma0, nu2)
        ks = np.arange(1, 20000)
        c = chi(s, ks)
        w = varpi(s, ks)
        assert np.all(c >= 0) and np.all(w >= 0)
        assert np.all(c < 2 * nu2 / (beta0 * gamma0))
        assert np.all(w < (nu1 - nu2) / (beta0 * gamma0))


def test_rate_diagnostics_k0_and_exponent():
    s = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    diag = rate_diagnostics(s, A=2.0, horizon=10**4)
    # beta_0*gamma_0 = 0.5 is not < 1/2, so the scan moves to k = 1
    assert diag.K0 == 1
    # the envelope decays as (k+1)^(-min{2 nu2, nu1 - nu2})
    assert theorem5_envelope(s, 1.0, 99) == pytest.approx(100.0 ** -0.5)
    assert theorem5_envelope(
        PowerLawSchedule(0.4, 0.55, 1.0, 0.15), 1.0, 99
    ) == pytest.approx(100.0 ** -0.3)


def test_rate_diagnostics_finiteness_flags():
    # eps2 finite iff nu1 >= 3*nu2; eps4 finite iff nu1 <= 3*nu2
    d = rate_diagnostics(PowerLawSchedule(0.4, 0.7, 1.0, 0.15), 2.0, horizon=10**4)
    assert math.isfinite(d.beta_over_gamma3_sup)
    assert math.isinf(d.sqrt_gamma3_over_beta_sup)
    d = rate_diagnostics(PowerLawSchedule(0.4, 0.65, 1.0, 0.35), 2.0, horizon=10**4)
    assert math.isinf(d.beta_over_gamma3_sup)
    assert math.isfinite(d.sqrt_gamma3_over_beta_sup)
    d = rate_diagnostics(PowerLawSchedule(0.5, 0.75, 1.0, 0.25), 2.0, horizon=10**4)
    assert math.isfinite(d.beta_over_gamma3_sup)
    assert math.isfinite(d.sqrt_gamma3_over_beta_sup)


def test_theorem5_condition_cases():
    s = lambda b0: PowerLawSchedule(b0, 0.75, 1.0, 0.25)
    ok, thr = theorem5_condition(s(0.28), 2.0)
    assert ok and thr == pytest.approx(0.25)
    ok, _ = theorem5_condition(s(0.23), 2.0)
    assert not ok
    ok, _ = theorem5_condition(s(0.25), 2.0)  # boundary: >= passes
    assert ok
