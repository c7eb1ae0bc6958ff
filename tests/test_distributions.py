import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from dftmc.distributions import (
    Exponential,
    LogNormal,
    Normal,
    ReferenceSolverError,
    Weibull,
    scale,
    solve_reference,
    solve_reference_bisect,
)

FAMILIES = [
    Exponential(1000.0),
    Weibull(1000.0, 2.0),
    Weibull(3.0, 0.8),
    LogNormal(2.0, 0.7),
    Normal(5.0, 1.0),
    Normal(100.0, 5.0),
]


def test_numpy_numbers_are_accepted_as_parameters():
    # numpy integers are real numbers, though not Python ints
    assert Exponential(np.int64(5)) == Exponential(5.0)
    assert Normal(np.float32(5.0), np.int32(1)).sd == 1
    for bad in (np.int64(0), np.float64("nan"), np.float64("inf"), "5", True, np.True_):
        with pytest.raises(ValueError):
            Exponential(bad)
    for bad in (True, np.True_, "1"):
        with pytest.raises(ValueError):
            LogNormal(bad, 1.0)


def test_exponential_pdf_at_zero():
    assert float(Exponential(1000.0).pdf(0.0)) == pytest.approx(0.001, rel=1e-12)


def test_exponential_pdf_value():
    expected = (1.0 / 1000.0) * math.exp(-0.5 / 1000.0)
    assert float(Exponential(1000.0).pdf(0.5)) == pytest.approx(expected, rel=1e-12)


def test_weibull_shape_one_is_exponential():
    w = Weibull(1000.0, 1.0)
    e = Exponential(1000.0)
    assert float(w.pdf(0.3)) == pytest.approx(float(e.pdf(0.3)), rel=1e-12)
    assert float(w.cdf(0.3)) == pytest.approx(float(e.cdf(0.3)), rel=1e-12)


def test_exponential_cdf_value():
    assert float(Exponential(1000.0).cdf(1.0)) == pytest.approx(-math.expm1(-0.001), rel=1e-12)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: repr(d))
def test_cdf_zero_at_origin(dist):
    assert float(dist.cdf(0.0)) == 0.0


def test_weibull_cdf_at_scale():
    assert float(Weibull(2.0, 2.0).cdf(2.0)) == pytest.approx(-math.expm1(-1.0), rel=1e-12)


def test_quantile_exponential_values():
    assert Exponential(1.0).quantile(-math.expm1(-1.0)) == pytest.approx(1.0, rel=1e-12)
    assert Exponential(1000.0).quantile(0.5) == pytest.approx(1000.0 * math.log(2.0), rel=1e-12)


def test_quantile_normal_median():
    # truncation at zero nudges the median up by ~1e-7 relative
    assert Normal(5.0, 1.0).quantile(0.5) == pytest.approx(5.0, abs=1e-5)


def test_normal_with_tiny_sd_ratio_is_silent_and_refuses_to_scale():
    # z = (t - mean) / sd overflows to -inf, which is the right limit
    n = Normal(1e300, 1e-30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (float(n.pdf(10.0)), float(n.cdf(10.0)), float(n.log_sf(10.0))) == (0.0, 0.0, 0.0)
    # at d = 2 the scale stays in range but the scaled sd would underflow
    with pytest.raises(ReferenceSolverError, match="outside the float range"):
        solve_reference(n, 2.0, 10.0)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: repr(d))
def test_quantile_domain_errors(dist):
    for p in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            dist.quantile(p)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: repr(d))
def test_quantile_cdf_roundtrip(dist):
    for p in (0.05, 0.2, 0.5, 0.8, 0.95):
        t = dist.quantile(p)
        assert float(dist.cdf(t)) == pytest.approx(p, rel=1e-9)
        assert dist.quantile(float(dist.cdf(t))) == pytest.approx(t, rel=1e-9)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: repr(d))
def test_cdf_nondecreasing(dist):
    ts = np.linspace(0.0, float(dist.quantile(0.999)), 200)
    values = np.asarray(dist.cdf(ts))
    assert np.all(np.diff(values) >= -1e-15)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Exponential(math.nan),
        lambda: Weibull(1.0, 0.0),
        lambda: Weibull(0.0, 1.0),
        lambda: LogNormal(math.inf, 1.0),
        lambda: LogNormal(0.0, 0.0),
        lambda: Normal(1.0, -1.0),
        lambda: Normal(0.0, 1.0),
        lambda: LogNormal(800.0, 1.0),
        lambda: LogNormal(-800.0, 1.0),
        # ints too large for a float
        lambda: Exponential(10**400),
        lambda: Weibull(1.0, 10**400),
        lambda: LogNormal(10**400, 1.0),
        lambda: Normal(10**400, 1.0),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


# -- scaling ----------------------------------------------------------------


def test_scale_identity_is_base():
    d = Exponential(1000.0)
    ref = scale(d, 1000.0)
    for t in (0.0, 0.5, 3.0, 800.0):
        assert float(ref.law.pdf(t)) == pytest.approx(float(d.pdf(t)), rel=1e-12)
        assert float(ref.law.cdf(t)) == pytest.approx(float(d.cdf(t)), rel=1e-12, abs=1e-15)


def test_scale_exponential_moves_mttf():
    ref = scale(Exponential(1000.0), 1.4406)
    assert isinstance(ref.law, Exponential)
    assert ref.law.mttf == 1.4406


def test_scale_weibull_keeps_shape():
    ref = scale(Weibull(1000.0, 2.0), 1.2011)
    assert isinstance(ref.law, Weibull)
    assert ref.law.scale_param == 1.2011
    assert ref.law.shape == 2.0


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: repr(d))
def test_scaling_consistency(dist):
    # g(t) = f(t/a)/a for the scaled law at a * (base scale)
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = float(rng.uniform(0.05, 20.0))
        t = float(rng.uniform(0.0, 3.0)) * dist.scale
        ref = scale(dist, a * dist.scale)
        expected = float(dist.pdf(t / a)) / a
        assert float(ref.law.pdf(t)) == pytest.approx(expected, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: repr(d))
@pytest.mark.parametrize("scale_ratio", [None, 0.31, 2.7])
def test_pdf_integrates_to_one(dist, scale_ratio):
    law = dist if scale_ratio is None else scale(dist, scale_ratio * dist.scale).law
    upper = float(law.quantile(1.0 - 1e-12))
    total, err = integrate.quad(lambda t: float(law.pdf(t)), 0.0, upper, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_density_ratio_matches_pdf_quotient():
    rng = np.random.default_rng(7)
    compared = 0
    for dist in FAMILIES:
        ref = scale(dist, 0.37 * dist.scale)
        for _ in range(25):
            t = float(rng.uniform(0.01, 2.0)) * dist.scale
            got = float(ref.log_density_ratio(t))
            assert math.isfinite(got)
            fa, fb = float(dist.pdf(t)), float(ref.law.pdf(t))
            if fa > 0.0 and fb > 0.0:
                # direct quotient only checkable where neither pdf underflows
                assert got == pytest.approx(math.log(fa) - math.log(fb), rel=1e-9, abs=1e-9)
                compared += 1
    assert compared > 100


# -- reference solving -------------------------------------------------------


def test_solve_reference_exponential_closed_form():
    expected = 1.0 / (1.0 / 1000.0 + math.log(2.0))
    v = solve_reference(Exponential(1000.0), 2.0, 1.0)
    assert v == pytest.approx(expected, rel=1e-12)
    assert v == pytest.approx(1.44062, rel=1e-5)


def test_solve_reference_weibull_closed_form():
    expected = 1.0 / (1e-6 + math.log(2.0)) ** 0.5
    v = solve_reference(Weibull(1000.0, 2.0), 2.0, 1.0)
    assert v == pytest.approx(expected, rel=1e-12)
    assert v == pytest.approx(1.20112, rel=1e-5)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: repr(d))
def test_solve_reference_identity_at_one(dist):
    assert solve_reference(dist, 1.0, 1.0) == dist.scale
    assert solve_reference_bisect(dist, 1.0, 1.0) == dist.scale


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: repr(d))
@pytest.mark.parametrize("d", [1.0 + 1e-9, 1.5, 2.0, 10.0, 1e4])
def test_survival_matching_residual(dist, d):
    mission_time = 1.0
    v = solve_reference(dist, d, mission_time)
    g = dist.with_scale(v)
    ratio = math.exp(float(dist.log_sf(mission_time)) - float(g.log_sf(mission_time)))
    assert abs(ratio - d) <= 1e-8 * d


def test_closed_forms_match_bisection():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = float(rng.uniform(0.5, 5000.0))
        t = float(rng.uniform(0.1, 10.0))
        d = float(rng.uniform(1.0, 1e4))
        ve = solve_reference(Exponential(u), d, t)
        assert solve_reference_bisect(Exponential(u), d, t) == pytest.approx(ve, rel=1e-9)
        b = float(rng.uniform(0.5, 4.0))
        vw = solve_reference(Weibull(u, b), d, t)
        assert solve_reference_bisect(Weibull(u, b), d, t) == pytest.approx(vw, rel=1e-9)


def _solve_or_none(solver, dist, d, t):
    try:
        return solver(dist, d, t)
    except ReferenceSolverError:
        return None


def test_lognormal_normal_closed_forms_match_bisection():
    rng = np.random.default_rng(12)
    # normals with more and with less than 1e-12 of their mass below zero
    # are both well covered
    above = below = 0
    for _ in range(500):
        u = float(rng.uniform(0.5, 5000.0))
        t = float(rng.uniform(0.1, 10.0))
        d = math.exp(float(rng.uniform(0.0, math.log(1e30))))
        normal = Normal(u, u * float(rng.uniform(0.02, 0.6)))
        if ndtr(-normal.mean / normal.sd) > 1e-12:
            above += 1
        else:
            below += 1
        for dist in (LogNormal(math.log(u), float(rng.uniform(0.1, 3.0))), normal):
            closed = _solve_or_none(solve_reference, dist, d, t)
            generic = _solve_or_none(solve_reference_bisect, dist, d, t)
            assert (closed is None) == (generic is None), (dist, d, t)
            if closed is not None:
                assert closed == pytest.approx(generic, rel=1e-9), (dist, d, t)
    assert above > 50 and below > 50


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: repr(d))
def test_reference_scale_nonincreasing_in_d(dist):
    ds = [1.0, 1.2, 2.0, 5.0, 25.0, 400.0]
    vs = [solve_reference(dist, d, 1.0) for d in ds]
    assert all(a >= b for a, b in zip(vs, vs[1:]))


def test_solver_failure_when_scale_underflows():
    # so diffuse in log space that the required scale is below float range
    with pytest.raises(ReferenceSolverError):
        solve_reference_bisect(LogNormal(0.0, 50.0), 1e300, 1.0)
    with pytest.raises(ReferenceSolverError):
        solve_reference(LogNormal(0.0, 50.0), 1e300, 1.0)
    # the closed forms leave the float range on their way to a scale of 0:
    # (T/u)**b overflows, and so does 1/mttf; Python floats and numpy
    # numbers alike, with no warning
    for as_number in (float, np.float64):
        with pytest.raises(ReferenceSolverError):
            solve_reference(Weibull(as_number(1.0), as_number(400.0)), 2.0, 10.0)
        with pytest.raises(ReferenceSolverError):
            solve_reference(Exponential(as_number(1e-310)), 2.0, 10.0)


def test_survival_ratio_equals_d():
    dist = Exponential(1000.0)
    v = solve_reference(dist, 3.0, 1.0)
    ref = scale(dist, v)
    assert math.exp(ref.log_survival_ratio(1.0)) == pytest.approx(3.0, rel=1e-12)
