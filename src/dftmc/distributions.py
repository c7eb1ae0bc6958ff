"""Lifetime distributions for basic events, and their scaled reference laws.

Four families are supported: Exponential (parameterized by MTTF), Weibull,
LogNormal and Normal, on the :class:`Lifetime` base.  Normal is always the
exact Normal law truncated at zero, so every family lives on [0, inf).
Each family knows its density, CDF and quantile, and declares its own
``.dft`` keyword and parameter names, which the parser reads and writes
events through.  Numbers are converted where they enter: constructors and
solvers keep the Python float they checked, whatever numpy dtype came in.
Survival is kept in log space only (``log_sf``; there is no linear-space
survival method), so tail masses near 1e-300 stay meaningful.

Importance sampling replaces a base law ``f`` by a scaled reference law
``g(t) = (1/a) * f(t/a)``, which is the same family with its scale parameter
moved to ``v``.  The scale ``v`` is chosen so that survival past the mission
time drops by a common factor ``d``:

    1 - G(T) = (1 - F(T)) / d

Every family has a closed form for ``v``; LogNormal and Normal invert the
log of the standard normal tail with ``scipy.special.ndtri_exp``.  The
generic bisection solver ``solve_reference_bisect`` is kept as an
independent cross-check.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import _special

__all__ = [
    "Exponential",
    "Weibull",
    "LogNormal",
    "Normal",
    "Lifetime",
    "ReferenceDistribution",
    "ReferenceSolverError",
    "scale",
    "solve_reference",
    "solve_reference_bisect",
]

_MAX_LOG = math.log(sys.float_info.max)


class ReferenceSolverError(RuntimeError):
    """No reference scale satisfies the survival-matching condition."""


def _real(value) -> float | None:
    # the Python float a real number rounds to, or None; numpy scalars pass,
    # a bool (though Python counts it an int) or an int past the float range
    # does not
    if type(value) is float:  # the common case skips the costly ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _check_positive(value, name: str) -> float:
    """The Python float ``value`` rounds to, which must be finite and positive."""
    if (x := _real(value)) is not None and 0.0 < x < math.inf:
        return x
    raise ValueError(f"{name} must be a finite positive number, got {value!r}")


class Lifetime:
    """Base of the lifetime families; holds the checked ``quantile``.

    ``family`` is the ``.dft`` keyword and ``keys`` the ``.dft`` parameter
    names in dataclass-field order, so ``cls(*values)`` builds a law.  Each
    parameter is stored as the Python float its constructor checked.
    """

    family: str
    keys: tuple[str, ...]

    def quantile(self, p):
        """Lifetime at probability ``p``, which must lie strictly in (0, 1)."""
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("quantile probability must lie strictly in (0, 1)")
        out = self._quantile01(p)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Exponential(Lifetime):
    """Exponential lifetime with mean time to failure ``mttf``."""

    mttf: float
    family = "exp"
    keys = ("mttf",)

    def __post_init__(self):
        object.__setattr__(self, "mttf", _check_positive(self.mttf, "mttf"))

    @property
    def scale(self) -> float:
        return self.mttf

    def with_scale(self, v: float) -> "Exponential":
        return Exponential(v)

    def pdf(self, t):
        return np.exp(-np.asarray(t) / self.mttf) / self.mttf

    def cdf(self, t):
        return -np.expm1(-np.asarray(t) / self.mttf)

    def log_sf(self, t):
        return -np.asarray(t) / self.mttf

    def _quantile01(self, p):
        # valid for p in [0, 1); p = 0 maps to 0
        return -self.mttf * np.log1p(-np.asarray(p))

    def log_density_ratio(self, other: "Exponential", t):
        # log(f(t)/g(t)) with g the same family at scale other.mttf;
        # written so the normalizing constants never under/overflow
        t = np.asarray(t, dtype=float)
        return np.log(other.mttf / self.mttf) - t / self.mttf + t / other.mttf


@dataclass(frozen=True)
class Weibull(Lifetime):
    """Weibull lifetime with characteristic life ``scale_param`` and shape."""

    scale_param: float
    shape: float
    family = "weibull"
    keys = ("scale", "shape")

    def __post_init__(self):
        object.__setattr__(self, "scale_param", _check_positive(self.scale_param, "scale"))
        object.__setattr__(self, "shape", _check_positive(self.shape, "shape"))

    @property
    def scale(self) -> float:
        return self.scale_param

    def with_scale(self, v: float) -> "Weibull":
        return Weibull(v, self.shape)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        z = t / self.scale_param
        b = self.shape
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (b / self.scale_param) * z ** (b - 1.0) * np.exp(-(z**b))
        # pin the support edges: 0**(b-1) at the origin (diverges for b<1,
        # vanishes for b>1) and inf*0 at t=inf
        edge = (1.0 / self.scale_param) if b == 1.0 else (np.inf if b < 1.0 else 0.0)
        out = np.where(t == 0.0, edge, out)
        return np.where(np.isinf(t), 0.0, out)

    def cdf(self, t):
        z = np.asarray(t) / self.scale_param
        return -np.expm1(-(z**self.shape))

    def log_sf(self, t):
        z = np.asarray(t) / self.scale_param
        return -(z**self.shape)

    def _quantile01(self, p):
        return self.scale_param * (-np.log1p(-np.asarray(p))) ** (1.0 / self.shape)

    def log_density_ratio(self, other: "Weibull", t):
        if other.shape != self.shape:
            raise ValueError("density ratio requires matching Weibull shapes")
        t = np.asarray(t, dtype=float)
        b = self.shape
        # the t**(b-1) factors cancel, so t = 0 needs no special case
        return b * np.log(other.scale_param / self.scale_param) - (t / self.scale_param) ** b + (t / other.scale_param) ** b


@dataclass(frozen=True)
class LogNormal(Lifetime):
    """LogNormal lifetime: log of the failure time is Normal(mu, sigma)."""

    mu: float
    sigma: float
    family = "lognormal"
    keys = ("mu", "sigma")

    def __post_init__(self):
        # the median exp(mu) is the scale every reference law starts from
        if not ((mu := _real(self.mu)) is not None and mu <= _MAX_LOG and math.exp(mu) > 0.0):
            raise ValueError(f"mu must give a finite positive median exp(mu), got {self.mu!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", _check_positive(self.sigma, "sigma"))

    @property
    def scale(self) -> float:
        # median; the natural scale parameter of the family
        return math.exp(self.mu)

    def with_scale(self, v: float) -> "LogNormal":
        return LogNormal(math.log(v), self.sigma)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        safe = np.where(t > 0.0, t, 1.0)
        z = (np.log(safe) - self.mu) / self.sigma
        out = np.exp(-0.5 * z * z) / (safe * self.sigma * math.sqrt(2.0 * math.pi))
        return np.where(t > 0.0, out, 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        safe = np.where(t > 0.0, t, 1.0)
        out = _special.ndtr((np.log(safe) - self.mu) / self.sigma)
        return np.where(t > 0.0, out, 0.0)

    def log_sf(self, t):
        t = np.asarray(t, dtype=float)
        safe = np.where(t > 0.0, t, 1.0)
        out = _special.log_ndtr(-(np.log(safe) - self.mu) / self.sigma)
        return np.where(t > 0.0, out, 0.0)

    def _quantile01(self, p):
        with np.errstate(divide="ignore"):
            return np.exp(self.mu + self.sigma * _special.ndtri(np.asarray(p)))

    def log_density_ratio(self, other: "LogNormal", t):
        if other.sigma != self.sigma:
            raise ValueError("density ratio requires matching LogNormal sigmas")
        t = np.asarray(t, dtype=float)
        safe = np.where(t > 0.0, t, 1.0)
        lt = np.log(safe)
        num = (lt - other.mu) ** 2 - (lt - self.mu) ** 2
        # t = 0 carries no mass under either law; ratio fixed at 1 there
        return np.where(t > 0.0, num / (2.0 * self.sigma**2), 0.0)


@dataclass(frozen=True)
class Normal(Lifetime):
    """Normal lifetime truncated to non-negative times.

    The mean acts as the scale parameter.  With ``m`` the Normal mass below
    zero, the density, CDF, survival and quantile are those of the Normal
    conditioned on [0, inf): ``cdf(0)`` is 0 and the density is divided by
    ``1 - m``.
    """

    mean: float
    sd: float
    family = "normal"
    keys = ("mean", "sd")

    def __post_init__(self):
        object.__setattr__(self, "mean", _check_positive(self.mean, "mean"))
        object.__setattr__(self, "sd", _check_positive(self.sd, "sd"))

    @property
    def scale(self) -> float:
        return self.mean

    def with_scale(self, v: float) -> "Normal":
        # scaling multiplies mean and sd together, keeping the shape m/s fixed
        return Normal(v, self.sd * (v / self.mean))

    @property
    def _mass_below_zero(self) -> float:
        return float(_special.ndtr(-self.mean / self.sd))

    def _z(self, t):
        # a tiny sd/mean ratio overflows z to +-inf, which is the right limit
        with np.errstate(over="ignore"):
            return (t - self.mean) / self.sd

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        z = self._z(t)
        out = np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))
        return np.where(t >= 0.0, out / (1.0 - self._mass_below_zero), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        lo = self._mass_below_zero
        out = (_special.ndtr(self._z(t)) - lo) / (1.0 - lo)
        return np.clip(np.where(t >= 0.0, out, 0.0), 0.0, 1.0)

    def log_sf(self, t):
        t = np.asarray(t, dtype=float)
        return _special.log_ndtr(-self._z(t)) - math.log1p(-self._mass_below_zero)

    def _quantile01(self, p):
        lo = self._mass_below_zero
        q = self.mean + self.sd * _special.ndtri(lo + np.asarray(p, dtype=float) * (1.0 - lo))
        return np.maximum(q, 0.0)

    def log_density_ratio(self, other: "Normal", t):
        t = np.asarray(t, dtype=float)
        # both laws truncate the same relative mass (m/s is scale-invariant),
        # so the renormalizing constants cancel exactly
        za = (t - self.mean) / self.sd
        zb = (t - other.mean) / other.sd
        return math.log(other.sd / self.sd) + 0.5 * (zb * zb - za * za)


@dataclass(frozen=True)
class ReferenceDistribution:
    """A base lifetime law paired with its scaled reference law at scale v."""

    base: Lifetime
    v: float
    law: Lifetime

    def _quantile01(self, p):
        return self.law._quantile01(p)

    def log_density_ratio(self, t):
        """log(f(t)/g(t)) between base and reference densities."""
        return self.base.log_density_ratio(self.law, t)

    def log_survival_ratio(self, t) -> float:
        """log((1-F(t))/(1-G(t))), the lumped tail weight in log space."""
        return float(self.base.log_sf(t) - self.law.log_sf(t))


def scale(dist: Lifetime, v: float) -> ReferenceDistribution:
    """Build the scaled reference law g(t) = (1/a) f(t/a) with scale v."""
    v = _check_positive(v, "v")
    # identity scaling reuses the base law itself, so g == f holds bit for
    # bit (LogNormal would otherwise round through log(exp(mu)))
    law = dist if v == dist.scale else dist.with_scale(v)
    return ReferenceDistribution(base=dist, v=v, law=law)


def solve_reference(dist: Lifetime, d: float, mission_time: float) -> float:
    """Reference scale v such that survival past ``mission_time`` shrinks by d.

    Every family has a closed form; with ``y = log(1 - F(T)) - log d``:

    - LogNormal: ``v = exp(log T + sigma * ndtri_exp(y))``;
    - Normal, with ``c = sd/mean`` kept fixed and ``m = ndtr(-1/c)`` the mass
      below zero: ``x = ndtri_exp(y + log1p(-m))``, then ``v = T / (1 - c*x)``.

    d = 1 always returns the base scale exactly.  Raises
    ReferenceSolverError when v would underflow to zero or overflow, or
    when a Normal's sd, scaled with v, would.
    """
    d, mission_time = _check_positive(d, "d"), _check_positive(mission_time, "mission_time")
    if d < 1.0:
        raise ValueError(f"d must be >= 1, got {d!r}")
    if d == 1.0:
        return dist.scale
    log_d = math.log(d)
    # past the float range a scale overflows on its way to 0 or inf: 1/mttf
    # becomes inf, and the float power and math.exp raise OverflowError
    try:
        if isinstance(dist, Exponential):
            v = 1.0 / (1.0 / dist.mttf + log_d / mission_time)
        elif isinstance(dist, Weibull):
            b = dist.shape
            v = mission_time / ((mission_time / dist.scale_param) ** b + log_d) ** (1.0 / b)
        elif isinstance(dist, LogNormal):
            target = float(dist.log_sf(mission_time)) - log_d
            v = math.exp(math.log(mission_time) + dist.sigma * float(_special.ndtri_exp(target)))
        else:
            target = float(dist.log_sf(mission_time)) - log_d
            cx = (dist.sd / dist.mean) * float(_special.ndtri_exp(target + math.log1p(-dist._mass_below_zero)))
            if not cx < 1.0:
                raise ReferenceSolverError(
                    f"no reference scale matches a survival drop of {d!r} at mission time {mission_time!r}"
                )
            v = mission_time / (1.0 - cx)
            if not 0.0 < dist.sd * (v / dist.mean) < math.inf:
                v = 0.0  # the reference law's sd, scaled with v, leaves the range
    except OverflowError:
        v = 0.0
    if not 0.0 < v < math.inf:
        raise ReferenceSolverError(
            f"reference scale for a survival drop of {d!r} at mission time {mission_time!r} "
            "is outside the float range"
        )
    return v


def solve_reference_bisect(dist: Lifetime, d: float, mission_time: float) -> float:
    """Generic solver for the survival-matching condition, any family.

    Bisects on v using the residual
        r(v) = log(1 - G_v(T)) - (log(1 - F(T)) - log d),
    which is strictly increasing in v, until v is resolved to machine
    precision.  The residual at the returned v is far below 1e-10.
    """
    d, mission_time = _check_positive(d, "d"), _check_positive(mission_time, "mission_time")
    if d < 1.0:
        raise ValueError(f"d must be >= 1, got {d!r}")
    if d == 1.0:
        return dist.scale

    target = float(dist.log_sf(mission_time)) - math.log(d)

    def residual(v: float) -> float:
        return float(dist.with_scale(v).log_sf(mission_time)) - target

    hi = dist.scale  # residual(hi) = log d > 0
    lo = hi / 2.0
    for _ in range(1100):
        if residual(lo) < 0.0:
            break
        hi = lo
        lo /= 2.0
        if lo < 1e-300:
            raise ReferenceSolverError(
                f"no reference scale in (0, {dist.scale!r}] matches a survival drop of {d!r}"
            )
    else:
        raise ReferenceSolverError(
            f"bracket expansion failed for survival drop {d!r} at mission time {mission_time!r}"
        )

    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi
