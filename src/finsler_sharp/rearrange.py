"""Anisotropic symmetrization of radial sources.

A function u on an instance is replaced by the decreasing rearrangement
u*(x) = v(omega_n H(x)^n) built from its distribution function
mu(t) = Vol{u > t}, where v is the right-continuous generalized inverse
v(s) = inf {t >= 0 : mu(t) <= s}.  Every source here is radial,
u(x) = g(d(0, x)) with g nonincreasing, and so is its own rearrangement:
rearranging checks the profile and returns it.

Dirichlet energies of rearranged profiles reduce to the 1-D integral
n omega_n int |g'(rho)|^p rho^(n-1) drho, which depends on the dimension
only, so no target norm is an input: this is the identity the
verification layer leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import special

from ._util import REQUIRED, build_from_descriptor, graded_grid, route_quad, split_quad, unconverged
from ._util import finite_positive, warn_unconverged
from .constants import omega_n
from .manifold import FinslerInstance, avr
from .report import InequalityReport, make_report

PROFILE_GRID = 2048


@dataclass(frozen=True)
class RadialTestFunction:
    """u(x) = profile(d(0, x)) with a nonincreasing profile.

    The profile must vanish at and beyond support_radius.  kinks lists
    radii where the derivative jumps, so quadratures can split there.
    derivative is the a.e. derivative; it may be unbounded near 0 as long
    as the energies stay integrable.

    profile and derivative take a float or an array and give the same
    shape back, without a warning at 0, at a kink or beyond the support.
    The quadratures hand them arrays of radii (route_quad).
    """

    profile: Callable
    support_radius: float
    derivative: Callable
    kinks: tuple = ()
    label: str = "radial"

    def __call__(self, rho):
        return self.profile(np.asarray(rho, dtype=float))

    def sup(self) -> float:
        return float(self.profile(np.asarray(0.0)))

    @cached_property
    def table(self):
        """_profile_table(self), built once: rearrange's check and every distribution of u read it."""
        return _profile_table(self)


@dataclass(frozen=True)
class DistributionFunction:
    """mu(t) = Vol{u > t}, nonincreasing and right-continuous, at the levels
    it was asked for: values[i] = mu(levels[i])."""

    levels: np.ndarray
    values: np.ndarray


# ---------------------------------------------------------------------------
# profile constructors


def cone_profile(radius: float = 1.0, height: float = 1.0) -> RadialTestFunction:
    r, hgt = finite_positive(radius, "profile radius R"), float(height)

    def g(rho):
        return hgt * np.clip(1.0 - rho / r, 0.0, None)

    def dg(rho):
        return np.where(rho < r, -hgt / r, 0.0)

    return RadialTestFunction(
        profile=g,
        derivative=dg,
        support_radius=r,
        kinks=(r,),
        label=f"cone(R={r})",
    )


def plateau_profile(inner: float = 0.5, radius: float = 1.0, height: float = 1.0) -> RadialTestFunction:
    """Flat top of the given height out to inner, then a linear ramp to 0."""
    r = finite_positive(radius, "profile radius R")
    if not 0.0 < inner < r:
        raise ValueError("need 0 < inner < radius")
    a, hgt = float(inner), float(height)

    def g(rho):
        return hgt * np.clip(np.minimum(1.0, (r - rho) / (r - a)), 0.0, None)

    def dg(rho):
        return np.where((rho > a) & (rho < r), -hgt / (r - a), 0.0)

    return RadialTestFunction(
        profile=g, derivative=dg, support_radius=r, kinks=(a, r), label="plateau"
    )


def morrey_extremal_profile(p: float, n: int, radius: float = 1.0) -> RadialTestFunction:
    """(1 - (rho/R)^b)_+ with b = (p-n)/(p-1): the support-bound extremal."""
    if not p > n:
        raise ValueError(f"extremal needs p > n, got p={p}, n={n}")
    b = (p - n) / (p - 1.0)
    r = finite_positive(radius, "profile radius R")

    def g(rho):
        return np.maximum(1.0 - (np.maximum(rho, 0.0) / r) ** b, 0.0)

    def dg(rho):
        # rho = r stands in off (0, r), so the power never sees 0
        rho = np.asarray(rho, dtype=float)
        inside = (rho > 0) & (rho < r)
        return np.where(inside, -(b / r) * (np.where(inside, rho, r) / r) ** (b - 1.0), 0.0)

    return RadialTestFunction(
        profile=g, derivative=dg, support_radius=r, kinks=(r,),
        label=f"morrey_extremal(p={p},n={n},R={r})",
    )


def _l1_seed_integrand(p: float, n: int):
    expo_in = (1.0 - n) / (p - 1.0)
    expo_out = 1.0 / (p - 1.0)

    def h(r):
        r = np.asarray(r, dtype=float)
        inside = (r > 0.0) & (r < 1.0)
        rr = np.where(inside, r, 0.5)
        return np.where(inside, rr**expo_in * (1.0 - rr**n) ** expo_out, 0.0)

    return h


def l1_extremal_profile(p: float, n: int, radius: float = 1.0) -> RadialTestFunction:
    """The L1-bound extremal: g(rho) = height - C(rho/R) where C is the
    cumulative of r^((1-n)/(p-1)) (1-r^n)^(1/(p-1)) and height = C(1).
    With s = r^n this is g = height * betaincc(a, p', (rho/R)^n), a =
    (p-n)/(n(p-1)), p' = p/(p-1); the height is one quadrature of the slope,
    apart from constants.l1_extremal_height.  Scaling the radius dilates the
    support but keeps the height: the sharpness test family of the L1 bound.
    """
    if not p > n:
        raise ValueError(f"extremal needs p > n, got p={p}, n={n}")
    r = finite_positive(radius, "profile radius R")
    h = _l1_seed_integrand(p, n)
    height, _, converged = split_quad(h, 0.0, 1.0)
    warn_unconverged(converged, "L1 extremal height")
    a, pp = (p - n) / (n * (p - 1.0)), p / (p - 1.0)

    def g(rho):
        return height * special.betaincc(a, pp, np.clip(np.asarray(rho, dtype=float) / r, 0.0, 1.0) ** n)

    def dg(rho):
        rho = np.asarray(rho, dtype=float)
        return np.where((rho > 0) & (rho < r), -h(rho / r) / r, 0.0)

    return RadialTestFunction(
        profile=g, derivative=dg, support_radius=r, kinks=(r,),
        label=f"l1_extremal(p={p},n={n},R={r})",
    )


def random_decreasing_profile(rng) -> RadialTestFunction:
    """Random sum of one to four power cones: nonincreasing, compact
    support in radius at most 1.6, known kinks."""
    k = int(rng.integers(1, 5))
    radii = rng.uniform(0.4, 1.6, size=k)
    coefs = rng.uniform(0.2, 1.2, size=k)
    powers = rng.uniform(0.7, 2.5, size=k)

    slopes, dpowers = -coefs * powers / radii, powers - 1.0

    def g(rho):
        base = np.maximum(1.0 - np.asarray(rho, dtype=float)[..., None] / radii, 0.0)
        return (coefs * base ** powers).sum(-1)

    def dg(rho):
        # (R_i - end) - off on _util.Nodes: exact at a kink where 1 - rho / R_i rounds to 0
        gap = radii - np.asarray(getattr(rho, "end", rho), dtype=float)[..., None]
        base = np.maximum((gap - np.asarray(getattr(rho, "off", 0.0))[..., None]) / radii, 0.0)
        return (slopes * np.power(base, dpowers, out=np.zeros(base.shape), where=base > 0.0)).sum(-1)

    return RadialTestFunction(
        profile=g, derivative=dg, support_radius=float(radii.max()),
        kinks=tuple(sorted(radii)), label="random_cones",
    )


def scale_profile(u: RadialTestFunction, factor: float) -> RadialTestFunction:
    """Pointwise multiple factor * u; support and kinks are unchanged."""
    if not factor > 0:
        raise ValueError(f"scale factor must be positive, got {factor}")

    return RadialTestFunction(
        profile=lambda rho: factor * u.profile(rho),
        derivative=lambda rho: factor * u.derivative(rho),
        support_radius=u.support_radius,
        kinks=u.kinks,
        label=f"{u.label}*{factor:g}",
    )


def table_profile(rhos, values) -> RadialTestFunction:
    """Nonincreasing interpolated profile from sample pairs, flat before
    the first radius, with its exact piecewise-constant slopes."""
    rhos = np.asarray(rhos, dtype=float)
    values = np.asarray(values, dtype=float)
    if rhos.ndim != 1 or rhos.shape != values.shape or len(rhos) < 2:
        raise ValueError("a table needs at least two radii and as many values")
    if not (np.all(np.isfinite(rhos)) and np.all(np.isfinite(values))):
        raise ValueError("table entries must be finite")
    if rhos[0] < 0:
        raise ValueError("table radii must be nonnegative")
    if np.any(np.diff(rhos) <= 0):
        raise ValueError("table radii must be strictly increasing")
    if np.any(np.diff(values) > 1e-12):
        raise ValueError("table values must be nonincreasing")
    if values[-1] != 0.0:
        raise ValueError("table must end at 0")
    # slope i + 1 holds on [rhos[i], rhos[i + 1]); 0 before rhos[0] and from rhos[-1] on
    slopes = np.concatenate(([0.0], np.diff(values) / np.diff(rhos), [0.0]))
    return RadialTestFunction(
        profile=lambda rho: np.interp(rho, rhos, values, right=0.0),
        derivative=lambda rho: slopes[np.searchsorted(rhos, rho, side="right")],
        support_radius=float(rhos[-1]),
        kinks=tuple(rhos[:-1]),
        label="table",
    )


def _u_R(p: float, n: int, R: float, family: str) -> RadialTestFunction:
    makers = {"support": morrey_extremal_profile, "l1": l1_extremal_profile}
    if family not in makers:
        raise ValueError(f"profile 'u_R': family {family!r} is not one of: {', '.join(makers)}")
    return makers[family](p, n, R)


_PNR = {"p": (float, REQUIRED), "n": (int, REQUIRED), "R": (float, 1.0)}
_RH = {"R": (float, 1.0), "height": (float, 1.0)}
PROFILES = {
    "morrey_extremal": (lambda p, n, R: morrey_extremal_profile(p, n, R), _PNR),
    "talenti_l1_extremal": (lambda p, n, R: l1_extremal_profile(p, n, R), _PNR),
    "u_R": (_u_R, {**_PNR, "family": (str, "support")}),
    "cone": (lambda R, height: cone_profile(R, height), _RH),
    "plateau": (lambda inner, R, height: plateau_profile(inner, R, height),
                {"inner": (float, 0.5), **_RH}),
    "table": (table_profile, {"rhos": (list, REQUIRED), "values": (list, REQUIRED)}),
}


def profile_from_descriptor(desc, **context) -> RadialTestFunction:
    """The profile a descriptor such as 'morrey_extremal:p=4,n=2' names.

    A context n (the instance dimension) fills in or checks the n of the
    extremal families."""
    return build_from_descriptor(desc, PROFILES, "profile", **context)


# ---------------------------------------------------------------------------
# distribution and rearrangement


def _profile_table(u: RadialTestFunction):
    """(rho, g(rho)) on the graded level grid; raises unless g is nonincreasing."""
    rho = graded_grid(0.0, u.support_radius, PROFILE_GRID + 1, exponent=1.6)
    gv = np.asarray(u.profile(rho), dtype=float)
    if np.any(np.diff(gv) > 1e-9 * max(1.0, u.sup())):
        raise ValueError("radial profile is not nonincreasing")
    return rho, gv


def _radial_level_radii(u: RadialTestFunction, levels: np.ndarray) -> np.ndarray:
    """sup {rho : g(rho) > t} per level, by inverse interpolation on a fine grid."""
    rho, gv = u.table
    n_pts = len(gv)
    k = n_pts - np.searchsorted(gv[::-1], levels, side="right") - 1  # last index with gv > t, -1 if none
    j = np.clip(k, 0, n_pts - 2)
    g0, g1 = gv[j], gv[j + 1]
    drop = g0 > g1
    frac = np.where(drop, (g0 - levels) / np.where(drop, g0 - g1, 1.0), 1.0)
    radii = rho[j] + (rho[j + 1] - rho[j]) * np.clip(frac, 0.0, 1.0)
    return np.where(k < 0, 0.0, np.where(k >= n_pts - 1, u.support_radius, radii))


def distribution(u: RadialTestFunction, m: FinslerInstance, levels=None) -> DistributionFunction:
    """Distribution function mu(t) = Vol{u > t} in the canonical measure.

    The radial source's profile is inverted level by level, and each
    superlevel set is a ball of the exact volume omega_n rho^n.  levels
    defaults to 513 levels from 0 to sup u.
    """
    if not math.isfinite(u.support_radius):
        raise ValueError("unbounded support")
    if levels is None:
        levels = np.linspace(0.0, u.sup(), 513)
    levels = np.asarray(levels, dtype=float)
    mu = omega_n(m.dim) * _radial_level_radii(u, levels) ** m.dim
    return DistributionFunction(levels=levels, values=mu)


def rearrange(u: RadialTestFunction, m: FinslerInstance) -> RadialTestFunction:
    """Decreasing rearrangement of u on the instance m.

    The result depends on the dimension only: u* = g(H(x)) has the same
    distribution, norms and energies for every normalized norm H, so no
    target norm is asked for.  A radial source is its own rearrangement:
    it comes back as it is once its profile is checked nonincreasing.
    """
    u.table  # built from the profile, it raises unless g is nonincreasing
    return u


def equimeasurability_gap(u: RadialTestFunction, m: FinslerInstance, star: RadialTestFunction) -> float:
    """max over the level grid of |Vol{u > t} - Vol{u* > t}|.

    Every level is answered from one profile table per function (u.table,
    one in all when star is u): each inverts it once for the whole grid.
    """
    mu = distribution(u, m)
    vol = distribution(star, m, levels=mu.levels).values
    return float(np.max(np.abs(vol - mu.values)))


# ---------------------------------------------------------------------------
# integrals


def lq_norm_radial(u: RadialTestFunction, q: float, n: int):
    """(L^q norm of g(d(x)) in the canonical measure, whether its quadrature converged)."""
    if q == math.inf:
        return u.sup(), True
    val, _, ok = route_quad(u.profile, lambda g, r: g**q * r ** (n - 1), 0.0, u.support_radius, u.kinks)
    return (n * omega_n(n) * val) ** (1.0 / q), ok


def radial_dirichlet_energy(prof: RadialTestFunction, n: int, p: float) -> float:
    """int H*(Du*)^p dv over R^n for u*(x) = g(H(x)).

    Equals n omega_n int |g'|^p rho^(n-1) drho for every normalized norm
    H: it depends on the dimension only.  Returns inf when the integral
    diverges.
    """
    if p <= 1:
        raise ValueError(f"energy exponent must satisfy p > 1, got {p}")
    val, _, converged = route_quad(
        prof.derivative, lambda d, r: abs(d) ** p * r ** (n - 1), 0.0, prof.support_radius, prof.kinks
    )
    if not converged or not math.isfinite(val) or val > 1e15:
        return math.inf
    return n * omega_n(n) * val

def layer_cake_integral(m: FinslerInstance, f, r_max: float, fprime, points=()):
    """Both sides of the radial layer-cake identity on a metric ball about
    the origin.

    lhs integrates f(d) directly against the shell measure; rhs uses
    f(R) Vol(B(R)) minus the integral of f' against ball volumes.
    """
    n = m.dim
    won = omega_n(n)
    direct, _, ok_direct = route_quad(f, lambda v, r: v * r ** (n - 1), 0.0, r_max, points)
    layers, _, ok_layers = route_quad(fprime, lambda v, r: v * r**n, 0.0, r_max, points)
    warn_unconverged(ok_direct and ok_layers, "layer-cake integral")
    return n * won * direct, f(r_max) * won * r_max**n - won * layers


# ---------------------------------------------------------------------------
# inequality checks


def polya_szego_check(u: RadialTestFunction, m: FinslerInstance, p: float) -> InequalityReport:
    """Check int F*(Du)^p dv >= avr^(p/n) int H*(Du*)^p dv, with the
    instance's AVR, at rtol 1e-6.

    The right side depends on the dimension and the AVR only, for every
    normalized H.  A radial nonincreasing source is its own rearrangement,
    so both sides are one energy, computed once.
    """
    a = avr(m).point
    energy = radial_dirichlet_energy(rearrange(u, m), m.dim, p)
    return make_report(
        "polya_szego",
        {"p": p, "n": m.dim, "avr": a, "profile": u.label},
        energy,
        a ** (p / m.dim) * energy,
        direction="lower",
        rtol=1e-6,
        atol=1e-12,
        diagnostics={"path": "radial"},
    )


def hlp_check(u: RadialTestFunction, m: FinslerInstance, f, p: float) -> InequalityReport:
    """Check int u^p f(d(0, x)) dv <= int (u*)^p f(H(x)) dx at rtol 1e-6.

    The weight's pole is the origin, the centre of the radial source.  A
    radial source is its own rearrangement, so both sides are one
    integral, computed once.  f must be nonincreasing on (0, inf); the
    weight may blow up at 0 provided the integrals stay finite, in which
    case the quadrature splits at the singularity and the report flags
    divergence when both sides are infinite (a vacuous pass).
    """
    n = m.dim
    rtol = 1e-6
    star = rearrange(u, m)

    spot = f(np.array([0.3, 0.7, 1.3, 2.9]))
    if np.any(np.diff(spot) > 1e-12):
        raise ValueError("weight f must be nonincreasing")

    # weight exponent near 0: f ~ r^{-a}; the rearranged side has
    # u*(0) = sup u > 0, so it diverges exactly when a >= n
    with np.errstate(divide="ignore", invalid="ignore"):
        probes = np.array([1e-4, 1e-5, 1e-6])
        fv = np.asarray(f(probes), dtype=float)
        if np.any(~np.isfinite(fv)):
            a_hat = float(n)
        else:
            ratios = np.log(fv[1:] / fv[:-1]) / np.log(probes[1:] / probes[:-1])
            a_hat = float(np.max(-ratios)) if np.all(np.isfinite(ratios)) else float(n)
    weighted, converged = math.inf, True
    if a_hat < n - 1e-9:
        val, _, converged = route_quad(
            star.profile, lambda g, r: g**p * f(r) * r ** (n - 1), 0.0, star.support_radius, star.kinks
        )
        weighted = n * omega_n(n) * val
    params = {"p": p, "n": n, "profile": u.label}
    if not math.isfinite(weighted) or weighted > 1e15:
        return make_report(
            "hlp", params, math.inf, math.inf, "upper", rtol,
            diagnostics={"diverged": True, "weight_exponent": a_hat},
        )
    return make_report(
        "hlp",
        params,
        weighted,
        weighted,
        direction="upper",
        rtol=rtol,
        atol=1e-12,
        diagnostics={"path": "centered", **unconverged(converged)},
    )
