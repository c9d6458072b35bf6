"""Anisotropic symmetrization.

A function u on an instance is replaced by the decreasing rearrangement
u*(x) = v(omega_n H(x)^n) built from its distribution function
mu(t) = Vol{u > t}, where v is the right-continuous generalized inverse
v(s) = inf {t >= 0 : mu(t) <= s}.  Radial nonincreasing inputs pass
through exactly; general inputs are handled on sampling grids whose cells
make the construction a weighted sort.

Dirichlet energies of rearranged profiles reduce to the 1-D integral
n omega_n int |g'(rho)|^p rho^(n-1) drho, which depends on the dimension
only, so no target norm is an input: this is the identity the
verification layer leans on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from ._util import (
    REQUIRED, build_from_descriptor, gauss_legendre, graded_grid, split_quad, warn_unconverged,
)
from .constants import omega_n
from .manifold import FinslerInstance, avr, bh_density
from .report import InequalityReport, make_report

PROFILE_GRID = 2048


@dataclass(frozen=True)
class RadialTestFunction:
    """u(x) = profile(d_F(center, x)) with a nonincreasing profile.

    The profile must vanish at and beyond support_radius.  kinks lists
    interior radii where the derivative jumps, so quadratures can split
    there.  derivative is the a.e. derivative; it may be unbounded near 0
    as long as the energies stay integrable.

    profile and derivative take a float or an array.  A float gives a
    float with the bits of the same radius passed as a 0-d array, without
    a warning where the array route masks a point; an array gives an
    array.  The quadratures hand them Python floats.
    """

    profile: Callable
    support_radius: float
    derivative: Optional[Callable] = None
    center: Optional[np.ndarray] = None
    kinks: tuple = ()
    label: str = "radial"

    def __call__(self, rho):
        return self.profile(np.asarray(rho, dtype=float))

    def sup(self) -> float:
        return float(self.profile(np.asarray(0.0)))

    def d(self, rho):
        if self.derivative is not None:
            return self.derivative(np.asarray(rho, dtype=float))
        rho = np.asarray(rho, dtype=float)
        h = 1e-7 * max(1.0, self.support_radius)
        return (self.profile(rho + h) - self.profile(rho - h)) / (2.0 * h)


@dataclass(frozen=True)
class GridFunction:
    """A sampled function on a uniform grid over a centered box.

    values holds the cell-center samples; box_half the half-widths.  The
    represented function is nonnegative with support inside the box, and
    lives on a Minkowski instance so that cell volumes are Euclidean
    times the constant density.
    """

    values: np.ndarray
    box_half: np.ndarray
    center: Optional[np.ndarray] = None
    label: str = "grid"

    @property
    def dim(self) -> int:
        return self.values.ndim

    def cell_volume(self) -> float:
        widths = 2.0 * np.asarray(self.box_half, dtype=float)
        return float(np.prod(widths / np.array(self.values.shape)))

    def spacings(self):
        widths = 2.0 * np.asarray(self.box_half, dtype=float)
        return widths / np.array(self.values.shape)


def grid_function_from_callable(func, box_half, shape, label="grid") -> GridFunction:
    """Sample a callable at cell centers of a uniform grid over the box."""
    box_half = np.asarray(box_half, dtype=float)
    axes = [
        (np.arange(s) + 0.5) / s * 2.0 * b - b for s, b in zip(shape, box_half)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = np.asarray(func(pts), dtype=float).reshape(shape)
    return GridFunction(values=vals, box_half=box_half, label=label)


@dataclass(frozen=True)
class DistributionFunction:
    """mu(t) = Vol{u > t}, nonincreasing and right-continuous, at the levels
    it was asked for: values[i] = mu(levels[i])."""

    levels: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class DecreasingProfile:
    """The rearranged profile v(s) over the volume coordinate s of R^dim.

    u*(x) = v(omega_n H(x)^n) = g(H(x)) with n = dim, for any normalized
    norm H: its energies and norms depend on the dimension only.
    svals/tvals encode the right-continuous staircase: v = tvals[i] on
    [svals[i], svals[i+1]).  A smooth radial passthrough (source already
    nonincreasing radial) additionally carries the original profile and
    derivative, which the energy quadratures prefer.
    """

    svals: np.ndarray
    tvals: np.ndarray
    dim: int
    smooth: Optional[RadialTestFunction] = None

    def profile(self, rho):
        """g(rho) = v(omega_n rho^n)."""
        if self.smooth is not None:
            return self.smooth.profile(rho)
        rho = np.asarray(rho, dtype=float)
        s = omega_n(self.dim) * rho**self.dim
        idx = np.minimum(np.searchsorted(self.svals[1:], s, side="right"), len(self.tvals) - 1)
        return np.where(s >= self.svals[-1], 0.0, self.tvals[idx])

    def support_radius(self) -> float:
        if self.smooth is not None:
            return self.smooth.support_radius
        return float((self.svals[-1] / omega_n(self.dim)) ** (1.0 / self.dim))

    def sup(self) -> float:
        if self.smooth is not None:
            return self.smooth.sup()
        return float(self.tvals[0]) if len(self.tvals) else 0.0


# ---------------------------------------------------------------------------
# profile constructors


def cone_profile(radius: float = 1.0, height: float = 1.0) -> RadialTestFunction:
    r, hgt = float(radius), float(height)

    def g(rho):
        if isinstance(rho, float):
            return hgt * max(1.0 - rho / r, 0.0)
        return hgt * np.clip(1.0 - rho / r, 0.0, None)

    def dg(rho):
        if isinstance(rho, float):
            return -hgt / r if rho < r else 0.0
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
    if not 0.0 < inner < radius:
        raise ValueError("need 0 < inner < radius")
    a, r, hgt = float(inner), float(radius), float(height)

    def g(rho):
        if isinstance(rho, float):
            return hgt * max(min(1.0, (r - rho) / (r - a)), 0.0)
        return hgt * np.clip(np.minimum(1.0, (r - rho) / (r - a)), 0.0, None)

    def dg(rho):
        if isinstance(rho, float):
            return -hgt / (r - a) if a < rho < r else 0.0
        return np.where((rho > a) & (rho < r), -hgt / (r - a), 0.0)

    return RadialTestFunction(
        profile=g, derivative=dg, support_radius=r, kinks=(a, r), label="plateau"
    )


def morrey_extremal_profile(p: float, n: int, radius: float = 1.0) -> RadialTestFunction:
    """(1 - (rho/R)^b)_+ with b = (p-n)/(p-1): the support-bound extremal."""
    if not p > n:
        raise ValueError(f"extremal needs p > n, got p={p}, n={n}")
    b = (p - n) / (p - 1.0)
    r = float(radius)

    def g(rho):
        if isinstance(rho, float):
            return max(1.0 - (max(rho, 0.0) / r) ** b, 0.0)
        return np.maximum(1.0 - (np.maximum(rho, 0.0) / r) ** b, 0.0)

    def dg(rho):
        # the 0-d route powers a numpy scalar, as libm does the float's;
        # rho = r stands in off (0, r), so the power never sees 0
        if isinstance(rho, float):
            return -(b / r) * (rho / r) ** (b - 1.0) if 0.0 < rho < r else 0.0
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
        if isinstance(r, float):
            # the 0-d route powers r by numpy's array loop, then a numpy scalar
            if not 0.0 < r < 1.0:
                return 0.0
            return np.power(r, expo_in) * (1.0 - np.power(r, n)) ** expo_out
        r = np.asarray(r, dtype=float)
        inside = (r > 0.0) & (r < 1.0)
        rr = np.where(inside, r, 0.5)
        return np.where(inside, rr**expo_in * (1.0 - rr**n) ** expo_out, 0.0)

    return h


@lru_cache(maxsize=64)
def _l1_cumulative(p: float, n: int):
    """Cumulative integral of the L1-extremal seed on a graded grid.

    Panel integrals come from adaptive quadrature, so the cumulative
    values at the knots are quadrature-exact; between knots a monotone
    interpolant is used.  The total is the profile height.
    """
    h = _l1_seed_integrand(p, n)
    knots = graded_grid(0.0, 1.0, 1025, exponent=2.2)
    panels = np.empty(len(knots) - 1)
    for i in range(len(panels)):
        panels[i], _ = integrate.quad(h, knots[i], knots[i + 1], epsabs=1e-14, epsrel=1e-12)
    cum = np.concatenate([[0.0], np.cumsum(panels)])
    return knots, cum, h


def l1_extremal_profile(p: float, n: int, radius: float = 1.0) -> RadialTestFunction:
    """The L1-bound extremal: g(rho) = height - C(rho/R) where C is the
    cumulative of r^((1-n)/(p-1)) (1-r^n)^(1/(p-1)) and height = C(1).

    Scaling the radius dilates the support but keeps the height, which is
    exactly the sharpness test family for the L1 bound.
    """
    if not p > n:
        raise ValueError(f"extremal needs p > n, got p={p}, n={n}")
    knots, cum, h = _l1_cumulative(float(p), int(n))
    r = float(radius)
    height = float(cum[-1])

    def g(rho):
        if isinstance(rho, float):
            return height - np.interp(min(max(rho / r, 0.0), 1.0), knots, cum)
        t = np.clip(np.asarray(rho, dtype=float) / r, 0.0, 1.0)
        return height - np.interp(t, knots, cum)

    def dg(rho):
        if isinstance(rho, float):
            return -h(rho / r) / r if 0.0 < rho < r else 0.0
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
    radii_f, coefs_f, slopes_f = radii.tolist(), coefs.tolist(), slopes.tolist()

    # The float routes take the k powers by numpy's array loop, as the 0-d
    # route does: libm's pow rounds apart from that loop in about 5% of
    # cases.  Their sums run left to right from 0, as numpy's does for k < 8.
    def g(rho):
        if isinstance(rho, float):
            t = np.power([max(1.0 - rho / ri, 0.0) for ri in radii_f], powers)
            return sum(map(operator.mul, coefs_f, t.tolist()))
        base = np.maximum(1.0 - np.asarray(rho, dtype=float)[..., None] / radii, 0.0)
        return (coefs * base ** powers).sum(-1)

    def dg(rho):
        if isinstance(rho, float):
            # a zero base is powered as 1 and its term left out: the 0-d
            # route adds slope * 0 = -0.0 for it, which changes no sum
            base = [1.0 - rho / ri for ri in radii_f]
            t = np.power([b if b > 0.0 else 1.0 for b in base], dpowers).tolist()
            return sum([s * ti for s, ti, b in zip(slopes_f, t, base) if b > 0.0], 0.0)
        base = np.maximum(1.0 - np.asarray(rho, dtype=float)[..., None] / radii, 0.0)
        return (slopes * np.power(base, dpowers, out=np.zeros(base.shape), where=base > 0.0)).sum(-1)

    return RadialTestFunction(
        profile=g, derivative=dg, support_radius=float(radii.max()),
        kinks=tuple(sorted(radii)), label="random_cones",
    )


def scale_profile(u: RadialTestFunction, factor: float) -> RadialTestFunction:
    """Pointwise multiple factor * u; support and kinks are unchanged."""
    if not factor > 0:
        raise ValueError(f"scale factor must be positive, got {factor}")

    def scaled(f):
        def sf(rho):
            if isinstance(rho, float):
                return factor * f(rho)
            return factor * np.asarray(f(np.asarray(rho, dtype=float)))

        return sf

    return RadialTestFunction(
        profile=scaled(u.profile),
        derivative=None if u.derivative is None else scaled(u.derivative),
        support_radius=u.support_radius,
        center=u.center,
        kinks=u.kinks,
        label=f"{u.label}*{factor:g}",
    )


def table_profile(rhos, values) -> RadialTestFunction:
    """Nonincreasing interpolated profile from sample pairs."""
    rhos = np.asarray(rhos, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(np.diff(rhos) <= 0):
        raise ValueError("table radii must be strictly increasing")
    if np.any(np.diff(values) > 1e-12):
        raise ValueError("table values must be nonincreasing")
    if values[-1] != 0.0:
        raise ValueError("table must end at 0")
    return RadialTestFunction(
        profile=lambda rho: np.interp(rho, rhos, values, right=0.0),
        support_radius=float(rhos[-1]),
        kinks=tuple(rhos[1:-1]),
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


def _radial_level_radii(u: RadialTestFunction, levels: np.ndarray) -> np.ndarray:
    """sup {rho : g(rho) > t} per level, by inverse interpolation on a fine grid."""
    rho = graded_grid(0.0, u.support_radius, PROFILE_GRID + 1, exponent=1.6)
    gv = np.asarray(u.profile(rho), dtype=float)
    if np.any(np.diff(gv) > 1e-9 * max(1.0, u.sup())):
        raise ValueError("radial profile is not nonincreasing")
    n_pts = len(gv)
    k = n_pts - np.searchsorted(gv[::-1], levels, side="right") - 1  # last index with gv > t, -1 if none
    j = np.clip(k, 0, n_pts - 2)
    g0, g1 = gv[j], gv[j + 1]
    drop = g0 > g1
    frac = np.where(drop, (g0 - levels) / np.where(drop, g0 - g1, 1.0), 1.0)
    radii = rho[j] + (rho[j + 1] - rho[j]) * np.clip(frac, 0.0, 1.0)
    return np.where(k < 0, 0.0, np.where(k >= n_pts - 1, u.support_radius, radii))


def distribution(u, m: FinslerInstance, levels=None) -> DistributionFunction:
    """Distribution function mu(t) = Vol{u > t} in the canonical measure.

    Radial nonincreasing inputs invert the profile and use the exact ball
    volume; grid inputs count cells weighted by density times cell volume.
    levels defaults to 513 levels from 0 to sup u.
    """
    if isinstance(u, RadialTestFunction):
        if not math.isfinite(u.support_radius):
            raise ValueError("unbounded support")
        if levels is None:
            levels = np.linspace(0.0, u.sup(), 513)
        levels = np.asarray(levels, dtype=float)
        mu = omega_n(m.dim) * _radial_level_radii(u, levels) ** m.dim
        return DistributionFunction(levels=levels, values=mu)
    if isinstance(u, GridFunction):
        if m.dim != u.dim:
            raise ValueError("grid and instance dimensions disagree")
        weight = bh_density(m) * u.cell_volume()
        vals = u.values.ravel()
        if levels is None:
            levels = np.linspace(0.0, float(vals.max(initial=0.0)), 513)
        levels = np.asarray(levels, dtype=float)
        counts = len(vals) - np.searchsorted(np.sort(vals), levels, side="right")
        return DistributionFunction(levels=levels, values=weight * counts)
    raise TypeError(f"unsupported function representation: {type(u).__name__}")


def rearrange(u, m: FinslerInstance) -> DecreasingProfile:
    """Decreasing rearrangement of u on the instance m.

    The result depends on the dimension only: u* = g(H(x)) has the same
    distribution, norms and energies for every normalized norm H, so no
    target norm is asked for.  Radial nonincreasing sources pass through
    unchanged; grid sources become the weighted-sort staircase, which
    realizes the right-continuous generalized inverse of the cell
    distribution.
    """
    n = m.dim
    if isinstance(u, RadialTestFunction):
        rho = graded_grid(0.0, u.support_radius, PROFILE_GRID + 1, exponent=1.6)
        gv = np.asarray(u.profile(rho), dtype=float)
        if np.any(np.diff(gv) > 1e-9 * max(1.0, u.sup())):
            raise ValueError("radial profile is not nonincreasing")
        return DecreasingProfile(svals=omega_n(n) * rho**n, tvals=gv[:-1], dim=n, smooth=u)
    if isinstance(u, GridFunction):
        weight = bh_density(m) * u.cell_volume()
        vals = np.sort(u.values.ravel())[::-1]
        vals = vals[vals > 0.0]
        svals = weight * np.arange(len(vals) + 1, dtype=float)
        return DecreasingProfile(svals=svals, tvals=vals.copy(), dim=n)
    raise TypeError(f"unsupported function representation: {type(u).__name__}")


def equimeasurability_gap(u, m: FinslerInstance, star: DecreasingProfile, levels=None) -> float:
    """max over the level grid of |Vol{u > t} - Vol{u* > t}|.

    Every level is answered from one profile table: a smooth u* inverts its
    tabulated profile once for the whole level grid, and a staircase u*
    counts its steps above all levels with one sorted search.
    """
    mu = distribution(u, m, levels=levels)
    if star.smooth is not None:
        vol = omega_n(star.dim) * _radial_level_radii(star.smooth, mu.levels) ** star.dim
    else:
        # staircase: v > t exactly on [0, svals[count]) with count = #{tvals > t}
        count = len(star.tvals) - np.searchsorted(star.tvals[::-1], mu.levels, side="right")
        vol = np.where(count > 0, star.svals[count], 0.0)
    return float(np.max(np.abs(vol - mu.values)))


# ---------------------------------------------------------------------------
# integrals


def lq_norm_radial(u: RadialTestFunction, q: float, n: int) -> float:
    """L^q norm of g(d(x)) in the canonical measure: exact radial quadrature."""
    if q == math.inf:
        return u.sup()
    # tabulated profiles are piecewise linear, so quad reports roundoff on
    # their interior kinks; the panel splitting already contains the error
    val, _, _ = split_quad(
        lambda r: u.profile(r) ** q * r ** (n - 1),
        0.0,
        u.support_radius,
        points=u.kinks,
    )
    return (n * omega_n(n) * val) ** (1.0 / q)


def lq_norm_grid(u: GridFunction, q: float, m: FinslerInstance) -> float:
    if q == math.inf:
        return float(u.values.max(initial=0.0))
    w = bh_density(m) * u.cell_volume()
    return float((w * np.sum(u.values**q)) ** (1.0 / q))


def lq_norm_star(star: DecreasingProfile, q: float) -> float:
    """L^q norm of the rearranged function, via the volume coordinate."""
    if q == math.inf:
        return star.sup()
    if star.smooth is not None:
        return lq_norm_radial(star.smooth, q, star.dim)
    ds = np.diff(star.svals)
    return float((np.sum(star.tvals**q * ds)) ** (1.0 / q))


def radial_dirichlet_energy(prof, n: int, p: float) -> float:
    """int H*(Du*)^p dv over R^n for u*(x) = g(H(x)).

    Equals n omega_n int |g'|^p rho^(n-1) drho for every normalized norm
    H: it depends on the dimension only.  A profile without an analytic
    derivative is differenced on 8192 graded nodes.  Returns inf when the
    integral diverges.
    """
    if p <= 1:
        raise ValueError(f"energy exponent must satisfy p > 1, got {p}")
    if isinstance(prof, DecreasingProfile) and prof.smooth is not None:
        prof = prof.smooth
    if isinstance(prof, RadialTestFunction):
        if prof.derivative is not None:
            fn = lambda r: abs(prof.derivative(r)) ** p * r ** (n - 1)
            val, _, converged = split_quad(fn, 0.0, prof.support_radius, points=prof.kinks)
            if not converged or not math.isfinite(val) or val > 1e15:
                return math.inf
            return n * omega_n(n) * val
        # no analytic derivative: graded central differences
        rho = graded_grid(0.0, prof.support_radius, 8192, exponent=2.0)
        mid = 0.5 * (rho[1:] + rho[:-1])
        dg = np.diff(np.asarray(prof.profile(rho), dtype=float)) / np.diff(rho)
        val = float(np.sum(np.abs(dg) ** p * mid ** (n - 1) * np.diff(rho)))
        return n * omega_n(n) * val
    if isinstance(prof, DecreasingProfile):
        # Staircase: differencing at step resolution aliases the jumps into
        # divergent energy, so take secant slopes across coarsened knot
        # panels (~sqrt(#cells)), which converge to the smooth profile.
        won = omega_n(n)
        k = len(prof.tvals)
        if k == 0:
            return 0.0
        s_mid = 0.5 * (prof.svals[:-1] + prof.svals[1:])
        rho_k = np.concatenate(([0.0], (s_mid / won) ** (1.0 / n), [(prof.svals[-1] / won) ** (1.0 / n)]))
        v_k = np.concatenate(([prof.tvals[0]], prof.tvals, [0.0]))
        # panel count balances secant smoothing against cell-value noise,
        # which aliases in ~quadratically with the panel count
        panels = max(24.0, 0.25 * math.sqrt(k))
        stride = max(1, int(round(k / panels))) if k > 48 else 1
        sel = np.unique(np.r_[0, np.arange(1, k, stride), k, k + 1])
        rho_c, v_c = rho_k[sel], v_k[sel]
        keep = np.concatenate(([True], np.diff(rho_c) > 0))
        rho_c, v_c = rho_c[keep], v_c[keep]
        dg = np.diff(v_c) / np.diff(rho_c)
        mid = 0.5 * (rho_c[1:] + rho_c[:-1])
        val = float(np.sum(np.abs(dg) ** p * mid ** (n - 1) * np.diff(rho_c)))
        return n * won * val
    raise TypeError(f"unsupported profile representation: {type(prof).__name__}")


def layer_cake_integral(m: FinslerInstance, f, r_max: float, fprime, points=()):
    """Both sides of the radial layer-cake identity on a metric ball about
    the origin.

    lhs integrates f(d) directly against the shell measure; rhs uses
    f(R) Vol(B(R)) minus the integral of f' against ball volumes.
    """
    n = m.dim
    won = omega_n(n)
    direct, _, ok_direct = split_quad(lambda r: f(r) * r ** (n - 1), 0.0, r_max, points=points)
    layers, _, ok_layers = split_quad(lambda r: fprime(r) * r**n, 0.0, r_max, points=points)
    warn_unconverged(ok_direct and ok_layers, "layer-cake integral")
    return n * won * direct, f(r_max) * won * r_max**n - won * layers


# ---------------------------------------------------------------------------
# inequality checks


def _grid_gradient_dual_energy(u: GridFunction, m: FinslerInstance, p: float) -> float:
    """int F*(Du)^p dv by cell sums; needs a vectorized closed-form dual."""
    if m.norm.analytic_dual is None:
        raise ValueError("grid path needs a norm with a closed-form dual")
    grads = np.gradient(u.values, *u.spacings())
    if u.dim == 1:
        grads = [grads]
    cov = np.stack([g.ravel() for g in grads], axis=1)
    fstar = np.asarray(m.norm.analytic_dual(cov), dtype=float) / m.norm.scale
    return bh_density(m) * u.cell_volume() * float(np.sum(fstar**p))


def polya_szego_check(u, m: FinslerInstance, p: float) -> InequalityReport:
    """Check int F*(Du)^p dv >= avr^(p/n) int H*(Du*)^p dv, with the
    instance's AVR.

    The right side depends on the dimension and the AVR only, for every
    normalized H.  Radial nonincreasing sources attain equality (checked
    through two independent quadratures, at rtol 1e-6); grid sources are
    compared at grid accuracy, rtol 1e-2.
    """
    a = avr(m).point
    star = rearrange(u, m)
    rhs = a ** (p / m.dim) * radial_dirichlet_energy(star, m.dim, p)
    if isinstance(u, RadialTestFunction):
        lhs = radial_dirichlet_energy(u, m.dim, p)
        tol = 1e-6
        diag = {"path": "radial"}
    elif isinstance(u, GridFunction):
        lhs = _grid_gradient_dual_energy(u, m, p)
        tol = 1e-2
        diag = {"path": "grid", "cells": int(u.values.size)}
    else:
        raise TypeError(f"unsupported function representation: {type(u).__name__}")
    return make_report(
        "polya_szego",
        {"p": p, "n": m.dim, "avr": a, "profile": getattr(u, "label", "?")},
        lhs,
        rhs,
        direction="lower",
        rtol=tol,
        atol=1e-12,
        diagnostics=diag,
    )


def hlp_check(u: RadialTestFunction, m: FinslerInstance, f, p: float) -> InequalityReport:
    """Check int u^p f(d(0, x)) dv <= int (u*)^p f(H(x)) dx at rtol 1e-6.

    The weight's pole is the origin; a source centred elsewhere (u.center)
    takes the shifted path.  f must be nonincreasing on (0, inf); the
    weight may blow up at 0 provided the integrals stay finite, in which
    case the quadrature splits at the singularity and the report flags
    divergence when both sides are infinite (a vacuous pass).
    """
    n = m.dim
    rtol = 1e-6
    center = np.zeros(n) if u.center is None else np.asarray(u.center, dtype=float)
    star = rearrange(u, m)
    shift = float(m.norm(center))

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
    if a_hat >= n - 1e-9:
        return make_report(
            "hlp", {"p": p, "n": n, "profile": u.label}, math.inf, math.inf,
            "upper", rtol, diagnostics={"diverged": True, "weight_exponent": a_hat},
        )

    def rhs_fn(rho):
        return star.profile(rho) ** p * f(rho) * rho ** (n - 1)

    rhs_val, _, _ = split_quad(rhs_fn, 0.0, star.support_radius(), points=u.kinks)
    rhs = n * omega_n(n) * rhs_val
    if not math.isfinite(rhs) or rhs > 1e15:
        return make_report(
            "hlp", {"p": p, "n": n}, math.inf, math.inf, "upper", rtol,
            diagnostics={"diverged": True},
        )

    if shift == 0.0:
        lhs_val, _, _ = split_quad(
            lambda r: u.profile(r) ** p * f(r) * r ** (n - 1),
            0.0,
            u.support_radius,
            points=u.kinks,
        )
        lhs = n * omega_n(n) * lhs_val
        diag = {"path": "centered"}
    else:
        if m.kind != "euclidean":
            raise ValueError("shifted weights are only integrated on Euclidean instances")
        lhs = _shifted_weighted_lp(u, f, p, n, shift)
        diag = {"path": "shifted", "offset": shift}
    return make_report(
        "hlp",
        {"p": p, "n": n, "profile": u.label},
        lhs,
        rhs,
        direction="upper",
        rtol=rtol,
        atol=1e-12,
        diagnostics=diag,
    )


def _shifted_weighted_lp(u, f, p, n, shift):
    """int g(|x - c|)^p f(|x|) dx in polar coordinates about the weight pole."""
    if n == 2:
        thetas = np.linspace(0.0, math.pi, 257)  # symmetry halves the circle
        w = np.full(len(thetas), 2.0 * (thetas[1] - thetas[0]))
        w[0] = w[-1] = 0.5 * w[0]
        cos_t = np.cos(thetas)
    elif n == 3:
        # axial symmetry about the offset direction: Legendre in cos(angle)
        cos_t, glw = gauss_legendre(128)
        w = glw * 2.0 * math.pi
        thetas = None
    else:
        raise ValueError("shifted quadrature supports n = 2 and 3")

    def ring(r):
        d = np.sqrt(r**2 + shift**2 - 2.0 * r * shift * cos_t)
        gv = np.asarray(u.profile(d), dtype=float) ** p
        return float(np.sum(gv * w)) * f(r) * r ** (n - 1)

    lo = max(shift - u.support_radius, 0.0)
    hi = shift + u.support_radius
    val, _, converged = split_quad(ring, lo, hi, points=(shift,), epsrel=1e-9)
    warn_unconverged(converged, "shifted weighted L^p integral")
    return val
