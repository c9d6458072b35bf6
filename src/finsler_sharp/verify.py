"""End-to-end verification of the sharp inequalities on shipped instances.

Each check takes the instance first, computes both sides of one
inequality with independent quadratures and returns an InequalityReport;
every radial integral is a rearrange.shell_integral.  The sharpness
sweeps drive the extremal families over a radius grid and compare scaled
limits against their closed-form targets.  Randomized suites draw seeded
profile families and apply the one-sided violation threshold, so a red
report means an actual violation beyond tolerance, not quadrature noise.

Anisotropic perimeter uses the dual-normal boundary formula, valid for
normalized Minkowski instances; the Wulff equality case doubles as its
validation.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._util import REQUIRED, build_from_descriptor, finite_positive, spawn_rngs, unconverged
from .constants import (
    ball_volume,
    bpv_constant,
    eta,
    hardy_constant,
    l1_energy_limit,
    l1_extremal_height,
    l1_norm_limit,
    morrey_l1_constant,
    morrey_support_constant,
    omega_n,
    support_energy_limit,
)
from .manifold import FinslerInstance, avr as estimate_avr
from .norms import MinkowskiNorm, wulff_volume
from .rearrange import (
    RadialTestFunction,
    equimeasurability_gap,
    l1_extremal_profile,
    layer_cake_integral,
    lq_norm_radial,
    morrey_extremal_profile,
    radial_dirichlet_energy,
    random_decreasing_profile,
    rearrange,
    shell_integral,
)
from .report import InequalityReport, SweepResult, make_report, richardson_limit

def _sup_norm_check(kind: str, m: FinslerInstance, u: RadialTestFunction, p: float,
                    bound) -> InequalityReport:
    """Check sup|u| <= C * X^alpha * energy^(theta/p), the one shape of the
    two Morrey bounds (X the support volume or the L1 norm), for a radial
    source at the tight one-sided tolerance rtol 1e-9.

    kind ("support" or "L1") names the report morrey_<kind>; bound(n, avr)
    gives C, the params beyond p, n and avr, and the right-hand side of the
    energy with whether its quadrature converged.  A divergent gradient energy
    makes the bound vacuous; both are flagged in the diagnostics.
    """
    n = m.dim
    if not p > n:
        raise ValueError(f"{kind} bound needs p > n, got p={p}, n={n}")
    a = estimate_avr(m).point
    if not isinstance(u, RadialTestFunction):
        raise TypeError(f"unsupported function representation: {type(u).__name__}")
    energy = radial_dirichlet_energy(u, n, p)
    c, params, rhs_of = bound(n, a)
    diag = {"path": "radial", "profile": u.label}
    if math.isfinite(energy):
        rhs, converged = rhs_of(energy)
        finite_positive(rhs, f"morrey_{kind.lower()} right side of {u.label}")  # not an underflow to 0
        diag.update(unconverged(converged))
    else:
        diag["divergent_energy"] = True
        rhs = math.inf
    return make_report(f"morrey_{kind.lower()}", {"p": p, "n": n, "avr": a, **params}, u.sup(), rhs,
                       direction="upper", rtol=1e-9, sharp_constant=c, diagnostics=diag)


def verify_morrey_support(m: FinslerInstance, u: RadialTestFunction, p: float) -> InequalityReport:
    """Check sup|u| <= C * Vol(supp u)^(1/n - 1/p) * energy^(1/p) (see _sup_norm_check)."""

    def bound(n, a):
        c, vol = morrey_support_constant(p, n, a), ball_volume(n, u.support_radius)
        return c, {}, lambda energy: (c * vol ** (1.0 / n - 1.0 / p) * energy ** (1.0 / p), True)

    return _sup_norm_check("support", m, u, p, bound)


def verify_morrey_l1(m: FinslerInstance, u: RadialTestFunction, p: float) -> InequalityReport:
    """Check sup|u| <= C * ||u||_1^(1-eta) * energy^(eta/p) (see _sup_norm_check)."""

    def bound(n, a):
        c, e = morrey_l1_constant(p, n, a), eta(p, n)

        def rhs_of(energy):
            l1, converged = lq_norm_radial(u, 1.0, n)
            return c * l1 ** (1.0 - e) * energy ** (e / p), converged
        return c, {"eta": e}, rhs_of

    return _sup_norm_check("L1", m, u, p, bound)


# relative tolerance of both sweeps' limits against their targets
SWEEP_RTOL = 1e-3


def _sweep_domain(kind: str, m: FinslerInstance, p: float, r_grid: Sequence[float]):
    """(n, avr) of m for a sweep of the kind ("support" or "L1") bound, which needs p > n and
    a nonempty radius grid, every radius of finite positive ball volume (checked before any row)."""
    n = m.dim
    if not p > n:
        raise ValueError(f"{kind} sweep needs p > n, got p={p}, n={n}")
    if len(r_grid) == 0:
        raise ValueError("radius grid must be nonempty")
    for r in r_grid:
        ball_volume(n, float(r))
    return n, estimate_avr(m).point


def _sweep_energy(u: RadialTestFunction, n: int, p: float) -> float:
    """radial_dirichlet_energy of u, refused if finite and not positive (an underflow to 0)."""
    energy = radial_dirichlet_energy(u, n, p)
    if math.isfinite(energy):
        finite_positive(energy, f"energy of {u.label}")
    return energy


def _sweep_result(rows: list, key: str, target: float, holds: bool) -> SweepResult:
    """The sweep of rows: it passes when the Richardson limit of row[key]
    lies within SWEEP_RTOL of target and holds, the sweep's own per-row
    checks, is true."""
    grid = [row["R"] for row in rows]
    limit, order = richardson_limit(grid, [row[key] for row in rows])
    passed = holds and abs(limit - target) <= SWEEP_RTOL * abs(target)
    return SweepResult(variable="R", grid=grid, rows=rows, limit=float(limit), target=float(target),
                       order_estimate=order, passed=bool(passed), rtol=SWEEP_RTOL)


def sharpness_sweep_support(m: FinslerInstance, p: float, r_grid: Sequence[float]) -> SweepResult:
    """Drive the support-bound test family over R and compare the scaled
    energy R^(p-n) * energy(u_R) against its closed-form limit.

    On Minkowski instances the ball volume formula is exact, so the
    per-R values are already at the limit and extrapolation is a no-op;
    the per-R inferred constant must then match the sharp one.
    """
    n, a = _sweep_domain("support", m, p, r_grid)
    target = support_energy_limit(p, n, a)
    c_sharp = morrey_support_constant(p, n, a)
    rows = []
    for r in r_grid:
        u = morrey_extremal_profile(p, n, float(r))
        energy = _sweep_energy(u, n, p)
        c_est = u.sup() / (ball_volume(n, float(r)) ** (1.0 / n - 1.0 / p) * energy ** (1.0 / p))
        rows.append(
            {
                "R": float(r),
                "scaled_energy": float(r) ** (p - n) * energy,
                "ratio": c_est / c_sharp,
                "constant_estimate": c_est,
                "target": target,
            }
        )
    finite = all(math.isfinite(row["ratio"]) for row in rows)
    return _sweep_result(rows, "scaled_energy", target, finite)


def sharpness_sweep_l1(m: FinslerInstance, p: float, r_grid: Sequence[float]) -> SweepResult:
    """Drive the L1-bound test family over R.

    Checks three things per R: the scaled L1 norm and scaled energy
    against their Beta-function targets, the R-independence of the sup
    (against the Beta-function height), and the combined
    constant estimate against the sharp constant; the last is the sweep
    limit.
    """
    n, a = _sweep_domain("L1", m, p, r_grid)
    t_l1 = l1_norm_limit(p, n, a)
    t_energy = l1_energy_limit(p, n, a)
    height = l1_extremal_height(p, n)
    c_sharp = morrey_l1_constant(p, n, a)
    e = eta(p, n)
    rows = []
    for r in r_grid:
        rr = float(r)
        u = l1_extremal_profile(p, n, rr)
        l1 = lq_norm_radial(u, 1.0, n)[0]
        energy = _sweep_energy(u, n, p)
        c_est = u.sup() / (l1 ** (1.0 - e) * energy ** (e / p))
        rows.append(
            {
                "R": rr,
                "scaled_l1": l1 / rr**n,
                "scaled_energy": rr ** (p - n) * energy,
                "l1_target": t_l1,
                "energy_target": t_energy,
                "sup_deviation": abs(u.sup() - height),
                "constant_estimate": c_est,
                "ratio": c_est / c_sharp,
            }
        )
    last = rows[-1]
    holds = (
        abs(last["scaled_l1"] - t_l1) <= SWEEP_RTOL * t_l1
        and abs(last["scaled_energy"] - t_energy) <= SWEEP_RTOL * t_energy
        and all(row["sup_deviation"] <= 1e-9 * height for row in rows)
    )
    return _sweep_result(rows, "constant_estimate", c_sharp, holds)


def hardy_test_family(p: float, n: int, delta: float, cap_radius: float = 0.01) -> RadialTestFunction:
    """Capped near-extremal for the Hardy bound: min(rho^-s, A) * (1-rho)_+
    with s = (n-p)/p - delta.  As delta decreases the two sides blow up
    together and their ratio climbs toward 1."""
    if not 0.0 < delta < (n - p) / p:
        raise ValueError(f"delta must lie in (0, {(n - p) / p}), got {delta}")
    s = (n - p) / p - delta
    cap = float(cap_radius)
    amp = cap**-s

    def g(rho):
        rho = np.asarray(rho, dtype=float)
        body = np.where(rho >= cap, np.maximum(rho, cap) ** -s, amp)
        return body * np.clip(1.0 - rho, 0.0, None)

    def dg(rho):
        rho = np.asarray(rho, dtype=float)
        inner = np.where(
            rho >= cap,
            -s * np.maximum(rho, cap) ** (-s - 1.0) * (1.0 - rho) - np.maximum(rho, cap) ** -s,
            -amp,
        )
        return np.where((rho > 0) & (rho < 1.0), inner, 0.0)

    return RadialTestFunction(
        profile=g, derivative=dg, support_radius=1.0, kinks=(cap, 1.0),
        label=f"hardy_family(delta={delta:g})",
    )


def verify_hardy(m: FinslerInstance, u: RadialTestFunction, p: float) -> InequalityReport:
    """Check energy >= avr^(p/n) ((n-p)/p)^p * int |u|^p / d(0,.)^p at rtol 1e-9.

    The singular integral is split at the origin and the profile kinks;
    a genuinely divergent right side is flagged and passes vacuously
    only if the left side diverges too.
    """
    n = m.dim
    if not 1.0 < p < n:
        raise ValueError(f"Hardy bound needs 1 < p < n, got p={p}, n={n}")
    a = estimate_avr(m).point
    lhs = radial_dirichlet_energy(u, n, p)
    c = hardy_constant(p, n, a)

    weighted, ok = shell_integral(u.profile, lambda g, r: g**p, n, p, u.support_radius, u.kinks)
    diag = {"profile": u.label, "weighted_lp": weighted, **unconverged(ok)}
    if not math.isfinite(weighted):
        diag["divergent_weighted_term"] = True
        weighted = math.inf
    rhs = c * weighted
    return make_report(
        "hardy",
        {"p": p, "n": n, "avr": a},
        lhs,
        rhs,
        direction="lower",
        rtol=1e-9,
        sharp_constant=c,
        diagnostics=diag,
    )


def verify_bpv(m: FinslerInstance, radius: float, u: RadialTestFunction, mu: float = 0.0) -> InequalityReport:
    """Check the Hardy-shifted Poincare bound on the metric ball of the given
    radius about the origin:

        int F*(Du)^2 - mu int u^2/d^2  >=  S * int u^2,

    at rtol 1e-9, with S the shifted-Bessel-zero constant for the ball's
    canonical volume omega_n radius^n, which must be finite and positive.
    mu outside the admissible range raises before any quadrature runs.
    """
    n = m.dim
    radius = float(radius)
    vol = ball_volume(n, radius)
    if u.support_radius > radius * (1.0 + 1e-12):
        raise ValueError(
            f"u must be supported in the domain: support {u.support_radius} > radius {radius}"
        )
    a = estimate_avr(m).point
    mu_bar, s_const = bpv_constant(mu, n, a, vol)
    dirichlet = radial_dirichlet_energy(u, n, 2.0)
    square = lambda g, r: g**2
    l2sq, ok_l2 = shell_integral(u.profile, square, n, 0, u.support_radius, u.kinks)
    hardy_term, ok_hardy = (shell_integral(u.profile, square, n, 2, u.support_radius, u.kinks)
                            if mu != 0.0 else (0.0, True))
    lhs = dirichlet - mu * hardy_term
    rhs = s_const * l2sq
    return make_report(
        "bpv",
        {"mu": mu, "n": n, "avr": a, "radius": radius, "vol": vol},
        lhs,
        rhs,
        direction="lower",
        rtol=1e-9,
        sharp_constant=s_const,
        diagnostics={
            "profile": u.label,
            "mu_bar": mu_bar,
            "rayleigh": lhs / l2sq if l2sq > 0 else math.inf,
            "dirichlet": dirichlet,
            "l2_sq": l2sq,
            **unconverged(ok_l2 and ok_hardy),
        },
    )


def polya_szego_check(m: FinslerInstance, u: RadialTestFunction, p: float) -> InequalityReport:
    """Check int F*(Du)^p dv >= avr^(p/n) int H*(Du*)^p dv, with the
    instance's AVR, at rtol 1e-6.

    The right side depends on the dimension and the AVR only, for every
    normalized H.  A radial nonincreasing source is its own rearrangement,
    so both sides are one energy, computed once.
    """
    a = estimate_avr(m).point
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


def hlp_check(m: FinslerInstance, u: RadialTestFunction, f, p: float) -> InequalityReport:
    """Check int u^p f(d(0, x)) dv <= int (u*)^p f(H(x)) dx at rtol 1e-6, for finite p > 0.

    The weight's pole is the origin, the centre of the radial source.  A
    radial source is its own rearrangement, so both sides are one
    integral, computed once.  f must be nonincreasing on (0, inf); the
    weight may blow up at 0 provided the integrals stay finite, in which
    case the quadrature splits at the singularity and the report flags
    divergence when both sides are infinite (a vacuous pass).
    """
    n, p = m.dim, finite_positive(p, "hlp exponent p")
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
        weighted, converged = shell_integral(star.profile, lambda g, r: g**p * f(r), n, 0, star.support_radius,
                                             star.kinks)
    params = {"p": p, "n": n, "profile": u.label}
    if not math.isfinite(weighted):
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


# ---------------------------------------------------------------------------
# anisotropic perimeter


def _perimeter_polygon(h: MinkowskiNorm, boundary, k: int) -> float:
    """Dual-normal length of the k-gon with vertices boundary(cos t, sin t)
    at k equal steps of t."""
    theta = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
    pts = boundary(np.stack([np.cos(theta), np.sin(theta)], axis=1))
    # counterclockwise closed polygon; edge (dx,dy) has outward normal (dy,-dx),
    # and 1-homogeneity of the dual absorbs the edge length
    edges = np.roll(pts, -1, axis=0) - pts
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    return float(np.sum(h.dual(normals)))


def _perimeter_surface(h: MinkowskiNorm, boundary, n_phi: int, n_theta: int) -> float:
    """Midpoint quadrature of H*(x_phi x x_theta) for x = boundary(omega)."""

    def point(phi, theta):
        w = np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
            axis=-1,
        )
        return boundary(w)

    dphi = math.pi / n_phi
    dtheta = 2.0 * math.pi / n_theta
    phi = (np.arange(n_phi) + 0.5) * dphi
    theta = (np.arange(n_theta) + 0.5) * dtheta
    pp, tt = np.meshgrid(phi, theta, indexing="ij")
    hs = 1e-5
    xp = (point(pp + hs, tt) - point(pp - hs, tt)) / (2.0 * hs)
    xt = (point(pp, tt + hs) - point(pp, tt - hs)) / (2.0 * hs)
    cross = np.cross(xp, xt).reshape(-1, 3)
    vals = h.dual(cross)
    return float(np.sum(vals)) * dphi * dtheta


def _curved_shape(spec: dict, h: MinkowskiNorm, n: int):
    """(volume, boundary) of a curved shape; boundary maps unit directions
    omega (..., n) to boundary points, r(omega) omega for the star-shaped
    radius map r, except that the ellipse keeps its axis parametrization."""
    kind = spec["kind"]
    if kind == "ellipse":
        semi = np.array([spec["a"], spec["b"]])
        return math.pi * spec["a"] * spec["b"], lambda w: semi * w
    if kind == "ellipsoid":
        semi = np.array([spec["a"], spec["b"], spec["c"]])
        radius = lambda w: 1.0 / np.sqrt(np.sum((w / semi) ** 2, axis=-1))
        vol = 4.0 * math.pi / 3.0 * spec["a"] * spec["b"] * spec["c"]
    elif kind == "wulff":
        r = spec["radius"]
        radius = lambda w: r / h(w.reshape(-1, n)).reshape(w.shape[:-1])
        try:
            vol = r**n * wulff_volume(h)
        except OverflowError:  # refused with every infinite volume by verify_isoperimetric
            vol = math.inf
    else:  # ball
        r = spec["radius"]
        radius = lambda w: np.full(w.shape[:-1], r)
        vol = ball_volume(n, r)
    return vol, lambda w: radius(w)[..., None] * w


def _shape(kind: str, **lengths) -> dict:
    """The shape descriptor of the given kind, once every length is finite and positive."""
    return {"kind": kind, **{k: finite_positive(v, f"shape {kind!r}: key {k!r}") for k, v in lengths.items()}}


_RADIUS = {"radius": (float, 1.0)}
_AXES = {"a": (float, REQUIRED), "b": (float, REQUIRED)}
# a shape is its descriptor with every key filled in
SHAPES = {
    kind: (partial(_shape, kind), keys)
    for kind, keys in (("ball", _RADIUS), ("wulff", _RADIUS), ("rectangle", _AXES),
                       ("ellipse", _AXES), ("ellipsoid", {**_AXES, "c": (float, REQUIRED)}))
}
# the dimensions each shape kind is checked in
SHAPE_DIMENSIONS = {"ball": (2, 3), "wulff": (2, 3), "rectangle": (2,), "ellipse": (2,), "ellipsoid": (3,)}


def verify_isoperimetric(m: FinslerInstance, shape, n_quad: Optional[int] = None) -> InequalityReport:
    """Check P(boundary) >= n omega_n^(1/n) avr^(1/n) Vol^((n-1)/n) at rtol 1e-9.

    The anisotropic perimeter is the boundary integral of the dual norm
    of the Euclidean outward normal: rectangles use the exact four-side
    formula, every curved shape the polygon (n=2) or parametric surface
    (n=3) quadrature, whose error estimate is a third of its distance to
    the same quadrature at half the resolution.  Wulff shapes of the
    instance norm attain equality, which the report flags.
    """
    n = m.dim
    h = m.norm
    if not h.normalized:
        raise ValueError("perimeter formula needs a normalized Minkowski instance")
    a = estimate_avr(m).point
    spec = build_from_descriptor(shape, SHAPES, "shape")
    kind = spec["kind"]
    if n not in SHAPE_DIMENSIONS[kind]:
        raise ValueError(f"shape kind {kind!r} unsupported in dimension {n}")
    if n_quad is None:
        n_quad = 8192 if h.analytic_dual is not None else 512
    err_est = 0.0

    vol, boundary = (spec["a"] * spec["b"], None) if kind == "rectangle" else _curved_shape(spec, h, n)
    if not 0.0 < vol < math.inf:  # refused before its perimeter overflows
        raise ValueError(f"shape {kind!r} has volume {vol}, not finite and positive")

    if kind == "rectangle":
        ax, bx = spec["a"], spec["b"]
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        perim = 2.0 * bx * h.dual(e1) + 2.0 * ax * h.dual(e2)
        diag = {"quadrature": "exact_sides"}
    else:
        if n == 2:
            k = int(n_quad)
            perimeter, fine, half = _perimeter_polygon, (k,), (k // 2,)
            diag = {"quadrature": "polygon", "n_points": k}
        else:
            n_phi = max(48, int(n_quad) // 32)
            perimeter, fine, half = _perimeter_surface, (n_phi, 2 * n_phi), (n_phi // 2, n_phi)
            diag = {"quadrature": "surface", "n_phi": n_phi}
        perim = perimeter(h, boundary, *fine)
        err_est = abs(perim - perimeter(h, boundary, *half)) / 3.0

    diag["quad_error_estimate"] = err_est
    rhs = n * omega_n(n) ** (1.0 / n) * a ** (1.0 / n) * vol ** ((n - 1.0) / n)
    rep = make_report(
        "isoperimetric",
        {"n": n, "avr": a, "shape": kind, "vol": vol},
        perim,
        rhs,
        direction="lower",
        rtol=1e-9,
        atol=10.0 * err_est,
        diagnostics=diag,
    )
    equality = abs(rep.ratio - 1.0) <= 1e-3
    rep.diagnostics["equality"] = bool(equality)
    rep.diagnostics["equality_with_unit_avr"] = bool(equality and abs(a - 1.0) <= 1e-12)
    return rep


# ---------------------------------------------------------------------------
# the inequalities of verify and their randomized property suites


class Inequality(NamedTuple):
    """One inequality of verify.  keys and suite_keys are what its single
    check and its suite read, beyond the instance, the seed and the output
    keys.  check(m, **keys) takes the built profile as u; it is None for an
    inequality that runs only as a suite.  draw(m, u, rng, p, mu) is one
    suite draw on the random profile u, which draws p or mu from rng unless
    it is given; it is None for an inequality without a suite."""

    keys: tuple
    suite_keys: tuple
    check: Optional[Callable[..., InequalityReport]]
    draw: Optional[Callable[..., InequalityReport]]


def _p_bound(check, p_of) -> Inequality:
    """The inequality check(m, u, p), whose draws take p = p_of(n, rng) unless p is given."""
    return Inequality(("profile", "p"), ("p",), check,
                      lambda m, u, rng, p, mu: check(m, u, float(p if p is not None else p_of(m.dim, rng))))


def _check_bpv(m: FinslerInstance, u: RadialTestFunction, mu, radius) -> InequalityReport:
    """verify_bpv at mu, by default 0, on the ball of radius, by default u's support ball."""
    return verify_bpv(m, u.support_radius if radius is None else radius, u, 0.0 if mu is None else float(mu))


def _draw_bpv(m: FinslerInstance, u: RadialTestFunction, rng, p, mu) -> InequalityReport:
    """verify_bpv on u's support ball, mu drawn below 0.9 (n - 2)^2 / 4 (0 for n <= 2) unless given."""
    n = m.dim
    if mu is None:
        mu = float(rng.uniform(0.0, 0.9 * ((n - 2.0) ** 2 / 4.0))) if n > 2 else 0.0
    return _check_bpv(m, u, mu, None)


def _gaussian(r):
    """exp(-r^2 / 2), the weight of hlp's single check."""
    return np.exp(-0.5 * np.asarray(r, dtype=float) ** 2)


def _draw_hlp(m: FinslerInstance, u: RadialTestFunction, rng, p, mu) -> InequalityReport:
    """hlp_check against the weight (r + c)^-a: p, unless given, then a and c are drawn."""
    p = float(p if p is not None else rng.uniform(1.1, 3.0))
    a, c = float(rng.uniform(0.2, max(0.3, m.dim - 0.2))), float(rng.uniform(0.0, 0.3))
    rep = hlp_check(m, u, lambda r: (np.asarray(r, dtype=float) + c) ** -a, p)
    rep.diagnostics.update({"weight_power": a, "weight_shift": c})
    return rep


def _draw_layer_cake(m: FinslerInstance, u: RadialTestFunction, rng, p, mu) -> InequalityReport:
    """The layer-cake identity for u on a ball of radius r_max up to 1.5 times its support."""
    r_max = u.support_radius * float(rng.uniform(1.0, 1.5))
    lhs, rhs = layer_cake_integral(m, u.profile, r_max, fprime=u.derivative, points=u.kinks)
    return make_report(
        "layer_cake", {"n": m.dim, "r_max": r_max}, abs(lhs - rhs), 0.0,
        direction="upper", rtol=0.0, atol=1e-8 * max(1.0, abs(lhs), abs(rhs)),
        diagnostics={"direct": lhs, "layer_cake": rhs, "profile": u.label},
    )


def _draw_equimeasurability(m: FinslerInstance, u: RadialTestFunction, rng, p, mu) -> InequalityReport:
    """The distribution gap of u and its rearrangement, against the volume of its support ball."""
    gap = equimeasurability_gap(u, m, rearrange(u, m))
    return make_report(
        "equimeasurability", {"n": m.dim}, gap, 0.0,
        direction="upper", rtol=0.0, atol=1e-9 * max(1.0, ball_volume(m.dim, u.support_radius)),
        diagnostics={"profile": u.label},
    )


# every inequality of verify, by name: the one place that pairs it with its
# keys, check and draw.  Each check is looked up by name when it runs, so a
# function patched in this module is the one that runs.
INEQUALITIES = {
    "morrey_support": _p_bound(lambda m, u, p: verify_morrey_support(m, u, p),
                               lambda n, rng: n + rng.uniform(0.5, 3.0)),
    "morrey_l1": _p_bound(lambda m, u, p: verify_morrey_l1(m, u, p),
                          lambda n, rng: n + rng.uniform(0.5, 3.0)),
    "hardy": _p_bound(lambda m, u, p: verify_hardy(m, u, p),
                      lambda n, rng: 1.0 + (n - 1.0) * rng.uniform(0.25, 0.85)),
    "bpv": Inequality(("profile", "mu", "radius"), ("mu",), _check_bpv, _draw_bpv),
    "polya_szego": _p_bound(lambda m, u, p: polya_szego_check(m, u, p), lambda n, rng: rng.uniform(1.2, 3.5)),
    "hlp": Inequality(("profile", "p"), ("p",), lambda m, u, p: hlp_check(m, u, _gaussian, p), _draw_hlp),
    "layer_cake": Inequality(("profile",), (), None, _draw_layer_cake),
    "equimeasurability": Inequality(("profile",), (), None, _draw_equimeasurability),
    "isoperimetric": Inequality(("shape",), (), lambda m, shape: verify_isoperimetric(m, shape), None),
}


def randomized_suite(
    m: FinslerInstance,
    inequality: str,
    n_draws: int = 100,
    seed: int = 0,
    workers: int = 1,
    p: Optional[float] = None,
    mu: Optional[float] = None,
):
    """Seeded property suite: n_draws random profiles through one check.

    Draw i takes the i-th generator spawned from seed, and its report
    records the seed and the draw index.  The draws run one after another,
    so workers accepts only 1.  The suite passes only if every report
    does, and needs at least one draw.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    draw = INEQUALITIES[inequality].draw if inequality in INEQUALITIES else None
    if draw is None:
        raise ValueError(f"no randomized suite for {inequality!r}")
    if n_draws < 1:
        raise ValueError(f"a suite needs at least one draw, got {n_draws}")
    reports = []
    for i, rng in enumerate(spawn_rngs(seed, n_draws)):
        rep = draw(m, random_decreasing_profile(rng), rng, p, mu)
        rep.diagnostics.update({"seed": seed, "draw": i})
        reports.append(rep)
    return reports
