"""End-to-end verification of the sharp inequalities on shipped instances.

Each check computes both sides of one inequality with independent
quadratures and returns an InequalityReport; the sharpness sweeps drive
the extremal families over a radius grid and compare scaled limits
against their closed-form targets.  Randomized suites draw seeded profile
families and apply the one-sided violation threshold, so a red report
means an actual violation beyond tolerance, not quadrature noise.

Anisotropic perimeter uses the dual-normal boundary formula, valid for
normalized Minkowski instances; the Wulff equality case doubles as its
validation.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ._util import REQUIRED, build_from_descriptor, route_quad, spawn_rngs, unconverged
from .constants import (
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
    hlp_check,
    l1_extremal_profile,
    layer_cake_integral,
    lq_norm_radial,
    morrey_extremal_profile,
    polya_szego_check,
    radial_dirichlet_energy,
    random_decreasing_profile,
    rearrange,
)
from .report import InequalityReport, SweepResult, make_report, richardson_limit

INEQUALITIES = (
    "morrey_support",
    "morrey_l1",
    "hardy",
    "bpv",
    "polya_szego",
    "hlp",
    "layer_cake",
    "equimeasurability",
    "isoperimetric",
)


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
        diag.update(unconverged(converged))
    else:
        diag["divergent_energy"] = True
        rhs = math.inf
    return make_report(f"morrey_{kind.lower()}", {"p": p, "n": n, "avr": a, **params}, u.sup(), rhs,
                       direction="upper", rtol=1e-9, sharp_constant=c, diagnostics=diag)


def verify_morrey_support(m: FinslerInstance, u: RadialTestFunction, p: float) -> InequalityReport:
    """Check sup|u| <= C * Vol(supp u)^(1/n - 1/p) * energy^(1/p) (see _sup_norm_check)."""

    def bound(n, a):
        c, vol = morrey_support_constant(p, n, a), omega_n(n) * u.support_radius**n
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
    """(n, avr) of m for a sweep of the kind ("support" or "L1") bound,
    which needs p > n and a nonempty radius grid."""
    n = m.dim
    if not p > n:
        raise ValueError(f"{kind} sweep needs p > n, got p={p}, n={n}")
    if len(r_grid) == 0:
        raise ValueError("radius grid must be nonempty")
    return n, estimate_avr(m).point


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
        energy = radial_dirichlet_energy(u, n, p)
        vol = omega_n(n) * u.support_radius**n
        c_est = u.sup() / (vol ** (1.0 / n - 1.0 / p) * energy ** (1.0 / p))
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
    (which equals the closed-form height exactly), and the combined
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
        l1 = lq_norm_radial(u, 1.0, n)[0]  # the family's table has kinks the panels leave out
        energy = radial_dirichlet_energy(u, n, p)
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

    val, _, ok = route_quad(u.profile, lambda g, r: g**p * r ** (n - 1 - p), 0.0, u.support_radius, u.kinks)
    weighted = n * omega_n(n) * val
    diag = {"profile": u.label, "weighted_lp": weighted, **unconverged(ok)}
    if not math.isfinite(weighted) or weighted > 1e15:
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
    canonical volume omega_n radius^n.  mu outside the admissible range
    raises before any quadrature runs.
    """
    n = m.dim
    radius = float(radius)
    vol = omega_n(n) * radius**n
    if radius <= 0:
        raise ValueError(f"domain radius must be positive, got {radius}")
    if u.support_radius > radius * (1.0 + 1e-12):
        raise ValueError(
            f"u must be supported in the domain: support {u.support_radius} > radius {radius}"
        )
    a = estimate_avr(m).point
    mu_bar, s_const = bpv_constant(mu, n, a, vol)
    dirichlet = radial_dirichlet_energy(u, n, 2.0)

    def squared(k):  # n omega_n int g^2 r^(n-1-k) dr, and whether it converged
        val, _, ok = route_quad(u.profile, lambda g, r: g**2 * r ** (n - 1 - k), 0.0,
                                u.support_radius, u.kinks)
        return n * omega_n(n) * val, ok

    (l2sq, ok_l2), (hardy_term, ok_hardy) = squared(0), squared(2) if mu != 0.0 else (0.0, True)
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
        vol = r**n * wulff_volume(h)
    else:  # ball
        r = spec["radius"]
        radius = lambda w: np.full(w.shape[:-1], r)
        vol = omega_n(n) * r**n
    return vol, lambda w: radius(w)[..., None] * w


_RADIUS = {"radius": (float, 1.0)}
_AXES = {"a": (float, REQUIRED), "b": (float, REQUIRED)}
# a shape is its descriptor with every key filled in
SHAPES = {
    kind: (partial(dict, kind=kind), keys)
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

    if kind == "rectangle":
        ax, bx = spec["a"], spec["b"]
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        perim = 2.0 * bx * h.dual(e1) + 2.0 * ax * h.dual(e2)
        vol = ax * bx
        diag = {"quadrature": "exact_sides"}
    else:
        vol, boundary = _curved_shape(spec, h, n)
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
# randomized property suites


def _default_hlp_weight(rng, n: int):
    a = float(rng.uniform(0.2, max(0.3, n - 0.2)))
    c = float(rng.uniform(0.0, 0.3))

    def f(r):
        return (np.asarray(r, dtype=float) + c) ** -a

    return f, (a, c)


def _suite_draw(m: FinslerInstance, inequality: str, rng, p, mu) -> InequalityReport:
    n = m.dim
    u = random_decreasing_profile(rng)
    if inequality in ("morrey_support", "morrey_l1"):
        pp = float(p) if p is not None else n + float(rng.uniform(0.5, 3.0))
        check = verify_morrey_support if inequality == "morrey_support" else verify_morrey_l1
        return check(m, u, pp)
    if inequality == "hardy":
        if n < 2:
            raise ValueError("Hardy suite needs n >= 2")
        pp = float(p) if p is not None else 1.0 + (n - 1.0) * float(rng.uniform(0.25, 0.85))
        return verify_hardy(m, u, pp)
    if inequality == "bpv":
        mu_cap = (n - 2.0) ** 2 / 4.0
        mm = float(mu) if mu is not None else float(rng.uniform(0.0, 0.9 * mu_cap)) if n > 2 else 0.0
        return verify_bpv(m, u.support_radius, u, mm)
    if inequality == "polya_szego":
        pp = float(p) if p is not None else float(rng.uniform(1.2, 3.5))
        return polya_szego_check(u, m, pp)
    if inequality == "hlp":
        pp = float(p) if p is not None else float(rng.uniform(1.1, 3.0))
        f, (a, c) = _default_hlp_weight(rng, n)
        rep = hlp_check(u, m, f, pp)
        rep.diagnostics.update({"weight_power": a, "weight_shift": c})
        return rep
    if inequality == "layer_cake":
        r_max = u.support_radius * float(rng.uniform(1.0, 1.5))
        lhs, rhs = layer_cake_integral(m, u.profile, r_max, fprime=u.derivative, points=u.kinks)
        scale = max(1.0, abs(lhs), abs(rhs))
        return make_report(
            "layer_cake", {"n": n, "r_max": r_max}, abs(lhs - rhs), 0.0,
            direction="upper", rtol=0.0, atol=1e-8 * scale,
            diagnostics={"direct": lhs, "layer_cake": rhs, "profile": u.label},
        )
    if inequality == "equimeasurability":
        star = rearrange(u, m)
        gap = equimeasurability_gap(u, m, star)
        vol_scale = max(1.0, omega_n(n) * u.support_radius**n)
        return make_report(
            "equimeasurability", {"n": n}, gap, 0.0,
            direction="upper", rtol=0.0, atol=1e-9 * vol_scale,
            diagnostics={"profile": u.label},
        )
    raise ValueError(f"unknown inequality: {inequality!r}")


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
    if inequality not in INEQUALITIES or inequality == "isoperimetric":
        raise ValueError(f"no randomized suite for {inequality!r}")
    if n_draws < 1:
        raise ValueError(f"a suite needs at least one draw, got {n_draws}")
    reports = []
    for i, rng in enumerate(spawn_rngs(seed, n_draws)):
        rep = _suite_draw(m, inequality, rng, p, mu)
        rep.diagnostics.update({"seed": seed, "draw": i})
        reports.append(rep)
    return reports
