import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from finsler_sharp import rearrange as R
from finsler_sharp import verify as V
from finsler_sharp._util import split_quad
from finsler_sharp.constants import (
    l1_energy_limit,
    l1_extremal_height,
    l1_norm_limit,
    omega_n,
    support_energy_limit,
)


def test_cone_profile_basics():
    u = R.cone_profile(radius=1.0, height=1.0)
    assert u.sup() == 1.0
    assert u(0.5) == pytest.approx(0.5)
    assert u(1.0) == 0.0
    assert u(2.0) == 0.0
    assert u.derivative(0.3) == -1.0


def test_cone_l1_closed_form(e2):
    # 2 pi int_0^1 (1 - rho) rho drho = pi/3
    u = R.cone_profile()
    assert R.lq_norm_radial(u, 1.0, 2) == (pytest.approx(math.pi / 3.0, rel=1e-10), True)


def test_plateau_lq_closed_form():
    u = R.plateau_profile(inner=0.5, radius=1.0, height=2.0)
    # n=3: 4 pi [ h^q r^2 on [0,.5] + (h(1-rho)/.5)^q r^2 on [.5,1] ]
    q = 2.0
    inner = 4.0 * math.pi * (2.0**q) * 0.5**3 / 3.0
    from scipy.integrate import quad
    outer = 4.0 * math.pi * quad(lambda r: (2.0 * (1 - r) / 0.5) ** q * r * r, 0.5, 1.0)[0]
    norm, converged = R.lq_norm_radial(u, q, 3)
    assert converged and norm**q == pytest.approx(inner + outer, rel=1e-9)


def test_morrey_extremal_energy_matches_limit(e2):
    # the distinguished profile's scaled energy equals its closed-form limit
    for p, n in ((4.0, 2), (5.0, 3)):
        u = R.morrey_extremal_profile(p, n)
        e = R.radial_dirichlet_energy(u, n, p)
        assert e == pytest.approx(support_energy_limit(p, n, 1.0), rel=1e-9)


def test_morrey_extremal_scaling():
    p, n = 4.0, 2
    u1 = R.morrey_extremal_profile(p, n, radius=1.0)
    u2 = R.morrey_extremal_profile(p, n, radius=2.0)
    e1 = R.radial_dirichlet_energy(u1, n, p)
    e2_ = R.radial_dirichlet_energy(u2, n, p)
    # energy scales as R^(n-p)
    assert e2_ == pytest.approx(e1 * 2.0 ** (n - p), rel=1e-8)
    # the family keeps unit height at every radius
    assert u1.sup() == pytest.approx(1.0) and u2.sup() == pytest.approx(1.0)


def test_l1_extremal_against_beta_targets():
    for p, n in ((4.0, 2), (5.0, 3)):
        u = R.l1_extremal_profile(p, n)
        assert u.sup() == pytest.approx(l1_extremal_height(p, n), rel=1e-9)
        # the closed-form profile is smooth inside its support: the norm converges at roundoff
        assert R.lq_norm_radial(u, 1.0, n) == (pytest.approx(l1_norm_limit(p, n, 1.0), rel=1e-12), True)
        assert R.radial_dirichlet_energy(u, n, p) == pytest.approx(
            l1_energy_limit(p, n, 1.0), rel=1e-6)


@pytest.mark.parametrize("n, p", [(2, 4.0), (3, 5.0), (4, 7.0), (2, 100.0)])
def test_l1_extremal_against_mpmath_incomplete_beta(n, p):
    # g(rho) = (1/n) B(a, p') I_c((rho/R)^n; a, p'), a = (p-n)/(n(p-1)) and
    # p' = p/(p-1), at 40 digits: near the centre, in the middle and near R
    radius = 1.3
    u = R.l1_extremal_profile(p, n, radius)
    with mp.workdps(40):
        a, pp = mp.mpf(p - n) / (n * (p - 1)), mp.mpf(p) / (p - 1)
        height = mp.beta(a, pp) / n
        for rho in (1e-9 * radius, 0.5 * radius, (1.0 - 1e-6) * radius):
            t = (mp.mpf(rho) / mp.mpf(radius)) ** n
            ref = height * mp.betainc(a, pp, t, 1, regularized=True)
            assert abs(float(u(rho)) - float(ref)) <= 2e-15 * float(height)


def test_scale_profile_homogeneity(e2):
    u = R.cone_profile()
    v = R.scale_profile(u, 3.0)
    assert v.sup() == pytest.approx(3.0)
    assert R.lq_norm_radial(v, 1.0, 2) == (pytest.approx(math.pi, rel=1e-10), True)
    assert R.radial_dirichlet_energy(v, 2, 4.0) == pytest.approx(
        81.0 * R.radial_dirichlet_energy(u, 2, 4.0), rel=1e-9)
    with pytest.raises(ValueError):
        R.scale_profile(u, 0.0)


def test_table_profile_interpolates():
    u = R.table_profile([0.0, 0.5, 1.0], [2.0, 1.0, 0.0])
    assert u(0.25) == pytest.approx(1.5)
    assert u.support_radius == 1.0
    # exact slopes, the right-hand one at a node, 0 from the support radius on
    assert u.derivative(np.array([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])).tolist() == [
        -2.0, -2.0, -2.0, -2.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        R.table_profile([0.0, 1.0], [1.0, 2.0])  # increasing
    # a table that starts above 0 is flat before its first radius, a kink
    u = R.table_profile([0.5, 1.0], [1.0, 0.0])
    assert u.kinks == (0.5,)
    assert u(np.array([0.0, 0.25, 0.75])).tolist() == [1.0, 1.0, 0.5]
    assert u.derivative(np.array([0.0, 0.25, 0.5, 0.75, 1.0])).tolist() == [
        0.0, 0.0, -2.0, -2.0, 0.0]


@pytest.mark.parametrize("rhos,values", [
    ([], []),
    ([0.0], [0.0]),
    ([0.0, 0.5, 1.0], [1.0, 0.0]),  # one value short
    ([0.0, 1.0], [1.0, 0.5, 0.0]),  # one value over
    ([[0.0, 1.0]], [[1.0, 0.0]]),  # not a list of numbers
    ([-0.5, 1.0], [1.0, 0.0]),  # negative radius
    ([0.0, math.inf], [1.0, 0.0]),
    ([0.0, math.nan], [1.0, 0.0]),
    ([0.0, 1.0], [math.nan, 0.0]),
    ([0.0, 1.0], [math.inf, 0.0]),
])
def test_malformed_table_is_refused_when_built(rhos, values):
    with pytest.raises(ValueError):
        R.table_profile(rhos, values)


# tables with their closed-form energies omega_n sum |s_i|^p (r_{i+1}^n - r_i^n)
ENERGY_TABLES = [
    ([0.0, 0.3, 0.9, 1.4], [1.0, 0.8, 0.2, 0.0]),
    ([0.5, 1.0], [1.0, 0.0]),
    ([0.0, 0.5, 1.0], [2.0, 1.0, 0.0]),
]


@pytest.mark.parametrize("rhos,values", ENERGY_TABLES)
@pytest.mark.parametrize("n,p", [(2, 4.0), (3, 5.0), (2, 1.5)])
def test_table_energy_matches_its_closed_form(rhos, values, n, p):
    r, v = np.array(rhos), np.array(values)
    slopes = np.diff(v) / np.diff(r)
    exact = omega_n(n) * float(np.sum(np.abs(slopes) ** p * np.diff(r**n)))
    energy = R.radial_dirichlet_energy(R.table_profile(rhos, values), n, p)
    assert abs(energy / exact - 1.0) <= 1e-12


def test_profile_from_descriptor():
    u = R.profile_from_descriptor({"kind": "cone", "R": 1.0, "height": 2.0})
    assert u.sup() == 2.0
    u = R.profile_from_descriptor({"kind": "morrey_extremal", "p": 4.0, "n": 2})
    assert u.support_radius == 1.0
    with pytest.raises(ValueError):
        R.profile_from_descriptor({"kind": "spiral"})
    assert R.profile_from_descriptor("u_R:p=5,n=2,family=l1").label == R.l1_extremal_profile(5.0, 2).label
    with pytest.raises(ValueError, match="banana"):
        R.profile_from_descriptor("u_R:p=5,n=2,family=banana")


def test_distribution_cone_exact(e2):
    u = R.cone_profile()
    levels = np.array([0.0, 0.25, 0.6, 0.99, 1.0, 1.7])
    mu = R.distribution(u, e2, levels=levels)
    # {u > t} is the ball of radius 1 - t, and empty from the sup on
    assert mu.values[:4] == pytest.approx(math.pi * (1.0 - levels[:4]) ** 2, rel=1e-9)
    assert np.all(mu.values[4:] == 0.0)


def test_distribution_right_continuous_at_plateau(e2):
    u = R.plateau_profile(inner=0.5, radius=1.0, height=1.0)
    levels = np.concatenate(([1.0, 1.0 - 1e-9], np.linspace(0.0, 1.0, 64)))
    mu = R.distribution(u, e2, levels=levels)
    # at the plateau level the superlevel set collapses to the open core
    assert mu.values[0] == 0.0
    assert mu.values[1] == pytest.approx(math.pi * 0.25, rel=1e-6)
    assert np.all(np.diff(mu.values[2:]) <= 1e-12)


def test_rearrange_radial_passthrough(e2):
    # a radial nonincreasing source is its own rearrangement
    u = R.cone_profile()
    assert R.rearrange(u, e2) is u


def _ramp():
    return R.RadialTestFunction(profile=lambda r: np.minimum(r, 1.0) * (r < 2.0),
                                derivative=lambda r: np.where(r < 1.0, 1.0, 0.0),
                                support_radius=2.0, label="ramp")


def test_rearrange_rejects_increasing_radial(e2):
    with pytest.raises(ValueError):
        R.rearrange(_ramp(), e2)


def test_lq_norms_bundle(e2):
    # the staircase of the profile's volume-coordinate table is an
    # independent upper sum of ||u||_q, since each step takes the value at
    # its left end
    u = R.cone_profile()
    rho, gv = R._profile_table(u)
    for q in (1.0, 2.0):
        a, converged = R.lq_norm_radial(u, q, 2)
        assert converged
        stair = np.sum(gv[:-1] ** q * np.diff(omega_n(2) * rho**2)) ** (1.0 / q)
        assert a <= stair <= a * (1.0 + 2e-3)


def test_layer_cake_smooth(e2):
    lhs, rhs = R.layer_cake_integral(e2, lambda r: np.exp(-r * r), 3.0,
                                     fprime=lambda r: -2.0 * r * np.exp(-r * r))
    assert lhs == pytest.approx(rhs, rel=1e-9)
    # exact value: 2 pi int_0^3 e^{-r^2} r dr = pi (1 - e^-9)
    assert lhs == pytest.approx(math.pi * (1.0 - math.exp(-9.0)), rel=1e-10)


def test_layer_cake_singular_weight(e3):
    # f(r) = r^(-a) with a < n stays integrable; quadrature splits at 0
    a = 1.5
    lhs, rhs = R.layer_cake_integral(
        e3, lambda r: r ** (-a), 2.0,
        fprime=lambda r: -a * r ** (-a - 1.0), points=(1e-6,))
    assert lhs == pytest.approx(rhs, rel=1e-6)
    exact = 3.0 * omega_n(3) * 2.0 ** (3 - a) / (3 - a)
    assert lhs == pytest.approx(exact, rel=1e-8)


def test_polya_szego_radial_equality(e2):
    u = R.morrey_extremal_profile(4.0, 2)
    rep = V.polya_szego_check(e2, u, 4.0)
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, rel=1e-8)


def test_radial_checks_integrate_once(e2, monkeypatch):
    # a radial source is its own rearrangement, so each check takes its one
    # integral once and both sides carry the same bits
    calls = {"energy": 0, "quad": 0}
    energy, quad = R.radial_dirichlet_energy, R.route_quad

    def counted_energy(*args):
        calls["energy"] += 1
        return energy(*args)

    def counted_quad(*args, **kwargs):
        calls["quad"] += 1
        return quad(*args, **kwargs)

    monkeypatch.setattr(V, "radial_dirichlet_energy", counted_energy)
    monkeypatch.setattr(R, "route_quad", counted_quad)
    u = R.plateau_profile(inner=0.4, radius=1.2, height=1.5)
    rep = V.polya_szego_check(e2, u, 2.5)
    assert calls == {"energy": 1, "quad": 1} and rep.ratio == 1.0
    calls["quad"] = 0
    rep = V.hlp_check(e2, u, lambda r: np.exp(-r), 2.0)
    assert calls["quad"] == 1 and rep.ratio == 1.0


def test_hlp_gaussian_weight(e2):
    u = R.cone_profile()
    rep = V.hlp_check(e2, u, lambda r: np.exp(-0.5 * r * r), 2.0)
    assert rep.passed
    # centered profile: both sides coincide
    assert rep.ratio == pytest.approx(1.0, rel=1e-7)


def test_hlp_divergent_weight_is_vacuous(e3):
    # weight exponent >= n makes both sides blow up; report flags it
    u = R.plateau_profile(inner=0.4, radius=1.0, height=1.0)
    rep = V.hlp_check(e3, u, lambda r: r ** (-3.2), 2.0)
    assert rep.passed
    assert rep.diagnostics.get("diverged")


def test_hlp_vacuous_reports_keep_one_shape(e3):
    # a weight exponent >= n is caught before the quadrature and comes back
    # as a vacuous report; a huge finite weight is no divergence, only a
    # multiple of the same integral at the unit weight
    u = R.plateau_profile(inner=0.4, radius=1.0, height=1.0)
    rep = V.hlp_check(e3, u, lambda r: r ** (-3.2), 2.0)
    assert rep.passed and math.isinf(rep.lhs) and math.isinf(rep.rhs)
    assert rep.params == {"p": 2.0, "n": 3, "profile": "plateau"}
    assert rep.diagnostics["diverged"]
    huge, unit = (V.hlp_check(e3, u, lambda r: c * np.exp(-r), 2.0) for c in (1e20, 1.0))
    assert huge.passed and huge.lhs == huge.rhs == pytest.approx(1e20 * unit.lhs, rel=1e-14)
    assert huge.params == {"p": 2.0, "n": 3, "profile": "plateau"}
    assert "diverged" not in huge.diagnostics


def test_random_decreasing_profile_properties(rng):
    for _ in range(20):
        u = R.random_decreasing_profile(rng)
        rho = np.linspace(0.0, u.support_radius, 257)
        vals = np.asarray(u(rho), dtype=float)
        assert np.all(np.diff(vals) <= 1e-9 * max(1.0, vals[0]))
        assert vals[-1] == pytest.approx(0.0, abs=1e-12)
        assert u(u.support_radius * 1.5) == 0.0
        assert u.sup() > 0


# -- level inversion and the equimeasurability gap ----------------------------


def _bisect_level_radius(u, t):
    """sup {rho : g(rho) > t} by bisection on the profile itself."""
    g = lambda r: float(u.profile(np.asarray(r)))
    if not g(0.0) > t:
        return 0.0
    if g(u.support_radius) > t:
        return u.support_radius
    lo, hi = 0.0, u.support_radius
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > t:
            lo = mid
        else:
            hi = mid
    return lo


def _loop_level_radii(u, levels):
    """The per-level loop the table inversion replaced, kept as a reference:
    the same arithmetic per level, so results must agree bit for bit."""
    rho = R.graded_grid(0.0, u.support_radius, R.PROFILE_GRID + 1, exponent=1.6)
    gv = np.asarray(u.profile(rho), dtype=float)
    k = len(gv) - np.searchsorted(gv[::-1], levels, side="right") - 1
    radii = np.empty(len(levels))
    for i, (t, kk) in enumerate(zip(levels, k)):
        if kk < 0:
            radii[i] = 0.0
        elif kk >= len(gv) - 1:
            radii[i] = u.support_radius
        else:
            g0, g1 = gv[kk], gv[kk + 1]
            frac = (g0 - t) / (g0 - g1) if g0 > g1 else 1.0
            radii[i] = rho[kk] + (rho[kk + 1] - rho[kk]) * min(max(frac, 0.0), 1.0)
    return radii


def _probe_levels(u, rng):
    sup = u.sup()
    return np.concatenate(([-0.3, 0.0], rng.uniform(0.0, sup, 40), [sup, 1.5 * sup]))


def _check_level_radii(u, levels):
    with np.errstate(all="raise"):  # the flat-top cells must not divide by zero
        radii = R._radial_level_radii(u, levels)
    assert np.array_equal(radii, _loop_level_radii(u, levels))
    ref = np.array([_bisect_level_radius(u, t) for t in levels])
    # both radii lie in the table cell that brackets the level
    rho = R.graded_grid(0.0, u.support_radius, R.PROFILE_GRID + 1, exponent=1.6)
    cell = np.clip(np.searchsorted(rho, ref), 1, len(rho) - 1)
    width = rho[cell] - rho[cell - 1]
    assert np.all(np.abs(radii - ref) <= width + 1e-12)
    return radii, ref


def test_level_radii_match_bisection_on_random_profiles(rng):
    for _ in range(12):
        u = R.random_decreasing_profile(rng)
        levels = _probe_levels(u, rng)
        radii, _ = _check_level_radii(u, levels)
        assert radii[0] == u.support_radius  # t < 0: every point is above
        assert radii[1] == u.support_radius  # t = 0: the open support
        assert radii[-2] == 0.0 and radii[-1] == 0.0  # t >= sup: empty


def test_level_radii_exact_on_cone(rng):
    u = R.cone_profile(radius=1.3, height=2.0)
    levels = _probe_levels(u, rng)
    radii, ref = _check_level_radii(u, levels)
    # a linear profile is inverted exactly by the linear interpolation
    assert radii == pytest.approx(ref, abs=1e-12)


def test_level_radii_on_plateau_flat_top(rng):
    u = R.plateau_profile(inner=0.5, radius=1.0, height=1.0)
    levels = np.concatenate((_probe_levels(u, rng), [1.0 - 1e-12, 0.5]))
    radii, _ = _check_level_radii(u, levels)
    assert radii[-1] == pytest.approx(0.75, abs=1e-12)  # on the linear ramp
    assert 0.5 <= radii[-2] <= 0.5 + 1e-3  # just below the plateau height


def test_equimeasurability_gap_rejects_non_monotone_profile(e2):
    good = R.rearrange(R.cone_profile(), e2)
    with pytest.raises(ValueError, match="nonincreasing"):
        R.equimeasurability_gap(_ramp(), e2, good)
    with pytest.raises(ValueError, match="nonincreasing"):
        R.equimeasurability_gap(R.cone_profile(), e2, _ramp())


def test_equimeasurability_gap_sees_a_scaled_profile(e2, rng):
    # planted defect: a 1% taller rearrangement is not equimeasurable
    for _ in range(5):
        u = R.random_decreasing_profile(rng)
        star = R.rearrange(R.scale_profile(u, 1.01), e2)
        tolerance = 1e-9 * max(1.0, omega_n(2) * u.support_radius**2)
        assert R.equimeasurability_gap(u, e2, star) > 1e3 * tolerance


# -- quadrature convergence flags ----------------------------------------------


def test_split_quad_reports_divergence_without_warning_filters():
    # r^-1 and r^-1.5 diverge at the origin: the flag says so, with no
    # RuntimeWarning from the overflowing nodes and the filters untouched
    before = list(warnings.filters)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = list(warnings.filters)
        for e in (-1.0, -1.5):
            val, err, converged = split_quad(lambda r: r**e, 0.0, 1.0, points=(0.5,))
            assert not converged
        val, err, converged = split_quad(lambda r: np.exp(-r), 0.0, 2.0, points=(1.0,))
        assert warnings.filters == inside
    assert warnings.filters == before
    assert converged and err < 1e-12
    assert val == pytest.approx(1.0 - math.exp(-2.0), rel=1e-15)


@pytest.mark.parametrize("e", [-0.5, -0.9, -0.95])
def test_split_quad_integrates_origin_powers(e):
    # int_0^1 r^e dr = 1/(e+1): the nodes reach r ~ 1e-275, where the
    # truncated mass of r^-0.95 is below 1e-13 of the integral
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err, converged = split_quad(lambda r: r**e, 0.0, 1.0)
    assert converged and val == pytest.approx(1.0 / (e + 1.0), rel=1e-13)


@pytest.mark.parametrize("c", [1.0, 1e-13])
def test_split_quad_keeps_non_finite_runs_beside_mass(c):
    # 1 + c r^-0.99 made infinite at its outermost nodes, r < 1e-200, a run
    # of two or more: the finite neighbour carries c 1e-2 of mass there, far
    # above 1e-17 of the sum, so the dropped run leaves the integral
    # unconverged even where (c = 1e-13) the levels agree to the tolerance
    def fn(r):
        return np.where((r.end == 0.0) & (r.off < 1e-200), np.inf, 1.0 + c * r**-0.99)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err, converged = split_quad(fn, 0.0, 1.0)
    assert not converged


class _OneCone:
    """A generator stand-in under which random_decreasing_profile draws one
    power cone of the given radius, coefficient and power."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def integers(self, low, high):
        return 1

    def uniform(self, low, high, size):
        return np.full(size, next(self.draws))


@pytest.mark.parametrize("e", [-0.79, -0.58, -0.38, 0.5])
def test_power_cone_energy_against_beta(e):
    # g = c (1 - r/R)^k has |g'| = s (1 - r/R)^(k-1) with s = c k / R, so
    # int_0^R |g'|^p r^(n-1) dr = s^p R^n B(n, e+1) at the kink exponent
    # e = (k-1) p: the derivative has to see the distance to the kink R
    # exactly, which r = R - d rounds away near R
    from scipy.special import beta

    n, p, radius, coef = 2, 3.0, 1.3, 0.9
    power = 1.0 + e / p
    u = R.random_decreasing_profile(_OneCone(radius, coef, power))
    assert u.kinks == (radius,)
    slope = coef * power / radius
    exact = n * omega_n(n) * slope**p * radius**n * beta(n, e + 1.0)
    assert R.radial_dirichlet_energy(u, n, p) == pytest.approx(exact, rel=1e-13)


def test_layer_cake_warns_once_on_divergence(e2):
    with pytest.warns(IntegrationWarning) as record:
        R.layer_cake_integral(e2, lambda r: r**-3.0, 1.0,
                              fprime=lambda r: -3.0 * r**-4.0)
    assert sum(issubclass(w.category, IntegrationWarning) for w in record) == 1
