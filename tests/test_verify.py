"""Inequality verification layer: equality cases, sweeps, suites."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import j0, j1, jn_zeros

from finsler_sharp import _util, norms
from finsler_sharp import manifold as M
from finsler_sharp import rearrange as R
from finsler_sharp import verify as V
from finsler_sharp._util import parse_descriptor
from finsler_sharp.constants import (
    bpv_constant,
    eta,
    l1_extremal_height,
    l1_norm_limit,
    morrey_l1_constant,
    morrey_support_constant,
    support_energy_limit,
    talenti_l1_constant,
    talenti_support_constant,
)
from finsler_sharp.manifold import euclidean_instance, instance_from_descriptor, minkowski_instance
from finsler_sharp.norms import lp_norm
from finsler_sharp.rearrange import (
    PROFILES,
    RadialTestFunction,
    _l1_seed_integrand,
    hlp_check,
    l1_extremal_profile,
    morrey_extremal_profile,
    polya_szego_check,
    profile_from_descriptor,
    random_decreasing_profile,
    scale_profile,
)

R_GRID = (1.0, 2.0, 4.0, 8.0)


# -- pointwise checks -------------------------------------------------------


@pytest.mark.parametrize("p,n", [(4.0, 2), (3.0, 2), (5.0, 3)])
def test_support_extremal_attains_equality(p, n, l4_2, e3):
    m = l4_2 if n == 2 else e3
    u = morrey_extremal_profile(p, n, 1.0)
    rep = V.verify_morrey_support(m, u, p)
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, rel=1e-8)
    assert rep.sharp_constant == pytest.approx(morrey_support_constant(p, n, 1.0))
    assert rep.direction == "upper"
    assert rep.params["avr"] == pytest.approx(1.0)


def test_support_generic_profile_strictly_below(e2, rng):
    u = random_decreasing_profile(rng)
    rep = V.verify_morrey_support(e2, u, 4.0)
    assert rep.passed
    assert rep.ratio < 1.0


def test_l1_extremal_attains_equality(e2):
    p = 4.0
    u = l1_extremal_profile(p, 2, 1.0)
    rep = V.verify_morrey_l1(e2, u, p)
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, rel=1e-12)
    assert rep.params["eta"] == pytest.approx(eta(p, 2))


def test_reports_are_scale_invariant(e2, rng):
    u = random_decreasing_profile(rng)
    for check in (V.verify_morrey_support, V.verify_morrey_l1):
        r1 = check(e2, u, 4.0)
        r3 = check(e2, scale_profile(u, 3.0), 4.0)
        assert r3.ratio == pytest.approx(r1.ratio, rel=1e-9)


def test_subcritical_exponent_rejected(e2, rng):
    u = random_decreasing_profile(rng)
    with pytest.raises(ValueError):
        V.verify_morrey_support(e2, u, 2.0)
    with pytest.raises(ValueError):
        V.verify_morrey_l1(e2, u, 1.5)


# -- the AVR comes from the instance ------------------------------------------

def _side(rep):
    return rep.rhs, rep.params["avr"]


_U4 = morrey_extremal_profile(4.0, 2)
# check -> (instance dimension, its reported side and the avr it echoes, the
# exponent k with which that side scales as avr^k)
AVR_SIDES = {
    "morrey_support": (2, lambda m: _side(V.verify_morrey_support(m, _U4, 4.0)), -1.0 / 2.0),
    "morrey_l1": (2, lambda m: _side(V.verify_morrey_l1(m, l1_extremal_profile(4.0, 2), 4.0)),
                  -eta(4.0, 2) / 2.0),
    "sweep_support": (2, lambda m: (V.sharpness_sweep_support(m, 4.0, (1.0, 2.0)).target, None), 1.0),
    "sweep_l1": (2, lambda m: (V.sharpness_sweep_l1(m, 4.0, (1.0, 2.0)).target, None), -eta(4.0, 2) / 2.0),
    "hardy": (3, lambda m: _side(V.verify_hardy(m, V.hardy_test_family(2.0, 3, 0.2), 2.0)), 2.0 / 3.0),
    "polya_szego": (2, lambda m: _side(polya_szego_check(_U4, m, 4.0)), 4.0 / 2.0),
    "bpv": (2, lambda m: _side(V.verify_bpv(m, 1.0, _U4)), 2.0 / 2.0),
    "isoperimetric": (2, lambda m: _side(V.verify_isoperimetric(m, "rectangle:a=2,b=1")), 1.0 / 2.0),
}


def _avr_scaling_gaps(monkeypatch):
    """Relative gap of each check's side on an instance whose AVR reads 0.5
    from the same side at AVR 1 times 0.5^k, and the avr each report echoes."""
    full = {name: run(euclidean_instance(n)) for name, (n, run, _) in AVR_SIDES.items()}
    real = M.avr
    half_avr = lambda m, **kw: dataclasses.replace(real(m, **kw), point=0.5)
    with monkeypatch.context() as mp:
        # each module's binding of manifold.avr
        for module, attr in ((M, "avr"), (V, "estimate_avr"), (R, "avr")):
            mp.setattr(module, attr, half_avr)
        half = {name: run(euclidean_instance(n)) for name, (n, run, _) in AVR_SIDES.items()}
    gaps = {name: abs(half[name][0] / (full[name][0] * 0.5**k) - 1.0)
            for name, (_, _, k) in AVR_SIDES.items()}
    return gaps, {name: echoed for name, (_, echoed) in half.items() if echoed is not None}


def test_every_check_reads_its_avr_from_the_instance(monkeypatch):
    # a smaller volume ratio must move each side by its own power of the AVR
    gaps, echoed = _avr_scaling_gaps(monkeypatch)
    assert {name: gap for name, gap in gaps.items() if not gap <= 1e-12} == {}
    assert set(echoed.values()) == {0.5}


def _support_avr_over_p(p, n, avr):
    return talenti_support_constant(p, n) * avr ** (-1.0 / p)


def _l1_avr_over_n(p, n, avr):
    return talenti_l1_constant(p, n) * avr ** (-1.0 / n)


def _hardy_avr_over_n(p, n, avr):
    return avr ** (1.0 / n) * ((n - p) / p) ** p


def _bpv_avr_over_n(mu, n, avr, vol_omega):
    mu_bar, s = bpv_constant(mu, n, avr, vol_omega)
    return mu_bar, s * avr ** (-1.0 / n)


@pytest.mark.parametrize("attr,defect,red", [
    ("morrey_support_constant", _support_avr_over_p, {"morrey_support"}),
    ("morrey_l1_constant", _l1_avr_over_n, {"morrey_l1", "sweep_l1"}),
    ("hardy_constant", _hardy_avr_over_n, {"hardy"}),
    ("bpv_constant", _bpv_avr_over_n, {"bpv"}),
], ids=["support_avr^(-1/p)", "l1_avr^(-1/n)", "hardy_avr^(1/n)", "bpv_avr^(1/n)"])
def test_wrong_avr_exponent_turns_the_avr_test_red(attr, defect, red, monkeypatch):
    # planted defects: each wrong power of the AVR fails exactly the checks
    # whose side carries that constant
    monkeypatch.setattr(V, attr, defect)
    gaps, _ = _avr_scaling_gaps(monkeypatch)
    assert {name for name, gap in gaps.items() if not gap <= 1e-12} == red


# -- sharpness sweeps -------------------------------------------------------


def test_support_sweep_hits_target(e2, l4_2):
    for m in (e2, l4_2):
        sw = V.sharpness_sweep_support(m, 4.0, R_GRID)
        assert sw.passed
        assert sw.target == pytest.approx(support_energy_limit(4.0, 2, 1.0))
        assert sw.limit == pytest.approx(sw.target, rel=1e-9)
        for row in sw.rows:
            # Minkowski volumes are exact, so every point sits at the limit
            assert row["scaled_energy"] == pytest.approx(sw.target, rel=1e-9)
            assert row["ratio"] == pytest.approx(1.0, rel=1e-9)


def test_l1_sweep_hits_target(e2):
    sw = V.sharpness_sweep_l1(e2, 4.0, R_GRID)
    assert sw.passed
    assert sw.target == pytest.approx(morrey_l1_constant(4.0, 2, 1.0))
    assert sw.limit == pytest.approx(sw.target, rel=1e-5)
    last = sw.rows[-1]
    assert last["scaled_l1"] == pytest.approx(l1_norm_limit(4.0, 2, 1.0), rel=1e-3)
    height = l1_extremal_height(4.0, 2)
    assert all(row["sup_deviation"] <= 1e-9 * height for row in sw.rows)


def test_sweep_rejects_bad_input(e2):
    with pytest.raises(ValueError):
        V.sharpness_sweep_support(e2, 4.0, [])
    with pytest.raises(ValueError):
        V.sharpness_sweep_support(e2, 1.5, R_GRID)
    with pytest.raises(ValueError):
        V.sharpness_sweep_l1(e2, 2.0, R_GRID)


# -- Hardy ------------------------------------------------------------------


def test_hardy_family_approaches_equality(e3):
    ratios = []
    for delta in (0.2, 0.1, 0.05):
        rep = V.verify_hardy(e3, V.hardy_test_family(2.0, 3, delta), 2.0)
        assert rep.passed
        assert rep.direction == "lower"
        assert set(rep.params) == {"p", "n", "avr"}
        ratios.append(rep.ratio)
    # tightening delta drives lhs/rhs down toward 1 without crossing
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_hardy_family_domain(e3):
    with pytest.raises(ValueError):
        V.hardy_test_family(2.0, 3, 0.0)
    with pytest.raises(ValueError):
        V.hardy_test_family(2.0, 3, 0.6)  # >= (n-p)/p


def test_hardy_exponent_domain(e3, rng):
    u = random_decreasing_profile(rng)
    with pytest.raises(ValueError):
        V.verify_hardy(e3, u, 3.0)  # p = n
    with pytest.raises(ValueError):
        V.verify_hardy(e3, u, 1.0)


def test_radial_checks_are_blind_to_normalization():
    # radial energies, norms and rearrangements depend on the dimension only,
    # so the unnormalized l4 plane gives the doubles of the normalized one
    raw = instance_from_descriptor({"kind": "minkowski", "norm": {"kind": "lp", "n": 2, "p": 4}})
    normalized = instance_from_descriptor("lp:n=2,p=4")
    assert not raw.norm.normalized and normalized.norm.normalized
    u = morrey_extremal_profile(4.0, 2)
    checks = (
        lambda m: V.verify_morrey_support(m, u, 4.0),
        lambda m: polya_szego_check(u, m, 4.0),
        lambda m: hlp_check(u, m, lambda r: np.exp(-np.asarray(r, dtype=float)), 2.0),
    )
    for check in checks:
        a, b = check(raw), check(normalized)
        assert math.isfinite(a.rhs) and a.passed
        assert (a.lhs, a.rhs) == (b.lhs, b.rhs)


# -- shifted Poincare bound -------------------------------------------------


def _j0_eigenprofile():
    j01 = float(jn_zeros(0, 1)[0])

    def g(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 1.0, j0(j01 * r), 0.0)

    def dg(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 1.0, -j01 * j1(j01 * r), 0.0)

    return RadialTestFunction(
        profile=g, derivative=dg, support_radius=1.0, label="j0_eigen"
    )


def test_bpv_eigenprofile_attains_equality(e2):
    rep = V.verify_bpv(e2, 1.0, _j0_eigenprofile(), mu=0.0)
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, rel=1e-9)
    assert rep.diagnostics["rayleigh"] == pytest.approx(rep.sharp_constant, rel=1e-9)


def test_bpv_generic_profile_passes_with_slack(e2, rng):
    u = random_decreasing_profile(rng)
    rep = V.verify_bpv(e2, u.support_radius, u, mu=0.0)
    assert rep.passed
    assert rep.ratio > 1.0


def test_bpv_domain_volume_is_canonical_on_every_normalization():
    # the ball of radius 1 has canonical volume pi whatever the norm's scale,
    # so the unnormalized l4 plane gets the normalized one's vol and S
    raw = instance_from_descriptor({"kind": "minkowski", "norm": {"kind": "lp", "n": 2, "p": 4}})
    normalized = instance_from_descriptor("lp:n=2,p=4")
    u = morrey_extremal_profile(4.0, 2)
    for m in (raw, normalized):
        rep = V.verify_bpv(m, 1.0, u)
        assert rep.params["vol"] == math.pi
        assert rep.sharp_constant == 5.783185962946785
        assert rep.passed


def test_bpv_domain_errors(e2, rng):
    u = random_decreasing_profile(rng)
    with pytest.raises(ValueError):
        V.verify_bpv(e2, -1.0, u)
    with pytest.raises(ValueError):
        V.verify_bpv(e2, 0.5 * u.support_radius, u)  # support sticks out


# -- anisotropic isoperimetric ----------------------------------------------


def test_isoperimetric_equality_on_own_ball(e2, l4_2, feps2):
    for m in (e2, l4_2, feps2):
        rep = V.verify_isoperimetric(m, {"kind": "wulff", "radius": 1.0})
        assert rep.passed
        assert rep.ratio == pytest.approx(1.0, abs=1e-3)
        assert rep.diagnostics["equality"]
        assert rep.diagnostics["equality_with_unit_avr"]


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_isoperimetric_planted_dual_scaling_turns_check(monkeypatch, feps2, factor):
    # f_eps has no closed-form dual, so the polygon normals go through the batched ascent
    real = norms.dual_norm
    shapes = []

    def scaled(h, alpha, *args, **kw):
        shapes.append(np.shape(alpha))
        return factor * real(h, alpha, *args, **kw)

    monkeypatch.setattr(norms, "dual_norm", scaled)
    rep = V.verify_isoperimetric(feps2, {"kind": "wulff", "radius": 1.0})
    assert shapes == [(512, 2), (256, 2)]  # fine and coarse polygons, one batch each
    assert rep.ratio == pytest.approx(factor, rel=1e-4)
    if factor < 1.0:
        assert not rep.passed
    else:
        assert rep.passed and not rep.diagnostics["equality"]


def test_isoperimetric_strict_on_other_shapes(e2):
    rect = V.verify_isoperimetric(e2, {"kind": "rectangle", "a": 2.0, "b": 1.0})
    ell = V.verify_isoperimetric(e2, {"kind": "ellipse", "a": 2.0, "b": 1.0})
    for rep in (rect, ell):
        assert rep.passed
        assert rep.ratio > 1.0 + 1e-6
        assert not rep.diagnostics["equality"]


def test_isoperimetric_shape_from_numpy_reals_or_a_string(e2):
    ref = V.verify_isoperimetric(e2, {"kind": "rectangle", "a": 2.0, "b": 1.0}).as_dict()
    for shape in ({"kind": "rectangle", "a": np.float64(2.0), "b": np.float64(1.0)},
                  "rectangle:a=2,b=1"):
        assert V.verify_isoperimetric(e2, shape).as_dict() == ref


def test_isoperimetric_euclidean_ball_3d(e3):
    rep = V.verify_isoperimetric(e3, {"kind": "ball", "radius": 1.0}, n_quad=2048)
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, abs=1e-3)


def test_isoperimetric_wulff_3d(l4_3):
    rep = V.verify_isoperimetric(l4_3, {"kind": "wulff", "radius": 1.5})
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, abs=1e-3)
    assert rep.diagnostics["equality"]


def test_isoperimetric_unit_ellipsoid_is_the_unit_ball(e3):
    ell = V.verify_isoperimetric(e3, "ellipsoid:a=1,b=1,c=1")
    ball = V.verify_isoperimetric(e3, "ball:radius=1")
    assert ell.passed
    assert ell.lhs == pytest.approx(ball.lhs, rel=1e-12)
    assert ell.rhs == pytest.approx(ball.rhs, rel=1e-12)


@pytest.mark.parametrize("a, c", [(1.0, 2.0), (1.5, 0.5)])
def test_isoperimetric_spheroid_area_matches_closed_form(e3, a, c):
    if c > a:  # prolate
        e = math.sqrt(1.0 - (a / c) ** 2)
        area = 2.0 * math.pi * a * a * (1.0 + c * math.asin(e) / (a * e))
    else:  # oblate
        e = math.sqrt(1.0 - (c / a) ** 2)
        area = 2.0 * math.pi * a * a * (1.0 + (1.0 - e * e) / e * math.atanh(e))
    rep = V.verify_isoperimetric(e3, {"kind": "ellipsoid", "a": a, "b": a, "c": c})
    assert rep.passed and rep.ratio > 1.0 + 1e-3
    assert abs(rep.lhs - area) <= 10.0 * rep.diagnostics["quad_error_estimate"]


def test_isoperimetric_needs_normalized_norm():
    raw = minkowski_instance(lp_norm(2, 4.0))
    with pytest.raises(ValueError):
        V.verify_isoperimetric(raw, {"kind": "wulff", "radius": 1.0})


def test_isoperimetric_rejects_bad_shapes(e2):
    with pytest.raises(ValueError):
        V.verify_isoperimetric(e2, {"kind": "torus"})
    with pytest.raises(ValueError):
        V.verify_isoperimetric(e2, "circle")


@pytest.mark.parametrize("shape, n", [("rectangle:a=1,b=2", 3), ("ellipse:a=1,b=2", 3),
                                      ("ellipsoid:a=1,b=2,c=3", 2), ("ball:radius=1", 4)])
def test_isoperimetric_names_an_unsupported_kind_and_dimension(shape, n):
    with pytest.raises(ValueError, match=rf"'{shape.split(':')[0]}' unsupported in dimension {n}"):
        V.verify_isoperimetric(euclidean_instance(n), shape)


ISOPERIMETRIC_BITS = {  # (lhs, rhs, vol, quad_error_estimate).hex() at the default n_quad
    ("l4_2", "rectangle:a=2,b=1"): ("0x1.61731c08f03e6p+2", "0x1.40d931ff62706p+2", "0x1.0000000000000p+1", "0x0.0p+0"),
    ("l4_2", "ball:radius=1.3"): ("0x1.0cb5d66fa6466p+3", "0x1.05616905f83b6p+3", "0x1.53cb6eee291a0p+2", "0x1.9eff582aaaaabp-23"),
    ("l4_2", "wulff:radius=0.7"): ("0x1.197c97f35cc50p+2", "0x1.197c987c952c4p+2", "0x1.8a14d57b373dfp+0", "0x1.1270b82aaaaabp-23"),
    ("l4_2", "ellipse:a=2,b=1"): ("0x1.39dd80f9d2a84p+3", "0x1.1c5831add62e3p+3", "0x1.921fb54442d18p+2", "0x1.e1dc4d2aaaaabp-23"),
    ("feps2", "rectangle:a=2,b=1"): ("0x1.71b9d283ee6cep+2", "0x1.40d931ff62706p+2", "0x1.0000000000000p+1", "0x0.0p+0"),
    ("feps2", "ball:radius=1.3"): ("0x1.06eb57db6472cp+3", "0x1.05616905f83b6p+3", "0x1.53cb6eee291a0p+2", "0x1.b07bcb5daaaabp-15"),
    ("feps2", "wulff:radius=0.7"): ("0x1.197c2054ee27ap+2", "0x1.197c987c952c3p+2", "0x1.8a14d57b373dep+0", "0x1.e09600b780000p-16"),
    ("feps2", "ellipse:a=2,b=1"): ("0x1.35707af4dd3b6p+3", "0x1.1c5831add62e3p+3", "0x1.921fb54442d18p+2", "0x1.fd017a6fd5555p-15"),
    ("l4_3", "ball:radius=1.3"): ("0x1.6281924d76740p+4", "0x1.53cb6eee291a0p+4", "0x1.267d1bdf78f47p+3", "0x1.2e8bb99580000p-13"),
    ("l4_3", "wulff:radius=0.7"): ("0x1.8a153e33c82c0p+2", "0x1.8a14d57b373e0p+2", "0x1.6fcf2da6338f3p+0", "0x1.a2d4ab0bd5555p-16"),
    ("l4_3", "ellipsoid:a=0.5,b=1,c=1.5"): ("0x1.8a5dab497d0e2p+3", "0x1.4bf228a05d904p+3", "0x1.921fb54442d18p+1", "0x1.97d84971f5555p-13"),
    ("feps3", "ball:radius=1.3"): ("0x1.55bfcddf52e9fp+4", "0x1.53cb6eee291a0p+4", "0x1.267d1bdf78f47p+3", "0x1.dc51b55cb0aabp-9"),
    ("feps3", "wulff:radius=0.7"): ("0x1.8a24c1e5d424ep+2", "0x1.8a14d57b373e0p+2", "0x1.6fcf2da6338f3p+0", "0x1.fca7ecec7eaabp-11"),
    ("feps3", "ellipsoid:a=0.5,b=1,c=1.5"): ("0x1.815c943ca0814p+3", "0x1.4bf228a05d904p+3", "0x1.921fb54442d18p+1", "0x1.2000cc1b64000p-8"),
}


@pytest.mark.pinned_build
@pytest.mark.parametrize("instance, shape", ISOPERIMETRIC_BITS)
def test_isoperimetric_bits_are_pinned(request, instance, shape):
    # every shape kind each dimension takes, on a closed-form dual (l4) and an
    # ascent dual (f_eps); the trigonometry and sums are numpy's SIMD loops
    d = V.verify_isoperimetric(request.getfixturevalue(instance), shape).as_dict()
    bits = (d["lhs"], d["rhs"], d["params"]["vol"], d["diagnostics"]["quad_error_estimate"])
    assert tuple(float(x).hex() for x in bits) == ISOPERIMETRIC_BITS[instance, shape]


# -- randomized suites ------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["morrey_support", "morrey_l1", "hardy", "bpv",
     "polya_szego", "hlp", "layer_cake", "equimeasurability"],
)
def test_randomized_suite_all_pass(name, e2):
    reps = V.randomized_suite(e2, name, n_draws=10, seed=11)
    assert len(reps) == 10
    assert all(r.passed for r in reps)
    assert [r.diagnostics["draw"] for r in reps] == list(range(10))
    assert all(r.diagnostics["seed"] == 11 for r in reps)


def test_equimeasurability_draws_build_one_profile_table_each(monkeypatch, e2):
    # rearrange's monotonicity check and the distributions of u and of its
    # rearrangement (u itself) read the one table u keeps
    built = []
    real = R._profile_table
    monkeypatch.setattr(R, "_profile_table", lambda u: built.append(u) or real(u))
    reps = V.randomized_suite(e2, "equimeasurability", n_draws=10, seed=11)
    assert all(r.passed for r in reps)
    assert len(built) == 10 and len({id(u) for u in built}) == 10


def test_suite_with_singular_potential(e3):
    reps = V.randomized_suite(e3, "bpv", n_draws=10, seed=3)
    assert all(r.passed for r in reps)
    assert any(r.params["mu"] > 0 for r in reps)


def test_workers_other_than_one_raise_before_any_draw(monkeypatch, e2):
    # every sample is drawn on one stream; the four entry points that still
    # take workers accept only 1 and refuse any other value before a
    # generator is spawned
    spawned = []
    real = _util.spawn_rngs
    spy = lambda seed, n: spawned.append(n) or real(seed, n)
    monkeypatch.setattr(_util, "spawn_rngs", spy)
    monkeypatch.setattr(V, "spawn_rngs", spy)
    fe = M.f_eps_instance(2, 1.0)
    calls = {
        "randomized_suite": lambda w: V.randomized_suite(e2, "morrey_support", n_draws=1, workers=w),
        "wulff_volume_estimate": lambda w: norms.wulff_volume_estimate(
            fe.norm, method="mc", n_samples=2_000, workers=w),
        "avr": lambda w: M.avr(fe, method="mc", n_samples=2_000, workers=w),
        "ball_volume_mc": lambda w: M.ball_volume_mc(fe, np.zeros(2), 1.0, n_samples=2_000,
                                                     workers=w),
    }
    for name, call in calls.items():
        for workers in (2, 0, None):
            with pytest.raises(ValueError, match="workers must be 1"):
                call(workers)
        assert spawned == [], name
        call(1)
        assert spawned, name
        spawned.clear()


def test_divergent_energy_draws_are_thread_safe(e2):
    # seed 10 draws one profile whose energy quadrature does not converge
    # (a cone kink exponent of -0.991, whose mass below the engine's last
    # node is not negligible), so both sides read inf; the flag comes back
    # from split_quad without touching the process-wide warning filters,
    # so callers may still run checks on threads of their own
    before = list(warnings.filters)
    reps = V.randomized_suite(e2, "polya_szego", n_draws=12, seed=10)
    assert warnings.filters == before
    assert sum(math.isinf(r.lhs) and math.isinf(r.rhs) for r in reps) == 1


def test_suite_rejects_unsupported(e2):
    with pytest.raises(ValueError):
        V.randomized_suite(e2, "isoperimetric", n_draws=2)
    with pytest.raises(ValueError):
        V.randomized_suite(e2, "no_such_bound", n_draws=2)


# float.hex of (lhs, rhs, ratio) of the first three seed-0 draws of every
# suite, pinned from the tanh-sinh engine (_util.panel_quad) and the
# distance-form random-cone derivative, so a rewrite of the profile
# callbacks or of the engine must keep every bit; the normalized l4 plane
# gives the same doubles as e2
SUITE_PINS = {
    "morrey_support": [
        ("0x1.4bd1709935304p+1", "0x1.053ebb2c46356p+2", "0x1.4527fb458dfa4p-1"),
        ("0x1.607b74d0c2851p+1", "0x1.ca103eb39c668p+1", "0x1.89fc98c96e2efp-1"),
        ("0x1.fc4c2e56ce55dp+0", "0x1.31cf3f6f5135dp+1", "0x1.a981da262204ep-1"),
    ],
    "morrey_l1": [
        ("0x1.4bd1709935304p+1", "0x1.67ef9c887d093p+1", "0x1.d800c790bd75bp-1"),
        ("0x1.607b74d0c2851p+1", "0x1.7638ff2898cc4p+1", "0x1.e24165c0c82e7p-1"),
        ("0x1.fc4c2e56ce55dp+0", "0x1.39c64fc6da5cbp+1", "0x1.9eb4b1c4a37efp-1"),
    ],
    "hardy": [
        ("0x1.9292b003506fep+3", "0x1.1e8c17b3e68aap+1", "0x1.67a829d83cd27p+2"),
        ("0x1.61362782d9e29p+3", "0x1.8342c506e8c1bp+1", "0x1.d2fbb51103ae4p+1"),
        ("0x1.7b435c8c851f8p+2", "0x1.2abccd45a358ap+2", "0x1.45016eba1d388p+0"),
    ],
    "bpv": [
        ("0x1.066350880357fp+4", "0x1.fc887774fc1e3p+1", "0x1.082d41628934dp+2"),
        ("0x1.d0d3e82162068p+3", "0x1.9521bb74d7327p+2", "0x1.25b8b3ab745b9p+1"),
        ("0x1.ed49c14b54f54p+2", "0x1.5f0957652af86p+2", "0x1.67bd5bc55a400p+0"),
    ],
    "polya_szego": [
        ("0x1.9e4b49d485b0ep+6", "0x1.9e4b49d485b0ep+6", "0x1.0000000000000p+0"),
        ("0x1.e6bb59153bb1ep+5", "0x1.e6bb59153bb1ep+5", "0x1.0000000000000p+0"),
        ("0x1.7704755e20824p+2", "0x1.7704755e20824p+2", "0x1.0000000000000p+0"),
    ],
    "hlp": [
        ("0x1.2a9238a83894fp+1", "0x1.2a9238a83894fp+1", "0x1.0000000000000p+0"),
        ("0x1.5f51c1d783a44p+3", "0x1.5f51c1d783a44p+3", "0x1.0000000000000p+0"),
        ("0x1.3567f9269b785p+1", "0x1.3567f9269b785p+1", "0x1.0000000000000p+0"),
    ],
    "layer_cake": [
        ("0x1.0000000000000p-51", "0x0.0p+0", "inf"),
        ("0x0.0p+0", "0x0.0p+0", "nan"),
        ("0x1.0000000000000p-51", "0x0.0p+0", "inf"),
    ],
    "equimeasurability": [
        ("0x0.0p+0", "0x0.0p+0", "nan"),
        ("0x0.0p+0", "0x0.0p+0", "nan"),
        ("0x0.0p+0", "0x0.0p+0", "nan"),
    ],
}


@pytest.mark.parametrize("name", list(SUITE_PINS))
def test_suite_draws_keep_their_pinned_bits(name, e2, l4_2):
    for m in (e2, l4_2):
        reps = V.randomized_suite(m, name, n_draws=3, seed=0, workers=1)
        assert [tuple(float(x).hex() for x in (r.lhs, r.rhs, r.ratio)) for r in reps] == SUITE_PINS[name]


def test_unconverged_quadrature_reaches_the_diagnostics(e2):
    # the L1 extremal interpolated on a coarse table whose knots are no kinks
    # of the profile: its panels straddle the knots, so its L1 norm does not
    # converge; the closed-form extremal's and a cone's do, and their reports
    # carry no such key
    exact = l1_extremal_profile(4.0, 2)
    knots = np.linspace(0.0, 1.0, 33)
    table = exact(knots)
    planted = dataclasses.replace(exact, profile=lambda rho: np.interp(rho, knots, table))
    flagged = V.verify_morrey_l1(e2, planted, 4.0)
    assert flagged.diagnostics["unconverged_quadrature"] is True
    for rep in (V.verify_morrey_l1(e2, exact, 4.0), V.verify_morrey_l1(e2, R.cone_profile(), 4.0),
                V.verify_hardy(e2, R.cone_profile(), 1.5),
                V.verify_bpv(e2, 1.0, R.cone_profile()), R.hlp_check(R.cone_profile(), e2, lambda r: np.exp(-r), 2.0)):
        assert "unconverged_quadrature" not in rep.diagnostics


# draws with a non-finite side among 60 seed-0 draws on (euclidean:n=2,
# euclidean:n=3); QAGS left 8/11, 8/11, 2/3 and 0/1, most of them finite
# integrals with a cone kink exponent in (-1, 0)
VACUOUS_BOUNDS = {"morrey_support": (1, 6), "morrey_l1": (1, 6), "polya_szego": (0, 0), "hardy": (0, 0)}


@pytest.mark.parametrize("name", list(VACUOUS_BOUNDS))
def test_vacuous_draws_stay_few(name, e2, e3):
    counts = tuple(sum(not (math.isfinite(r.lhs) and math.isfinite(r.rhs))
                       for r in V.randomized_suite(m, name, n_draws=60, seed=0)) for m in (e2, e3))
    assert all(c <= bound for c, bound in zip(counts, VACUOUS_BOUNDS[name])), counts


# one case of every rearrange.PROFILES family the cases above leave out
CALLBACK_FAMILY_CASES = [
    "talenti_l1_extremal:p=4,n=2,R=1.3",
    "talenti_l1_extremal:p=7.5,n=3,R=0.6",
    "u_R:p=5,n=3,R=0.9,family=l1",
    "cone:R=1.2,height=0.8",
    "plateau:inner=0.4,R=1.1,height=1.5",
    {"kind": "table", "rhos": [0.0, 0.3, 0.9, 1.4], "values": [1.0, 0.8, 0.2, 0.0]},
]


# one case of every rearrange.PROFILES family
PROFILE_CASES = ["morrey_extremal:p=7.5,n=3,R=0.6", *CALLBACK_FAMILY_CASES]


def test_callback_cases_cover_every_profile_family():
    kinds = {parse_descriptor(d)["kind"] for d in CALLBACK_FAMILY_CASES}
    assert kinds | {"morrey_extremal"} == set(PROFILES)
    assert {parse_descriptor(d)["kind"] for d in PROFILE_CASES} == set(PROFILES)


def _callback_cases():
    """(callbacks, radius from which they vanish, kinks, whether a 0-d input
    gives the array's bits) of the profile families, two Hardy families, the
    L1 extremal's seed and four suite hlp weights, which never vanish."""
    radial = [
        morrey_extremal_profile(4.0, 2, 1.3),
        morrey_extremal_profile(7.5, 3, 0.6),  # b - 1 < -0.8: dg is singular at 0
        *(random_decreasing_profile(np.random.default_rng(k)) for k in range(4)),
        *(profile_from_descriptor(d) for d in CALLBACK_FAMILY_CASES),
        V.hardy_test_family(2.0, 3, 0.2),
        V.hardy_test_family(1.5, 3, 0.1, cap_radius=0.05),
    ]
    # numpy's scalar power and its array loop may round apart by an ulp
    ulp_apart = ("morrey_extremal", "l1_extremal", "hardy_family")
    cases = [pytest.param((u.profile, u.derivative), u.support_radius, u.kinks,
                          not u.label.startswith(ulp_apart), id=u.label) for u in radial]
    for p, n in ((4.0, 2), (7.5, 3)):
        cases.append(pytest.param((_l1_seed_integrand(p, n),), 1.0, (), False, id=f"l1_seed(p={p},n={n})"))
    for k in range(4):
        f, (a, c) = V._default_hlp_weight(np.random.default_rng(k), 2 + k % 2)
        cases.append(pytest.param((f,), math.inf, (), False, id=f"hlp_weight(a={a:.3f},c={c:.3f})"))
    return cases


@pytest.mark.parametrize("fs,r,kinks,exact", _callback_cases())
def test_profile_callbacks_agree_on_0d_and_array_input_without_warnings(fs, r, kinks, exact):
    x = r if math.isfinite(r) else 2.0
    pts = np.r_[0.0, kinks, 1.5 * x, np.linspace(0.0, 1.2 * x, 97)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in fs:
            batch = f(pts)
            single = np.array([f(np.asarray(y)) for y in pts])
            assert np.shape(f(np.asarray(0.5 * x))) == ()
            if exact:
                assert np.array_equal(batch, single)
            else:
                np.testing.assert_allclose(batch, single, rtol=5e-16, atol=5e-16)
            assert np.all(np.isfinite(batch)) and np.all(batch[pts >= r] == 0.0)


def _float_input_cases():
    """(callback, radii as Python floats) for every profile family, random
    cones, a scaled cone, two Hardy families, two L1 extremal seeds and four
    suite hlp weights."""
    radial = [
        *(profile_from_descriptor(d) for d in PROFILE_CASES),
        *(random_decreasing_profile(np.random.default_rng(k)) for k in range(8)),
        scale_profile(random_decreasing_profile(np.random.default_rng(8)), 3.0),
        V.hardy_test_family(2.0, 3, 0.2),
        V.hardy_test_family(1.5, 3, 0.1, cap_radius=0.05),
    ]
    cases = []
    for u in radial:
        r = u.support_radius
        pts = [0.0, *u.kinks, r, 1.5 * r, *np.linspace(0.0, 1.2 * r, 25)[1:]]
        for tag, f in (("g", u.profile), ("dg", u.derivative)):
            cases.append(pytest.param(f, [float(x) for x in pts], id=f"{u.label}-{tag}"))
    pts = [0.0, 0.5, 1.0, 1.5, *np.linspace(0.0, 1.2, 25)[1:]]
    for p, n in ((4.0, 2), (7.5, 3)):
        cases.append(pytest.param(_l1_seed_integrand(p, n), pts, id=f"l1_seed(p={p},n={n})"))
    for k in range(4):
        f, (a, c) = V._default_hlp_weight(np.random.default_rng(k), 2 + k % 2)
        cases.append(pytest.param(f, pts, id=f"hlp_weight(a={a:.3f},c={c:.3f})"))
    return cases


@pytest.mark.parametrize("f,pts", _float_input_cases())
def test_float_route_gives_the_0d_bits_without_warnings(f, pts):
    # a Python float radius, as layer_cake_integral's f(r_max) passes one,
    # gives a scalar with the doubles of the same radius as a 0-d array,
    # and raises nothing where numpy would only warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in pts:
            y = f(x)
            assert np.shape(y) == (), (x, type(y))
            assert float(y).hex() == float(f(np.asarray(x))).hex(), x


@pytest.mark.parametrize("check", [V.verify_morrey_support, V.verify_morrey_l1])
def test_sup_norm_checks_reject_unknown_representation(e2, check):
    with pytest.raises(TypeError, match="unsupported function representation"):
        check(e2, np.ones(4), 4.0)


def test_divergent_energy_is_flagged_vacuous(e2):
    # profile with infinite p-energy near the edge: u = (1 - rho)^(1/8)
    def g(rho):
        rho = np.asarray(rho, dtype=float)
        return np.clip(1.0 - rho, 0.0, None) ** 0.125

    def dg(rho):
        rho = np.asarray(rho, dtype=float)
        inner = -0.125 * np.clip(1.0 - rho, 1e-300, None) ** -0.875
        return np.where((rho > 0) & (rho < 1.0), inner, 0.0)

    u = RadialTestFunction(profile=g, derivative=dg, support_radius=1.0,
                           kinks=(1.0,), label="edge_cusp")
    rep = V.verify_morrey_support(e2, u, 16.0)
    if rep.diagnostics.get("divergent_energy"):
        assert rep.passed and math.isinf(rep.rhs)
    else:
        assert rep.passed
