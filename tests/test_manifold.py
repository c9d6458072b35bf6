import math

import numpy as np
import pytest

from finsler_sharp import manifold as M
from finsler_sharp._util import box_volume, spawn_rngs
from finsler_sharp.constants import omega_n
from finsler_sharp.norms import lp_norm, normalize


def test_instance_from_descriptor():
    m = M.instance_from_descriptor({"kind": "euclidean", "n": 3})
    assert m.kind == "euclidean" and m.dim == 3
    m = M.instance_from_descriptor(
        {"kind": "minkowski", "n": 2, "norm": {"kind": "lp", "n": 2, "p": 4.0, "normalize": True}})
    assert m.kind == "minkowski" and m.norm.normalized
    m = M.instance_from_descriptor({"kind": "f_eps", "n": 3, "eps": 1.0})
    assert m.kind == "f_eps" and m.eps == 1.0
    with pytest.raises(ValueError):
        M.instance_from_descriptor({"kind": "hyperbolic", "n": 2})


def test_triangle_inequality_random(e3, rng):
    # the distance of every shipped instance is its norm of the difference
    d = lambda x, y: float(e3.norm(y - x))
    for _ in range(50):
        a, b, c = rng.standard_normal((3, 3))
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-12


def test_bh_density_euclidean_is_one(e2):
    assert M.bh_density(e2) == pytest.approx(1.0, rel=1e-12)


def test_bh_density_normalized_is_one(l4_2):
    # normalized instances have unit-ball volume omega_n by construction
    assert M.bh_density(l4_2) == pytest.approx(1.0, rel=1e-9)


def test_bh_density_unnormalized_l4():
    m = M.minkowski_instance(lp_norm(2, 4.0))
    vol = lp_norm(2, 4.0).analytic_volume
    assert M.bh_density(m) == pytest.approx(omega_n(2) / vol, rel=1e-12)


def test_ball_volume_is_euclidean_growth(l4_2, feps2):
    # canonical measure makes every metric ball volume omega_n r^n
    for m in (l4_2, feps2):
        for r in (0.5, 1.0, 2.0):
            assert M.ball_volume(m, r) == pytest.approx(
                omega_n(2) * r**2, rel=1e-12)
    with pytest.raises(ValueError):
        M.ball_volume(l4_2, 0.0)


def test_ball_volume_mc_consistent(l4_2):
    est = M.ball_volume_mc(l4_2, np.zeros(2), 1.5, n_samples=200_000, seed=1)
    exact = M.ball_volume(l4_2, 1.5)
    assert abs(est.value - exact) <= 4.0 * est.stderr
    assert est.stderr > 0


def test_ball_volume_mc_seeded():
    m = M.f_eps_instance(2, 1.0)
    a = M.ball_volume_mc(m, np.zeros(2), 1.0, n_samples=50_000, seed=9)
    b = M.ball_volume_mc(m, np.zeros(2), 1.0, n_samples=50_000, seed=9)
    assert a.value == b.value


def test_ball_volume_curve_and_bishop_gromov(e2):
    curve = M.ball_volume_curve(e2, [1.0, 2.0, 4.0], n_samples=80_000, seed=3)
    assert M.bishop_gromov_ok(curve, 2)
    ratios = curve.ratios(2)
    # flat space: ratios hover at 1 within a few standard errors
    assert np.all(np.abs(ratios - 1.0) <= 5.0 * curve.ratio_stderrs(2) + 1e-12)
    with pytest.raises(ValueError):
        M.ball_volume_curve(e2, [2.0, 1.0], n_samples=1000)


def test_avr_exact_paths(e2, l4_2):
    for m in (e2, l4_2):
        est = M.avr(m)
        assert est.point == 1.0 and est.method == "exact" and est.bg_ok
    fe = M.f_eps_instance(3, 2.0)
    est = M.avr(fe)
    assert est.lo == pytest.approx(3.0 ** (-1.5), rel=1e-12)
    assert est.hi == 1.0


def test_avr_mc_f_eps_interval():
    fe = M.f_eps_instance(2, 0.5)
    est = M.avr(fe, method="mc", n_samples=60_000, seed=0)
    assert est.method == "mc" and est.bg_ok
    assert est.lo - 3 * est.stderr <= est.point <= est.hi + 3 * est.stderr
    assert est.curve is not None and len(est.curve.radii) == 4


def test_avr_rejects_unknown_method(e2):
    with pytest.raises(ValueError):
        M.avr(e2, method="telepathy")


def test_finsler_gradient_legendre_identity(l4_2, rng):
    # du(y*) = F*(du)^2 and F(y*) = F*(du)
    for _ in range(8):
        du = rng.standard_normal(2)
        y = M.finsler_gradient(l4_2, np.zeros(2), du)
        fstar = M.dual_norm(l4_2.norm, du)
        assert float(du @ y) == pytest.approx(fstar**2, rel=1e-5)
        assert float(l4_2.norm(y)) == pytest.approx(fstar, rel=1e-5)
    assert np.all(M.finsler_gradient(l4_2, np.zeros(2), np.zeros(2)) == 0.0)


def test_fiber_volume_cached(l4_2):
    a = M.fiber_volume(l4_2)
    b = M.fiber_volume(l4_2)
    assert a is b


def test_finsler_gradient_legendre_identity_by_ascent():
    # f_eps has no closed-form dual: the 2n shifted covectors go through one ascent batch
    m = M.f_eps_instance(3, 1.0)
    du = np.array([0.4, -1.1, 0.8])
    y = M.finsler_gradient(m, np.zeros(3), du)
    fstar = M.dual_norm(m.norm, du)
    assert float(du @ y) == pytest.approx(fstar**2, rel=1e-5)
    assert float(m.norm(y)) == pytest.approx(fstar, rel=1e-5)


@pytest.mark.parametrize("workers,hits,value", [(1, 29498, 9.173411382770889)])
def test_ball_volume_mc_hit_counts_pinned(block_hits, workers, hits, value):
    # count, value and standard error of the sampler before the Monte-Carlo
    # hit counters were merged; workers=1 is the one value still accepted
    seen = block_hits(M)
    est = M.ball_volume_mc(M.f_eps_instance(3, 1.0), np.zeros(3), 1.3, n_samples=50_001, seed=9,
                           workers=workers)
    assert seen == [hits]
    assert est.value == value
    assert est.stderr == 0.03420219234831413


def test_box_volume_blocks_are_the_seeded_uniform_stream():
    # the sampler reuses one array between blocks, so the spy keeps copies;
    # the one stream of 262144 + 17 points ends on a partial block
    half = np.array([0.7, 1.9, 1.3])
    n_samples, block = 262144 + 17, 262144
    seen = []
    value, stderr = box_volume(lambda pts: seen.append(pts.copy()) or pts[:, 0] < 0.1, half,
                               n_samples, 5, 2.5)
    rng = spawn_rngs(5, 1)[0]
    expected = [rng.uniform(-1.0, 1.0, size=(min(block, n_samples - start), 3)) * half
                for start in range(0, n_samples, block)]
    assert [b.shape for b in seen] == [(262144, 3), (17, 3)]
    assert all(np.array_equal(b, e) for b, e in zip(seen, expected))
    phat = sum(int(np.count_nonzero(e[:, 0] < 0.1)) for e in expected) / n_samples
    # the density multiplies the box volume before the hit fraction does
    scale = 2.5 * float(np.prod(2.0 * half))
    assert value == scale * phat
    assert stderr == scale * math.sqrt(phat * (1.0 - phat) / n_samples)


def test_ball_volume_box_computed_once_per_instance(monkeypatch):
    calls = []
    real = M.dual_norm
    monkeypatch.setattr(M, "dual_norm", lambda h, a, **kw: calls.append(np.shape(a)) or real(h, a, **kw))
    m = M.f_eps_instance(2, 0.5)
    M.ball_volume_curve(m, [1.0, 2.0, 4.0], n_samples=2_000, seed=1)
    assert calls == [(2, 2)]
