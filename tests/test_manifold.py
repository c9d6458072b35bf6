import math
import tracemalloc

import numpy as np
import pytest

from finsler_sharp import _util, manifold as M, norms as N
from finsler_sharp._util import BLOCK, box_volume, spawn_rngs
from finsler_sharp.constants import omega_n
from finsler_sharp.norms import f_eps_fiber_norm, lp_norm, normalize, wulff_volume_estimate


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


def test_ball_volume_mc_consistent(l4_2):
    est = M.ball_volume_mc(l4_2, np.zeros(2), 1.5, n_samples=200_000, seed=1)
    exact = omega_n(2) * 1.5**2
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


def test_bishop_gromov_fails_on_a_non_finite_ratio():
    # a nan compares false with its neighbours, so no comparison of the curve flags it
    for bad in ("values", "stderrs"):
        fields = {"radii": np.array([1.0, 2.0]), "values": np.array([math.pi, 4.0 * math.pi]),
                  "stderrs": np.zeros(2)}
        fields[bad][0] = np.nan
        assert not M.bishop_gromov_ok(M.BallVolumeCurve(**fields), 2)


@pytest.mark.parametrize("half", [[1e200, 1e200], [1e-200, 1e-200], [math.inf, 1.0]])
def test_box_volume_refuses_a_box_without_finite_positive_volume(half):
    with pytest.raises(ValueError, match="finite and positive"):
        box_volume(lambda pts: pts[:, 0] < 0.0, half, 100, 0, 1.0)


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
    # hit counters were merged; workers=1 is the one value still accepted.
    # The split into blocks follows _util.BLOCK; the total does not
    seen = block_hits(M)
    est = M.ball_volume_mc(M.f_eps_instance(3, 1.0), np.zeros(3), 1.3, n_samples=50_001, seed=9,
                           workers=workers)
    assert sum(seen) == hits
    assert est.value == value
    assert est.stderr == 0.03420219234831413


def test_box_volume_blocks_are_the_seeded_uniform_stream():
    # the sampler reuses one array between blocks, so the spy keeps copies;
    # the one stream of BLOCK + 17 points ends on a partial block
    half = np.array([0.7, 1.9, 1.3])
    n_samples, block = BLOCK + 17, BLOCK
    seen = []
    value, stderr = box_volume(lambda pts: seen.append(pts.copy()) or pts[:, 0] < 0.1, half,
                               n_samples, 5, 2.5)
    rng = spawn_rngs(5, 1)[0]
    expected = [rng.uniform(-1.0, 1.0, size=(min(block, n_samples - start), 3)) * half
                for start in range(0, n_samples, block)]
    assert [b.shape for b in seen] == [(BLOCK, 3), (17, 3)]
    assert all(np.array_equal(b, e) for b, e in zip(seen, expected))
    phat = sum(int(np.count_nonzero(e[:, 0] < 0.1)) for e in expected) / n_samples
    # the density multiplies the box volume before the hit fraction does
    scale = 2.5 * float(np.prod(2.0 * half))
    assert value == scale * phat
    assert stderr == scale * math.sqrt(phat * (1.0 - phat) / n_samples)


@pytest.mark.parametrize("block", [1_000, 5_601])
def test_results_do_not_depend_on_the_block_size(monkeypatch, block):
    # 1,000 rows give the 3-D quadrature bands of one polar row, 5,601 bands
    # of seven that end on a partial band; every sample count below ends on
    # a partial block at the default and at both sizes
    def run():
        m = M.f_eps_instance(3, 1.0)  # a fresh instance: its fiber volume is the quadrature's
        est = M.avr(m, method="mc", n_samples=9_001, seed=2)
        return (box_volume(lambda pts: pts[:, 0] < 0.1, np.array([0.7, 1.9, 1.3]), 20_001, 5, 2.5),
                M.ball_volume_mc(m, None, 1.3, n_samples=40_001, seed=9),
                (est.point, est.stderr, est.curve.values.tolist(), est.curve.stderrs.tolist()),
                wulff_volume_estimate(f_eps_fiber_norm(3, 0.5), method="quadrature"))

    default = run()
    monkeypatch.setattr(_util, "BLOCK", block)
    assert run() == default


@pytest.mark.parametrize("call", ["ball_volume_mc", "quadrature"])
def test_traced_peak_stays_in_cache_sized_blocks(call):
    # tracemalloc sees numpy's buffers: with 262,144-row blocks and one
    # 400 x 800 x 3 direction array the peaks were 16.0 and 22.0 MiB
    m = M.instance_from_descriptor("f_eps:n=3,eps=1")
    h = f_eps_fiber_norm(3, 1.0)
    tracemalloc.start()
    try:
        if call == "ball_volume_mc":
            M.ball_volume_mc(m, None, 1.0, n_samples=1_000_000, seed=0)
        else:
            wulff_volume_estimate(h, method="quadrature")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_ball_volume_box_computed_once_per_instance(monkeypatch):
    # the box comes from norms.box_half_widths, cached on the instance's norm
    calls = []
    real = N.dual_norm
    monkeypatch.setattr(N, "dual_norm", lambda h, a, **kw: calls.append(np.shape(a)) or real(h, a, **kw))
    m = M.f_eps_instance(2, 0.5)
    M.ball_volume_curve(m, [1.0, 2.0, 4.0], n_samples=2_000, seed=1)
    assert calls == [(2, 2)]
