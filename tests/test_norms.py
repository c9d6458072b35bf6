import math

import numpy as np
import pytest
from scipy import special

from finsler_sharp import manifold as M, norms as N
from finsler_sharp.norms import (
    DualMaximizerError,
    custom_norm,
    dual_norm,
    eikonal_residual,
    euclidean_norm,
    f_eps_fiber_norm,
    lp_norm,
    normalize,
    wulff_volume,
    wulff_volume_estimate,
)
from finsler_sharp.constants import omega_n
from finsler_sharp.manifold import instance_from_descriptor


def test_euclidean_self_dual():
    h = euclidean_norm(3)
    y = np.array([1.0, -2.0, 2.0])
    assert h(y) == pytest.approx(3.0, rel=1e-14)
    assert h.dual(y) == pytest.approx(3.0, rel=1e-14)
    assert h.analytic_volume == pytest.approx(omega_n(3), rel=1e-14)


def test_lp_holder_dual():
    h = lp_norm(2, 4.0)
    a = np.array([0.7, -1.3])
    q = 4.0 / 3.0
    assert h.dual(a) == pytest.approx(float(np.sum(np.abs(a) ** q) ** (1 / q)), rel=1e-13)


def test_lp_ball_volume_closed_form():
    # vol = (2 Gamma(1 + 1/p))^n / Gamma(1 + n/p)
    h = lp_norm(2, 4.0)
    ref = (2.0 * special.gamma(1.25)) ** 2 / special.gamma(1.5)
    assert h.analytic_volume == pytest.approx(ref, rel=1e-14)
    assert lp_norm(3, 1.0).analytic_volume == pytest.approx(8.0 / 6.0, rel=1e-12)
    assert lp_norm(3, math.inf).analytic_volume == pytest.approx(8.0, rel=1e-14)


def test_numeric_dual_against_holder():
    # strip the closed form so the maximizer actually runs; the ascent's
    # value is the ratio at a point, so it agrees to rounding level
    for p in (1.5, 3.0, 4.0, 6.0):
        q = p / (p - 1.0)
        for n in (2, 3):
            h = custom_norm(n, lp_norm(n, p).base, label=f"l{p:g}-opaque")
            alphas = _covectors(n, 64, seed=int(10 * p) + n)
            ref = np.sum(np.abs(alphas) ** q, axis=1) ** (1.0 / q)
            np.testing.assert_allclose(dual_norm(h, alphas), ref, rtol=2e-15, atol=0.0,
                                       err_msg=f"p={p}, n={n}")


def test_numeric_dual_anisotropic_quadratic():
    A = np.array([[2.0, 0.3], [0.3, 0.5]])
    Ainv = np.linalg.inv(A)
    h = custom_norm(2, lambda y: np.sqrt(np.einsum("...i,ij,...j->...", y, A, y)))
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal(2)
        ref = math.sqrt(a @ Ainv @ a)
        assert dual_norm(h, a) == pytest.approx(ref, rel=2e-15)


def test_dual_rejects_bad_covector():
    h = euclidean_norm(2)
    with pytest.raises(ValueError):
        dual_norm(h, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        dual_norm(h, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("n,eps", [(2, 0.5), (3, 1.0)])
def test_f_eps_sandwich(n, eps):
    h = f_eps_fiber_norm(n, eps)
    rng = np.random.default_rng(5)
    y = rng.standard_normal((64, n))
    e = np.linalg.norm(y, axis=-1)
    vals = h(y)
    assert np.all(vals >= e * (1.0 - 1e-12))
    assert np.all(vals <= math.sqrt(1.0 + eps) * e * (1.0 + 1e-12))


def test_f_eps_zero_is_euclidean():
    h = f_eps_fiber_norm(3, 0.0)
    y = np.array([1.0, 2.0, -2.0])
    assert h(y) == pytest.approx(3.0, rel=1e-12)


def test_wulff_volume_lp_quadrature_matches_closed_form():
    h = lp_norm(2, 4.0)
    opaque = custom_norm(2, h.base)
    assert wulff_volume(opaque) == pytest.approx(h.analytic_volume, rel=1e-6)


def test_wulff_volume_mc_with_stderr():
    h = f_eps_fiber_norm(4, 1.0)
    est = wulff_volume_estimate(h, method="mc", n_samples=200_000, seed=0)
    assert est.method == "mc"
    assert est.stderr > 0
    # sandwich: ball of the sqrt(1+eps)-scaled norm sits inside
    lo = omega_n(4) * (1.0 + 1.0) ** (-2.0)
    hi = omega_n(4)
    assert lo - 4 * est.stderr <= est.value <= hi + 4 * est.stderr


def test_mc_volume_needs_a_sample():
    with pytest.raises(ValueError, match="n_samples"):
        wulff_volume_estimate(f_eps_fiber_norm(2, 0.5), method="mc", n_samples=0)


def test_mc_volume_seed_reproducible():
    h = f_eps_fiber_norm(3, 0.5)
    a = wulff_volume_estimate(h, method="mc", n_samples=50_000, seed=42)
    b = wulff_volume_estimate(h, method="mc", n_samples=50_000, seed=42)
    assert a.value == b.value
    c = wulff_volume_estimate(h, method="mc", n_samples=50_000, seed=43)
    assert c.value != a.value


def test_mc_box_is_ascended_once_per_norm(monkeypatch):
    # the box half-widths H*(e_j) take one multi-start ascent per norm, for
    # every Monte-Carlo Wulff volume and every ball volume of its instance;
    # a rescaled norm (normalize goes through dataclasses.replace) takes its
    # own.  The hex values are those of one ascent per estimate
    calls = []
    real = N.dual_norm
    monkeypatch.setattr(N, "dual_norm", lambda h, alpha: calls.append(h) or real(h, alpha))
    h = f_eps_fiber_norm(3, 0.5)
    g = normalize(h)

    def mc(norm, seed):
        return wulff_volume_estimate(norm, method="mc", n_samples=20_000, seed=seed).value.hex()

    assert [mc(h, seed) for seed in (1, 2, 3)] == ["0x1.3eb7ed183302fp+1", "0x1.3bb56220078ccp+1",
                                                    "0x1.3bae3fa7368e0p+1"]
    assert [mc(g, seed) for seed in (1, 2, 3)] == ["0x1.0e753df6c73a3p+2", "0x1.0be760080eae4p+2",
                                                    "0x1.0be1521febc97p+2"]
    ball = M.ball_volume_mc(M.minkowski_instance(h), None, 1.3, n_samples=20_000, seed=9)
    assert ball.value.hex() == "0x1.2533825e8de79p+3"
    assert len(calls) == 2 and calls[0] is h and calls[1] is g


def test_normalize_sets_unit_ball_volume():
    h = normalize(lp_norm(2, 4.0))
    assert h.normalized
    assert wulff_volume(h) == pytest.approx(omega_n(2), rel=1e-9)
    # normalizing again is a no-op up to rounding
    h2 = normalize(h)
    assert h2.scale == pytest.approx(h.scale, rel=1e-9)


def test_norm_from_descriptor_roundtrip():
    # the NORMS table is read as the nested norm of a minkowski instance
    def norm_from_descriptor(desc):
        return instance_from_descriptor({"kind": "minkowski", "norm": desc}).norm

    h = norm_from_descriptor({"kind": "lp", "n": 2, "p": 4.0})
    assert h(np.array([1.0, 0.0])) == pytest.approx(1.0)
    hn = norm_from_descriptor({"kind": "lp", "n": 2, "p": 4.0, "normalize": True})
    assert hn.normalized
    he = norm_from_descriptor({"kind": "euclidean", "n": 3})
    assert he.label == "euclidean"
    hf = norm_from_descriptor({"kind": "f_eps_fiber", "n": 3, "eps": 1.0})
    assert hf(np.array([0.0, 0.0, 1.0])) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        norm_from_descriptor({"kind": "nope", "n": 2})


def test_eikonal_identity():
    h = lp_norm(2, 4.0)
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((16, 2))
    assert eikonal_residual(h, samples) <= 1e-7
    with pytest.raises(ValueError):
        eikonal_residual(h, np.zeros((1, 2)))


# randomized invariants ------------------------------------------------------

NORM_FACTORIES = [
    lambda: euclidean_norm(3),
    lambda: lp_norm(2, 4.0),
    lambda: lp_norm(3, 1.5),
    lambda: f_eps_fiber_norm(2, 1.0),
    lambda: normalize(lp_norm(2, 4.0)),
]


@pytest.mark.parametrize("factory", NORM_FACTORIES)
def test_norm_axioms_random(factory):
    h = factory()
    rng = np.random.default_rng(101)
    for _ in range(25):
        y = rng.standard_normal(h.dim)
        z = rng.standard_normal(h.dim)
        t = float(rng.uniform(0.1, 3.0))
        assert h(t * y) == pytest.approx(t * h(y), rel=1e-11)   # 1-homogeneous
        assert h(-y) == pytest.approx(h(y), rel=1e-11)          # reversible
        assert h(y + z) <= h(y) + h(z) + 1e-11                  # convex
        assert h(y) > 0


@pytest.mark.parametrize("factory", NORM_FACTORIES)
def test_cauchy_schwarz_pairing(factory):
    # alpha(y) <= H*(alpha) H(y), with equality attained over the ball
    h = factory()
    rng = np.random.default_rng(55)
    for _ in range(10):
        a = rng.standard_normal(h.dim)
        y = rng.standard_normal(h.dim)
        assert float(a @ y) <= dual_norm(h, a) * h(y) * (1.0 + 1e-9)


def test_bidual_is_original():
    h = lp_norm(2, 3.0)

    def dual_base(a):
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            return dual_norm(h, a)
        return np.array([dual_norm(h, row) for row in a])

    # evaluate H** by wrapping the numeric dual as a base norm
    hd = custom_norm(2, dual_base)
    rng = np.random.default_rng(77)
    for _ in range(4):
        y = rng.standard_normal(2)
        assert dual_norm(hd, y) == pytest.approx(float(h(y)), rel=1e-6)


# batched dual ---------------------------------------------------------------


def _reference_ratio_gradient(h, alpha, y, fy, hy, fd_step):
    m, n = y.shape
    shift = np.zeros((n, 1, 1, n))
    for j in range(n):
        shift[j, 0, 0, j] = fd_step
    pts = y[None, None, :, :] + np.concatenate([shift, -shift], axis=1)
    vals = h(pts.reshape(-1, n)).reshape(n, 2, m)
    dh = (vals[:, 0, :] - vals[:, 1, :]).T / (2.0 * fd_step)
    return alpha[None, :] / hy[:, None] - (fy / hy)[:, None] * dh


def _reference_dual(h, alpha, seed=0, n_random=8, max_iter=400, fd_step=1e-7):
    """The one-covector ascent the batched dual_norm replaced, kept as a
    reference: the same starts, steps and stall rule, run on one covector
    at a time, returning the ratio at the best point."""
    norm_a = float(np.linalg.norm(alpha))
    if norm_a == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    unit = lambda y: y / np.linalg.norm(y, axis=-1, keepdims=True)
    starts = [np.eye(h.dim), -np.eye(h.dim), (alpha / norm_a)[None, :]]
    starts.append(unit(rng.standard_normal((n_random, h.dim))))
    y = unit(np.concatenate(starts, axis=0))
    step = np.full(y.shape[0], 0.25)
    hy = h(y)
    fy = (y @ alpha) / hy
    last_best, stalled = -np.inf, 0
    for _ in range(max_iter):
        g = _reference_ratio_gradient(h, alpha, y, fy, hy, fd_step)
        g -= np.sum(g * y, axis=1, keepdims=True) * y
        cand = unit(y + step[:, None] * g)
        hc = h(cand)
        fc = (cand @ alpha) / hc
        up = fc > fy
        y[up], fy[up], hy[up] = cand[up], fc[up], hc[up]
        step[up] *= 1.3
        step[~up] *= 0.5
        best = float(fy.max())
        if best - last_best < 1e-14 * max(1.0, abs(best)):
            stalled += 1
            if stalled >= 8:
                break
        else:
            stalled = 0
        last_best = best
    else:
        raise DualMaximizerError("reference ascent did not settle", best_value=float(fy.max()))
    y0 = y[int(np.argmax(fy))]
    return float(y0 @ alpha) / float(h(y0))


def _covectors(n, k, seed):
    # components bounded away from 0: the 3-D ascent stalls on near-axis
    # covectors (see test_batch_dual_raises_if_any_row_fails)
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 2.0, (k, n)) * rng.choice([-1.0, 1.0], (k, n))


BATCH_NORMS = [
    ("f_eps,n=2", lambda: f_eps_fiber_norm(2, 1.0)),
    ("f_eps,n=3", lambda: f_eps_fiber_norm(3, 0.5)),
    ("f_eps-normalized,n=2", lambda: normalize(f_eps_fiber_norm(2, 2.0))),
] + [
    (f"opaque l{p:g},n={n}", (lambda n=n, p=p: custom_norm(n, lp_norm(n, p).base)))
    for p in (3.0, 4.0, 6.0) for n in (2, 3)
]


@pytest.mark.parametrize("label,factory", BATCH_NORMS, ids=[b[0] for b in BATCH_NORMS])
def test_batch_dual_matches_per_covector_reference(label, factory):
    h = factory()
    alphas = _covectors(h.dim, 10, seed=len(label))
    batch = dual_norm(h, alphas)
    assert isinstance(batch, np.ndarray) and batch.shape == (10,)
    # the batch climbs on the unit covector a/|a| and scales back by |a|
    sizes = np.sqrt(np.matmul(alphas[:, None, :], alphas[:, :, None]))[:, 0, 0]
    ref = np.array([_reference_dual(h, a / s) * s for a, s in zip(alphas, sizes)])
    if label.startswith("f_eps"):
        # the same arithmetic row by row: only lp's ** may round apart
        # between the batch's arrays and the reference's one-covector ones
        assert np.array_equal(batch, ref)
    np.testing.assert_allclose(batch, ref, rtol=1e-13, atol=0.0)
    # a row's value does not depend on the batch it sits in
    single = dual_norm(h, alphas[3])
    assert isinstance(single, float)
    assert single == pytest.approx(batch[3], rel=1e-13)
    np.testing.assert_allclose(dual_norm(h, alphas[::-1])[::-1], batch, rtol=1e-13, atol=0.0)


def test_batch_dual_zero_rows_and_empty_batch():
    opaque = custom_norm(2, lp_norm(2, 4.0).base)
    alphas = np.array([[0.0, 0.0], [0.7, -1.3], [0.0, 0.0]])
    vals = dual_norm(opaque, alphas)
    assert vals[0] == 0.0 and vals[2] == 0.0
    assert vals[1] == pytest.approx(lp_norm(2, 4.0).dual(alphas[1]), rel=1e-8)
    assert np.array_equal(dual_norm(opaque, np.zeros((3, 2))), np.zeros(3))
    assert dual_norm(opaque, np.zeros(2)) == 0.0
    assert dual_norm(opaque, np.zeros((0, 2))).shape == (0,)
    assert np.array_equal(dual_norm(lp_norm(2, 4.0), np.zeros((2, 2))), np.zeros(2))


@pytest.mark.parametrize("h", [euclidean_norm(2), custom_norm(2, lp_norm(2, 4.0).base)])
def test_batch_dual_rejects_bad_shapes_and_values(h):
    for bad in (np.ones(3), np.ones((4, 3)), np.ones((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="shape"):
            dual_norm(h, bad)
    for bad in ([[1.0, 0.5], [np.inf, 0.0]], [[1.0, 0.5], [0.0, np.nan]]):
        with pytest.raises(ValueError, match="finite"):
            dual_norm(h, np.array(bad))


def test_batch_dual_raises_if_any_row_fails():
    hp = lp_norm(3, 1.5)
    opaque = custom_norm(3, hp.base)
    stuck = np.array([-0.001, 0.45, 0.47])
    batch = np.array([[1.0, 0.5, -0.25], stuck, [0.3, -1.2, 0.7]])
    with pytest.raises(DualMaximizerError) as err:
        dual_norm(opaque, batch)
    # the error carries the stuck row's best value, just short of the Hoelder value
    assert err.value.best_value == pytest.approx(0.579837, abs=1e-6)
    assert err.value.best_value < hp.dual(stuck)
    # the other rows settle on their own
    np.testing.assert_allclose(dual_norm(opaque, batch[[0, 2]]), hp.dual(batch[[0, 2]]), rtol=1e-8)


@pytest.mark.parametrize(
    "h",
    [lp_norm(2, 3.0), euclidean_norm(3), normalize(lp_norm(2, 4.0)), f_eps_fiber_norm(2, 1.0),
     f_eps_fiber_norm(3, 0.5)],
    ids=["l3", "euclidean", "l4-normalized", "f_eps,n=2", "f_eps,n=3"],
)
def test_gradient_batch_rows_match_single_calls(h):
    ys = np.random.default_rng(4).standard_normal((6, h.dim)) * 3.0
    batch = h.gradient(ys)
    assert batch.shape == ys.shape
    for y, row in zip(ys, batch):
        np.testing.assert_allclose(row, h.gradient(y), rtol=1e-12, atol=0.0)


def test_lp_gradient_reduces_per_row():
    g = lp_norm(2, 3.0).gradient([[1.0, 2.0], [0.5, -1.0]])
    # both rows point the same way up to the sign of the second coordinate
    np.testing.assert_allclose(g, [[0.2311, 0.9245], [0.2311, -0.9245]], atol=1e-4)


def test_eikonal_identity_finite_difference_gradient():
    h = f_eps_fiber_norm(2, 1.0)
    samples = np.random.default_rng(9).standard_normal((6, 2))
    assert eikonal_residual(h, samples) <= 1e-7
    with pytest.raises(ValueError):
        eikonal_residual(h, np.array([[1.0, 0.0], [0.0, 0.0]]))


SCALE_NORMS = [
    ("f_eps,n=2", lambda: f_eps_fiber_norm(2, 1.0)),
    ("f_eps,n=3", lambda: f_eps_fiber_norm(3, 0.5)),
    ("opaque l1.5,n=3", lambda: custom_norm(3, lp_norm(3, 1.5).base)),
]


@pytest.mark.parametrize("s", [1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("label,factory", SCALE_NORMS, ids=[b[0] for b in SCALE_NORMS])
def test_dual_and_gradients_obey_the_scale_rule(label, factory, s):
    # H* is 1-homogeneous and DH 0-homogeneous, so no scale of the input may
    # move a relative residual: the ascent climbs on unit covectors and both
    # difference gradients step 1e-6 |y|.  Before, an absolute stall bound and
    # a step of 1e-6 max(1, |y|) let H*(s a) / s drift by up to 3.5% and the
    # eikonal residual read 0.2 at s = 1e-6
    h = factory()
    alphas = _covectors(h.dim, 8, seed=7)
    np.testing.assert_allclose(dual_norm(h, s * alphas), s * dual_norm(h, alphas), rtol=1e-14, atol=0.0)
    euler = np.sum(h.gradient(s * alphas) * alphas, axis=1) / h(alphas) - 1.0
    assert np.max(np.abs(euler)) <= 1e-9
    assert eikonal_residual(h, s * alphas) <= 1e-9
    m = M.minkowski_instance(h)
    for du in s * alphas[:3]:
        y, fstar = M.finsler_gradient(m, np.zeros(h.dim), du), dual_norm(h, du)
        assert abs(float(du @ y) / fstar**2 - 1.0) <= 1e-9
        assert abs(float(h(y)) / fstar - 1.0) <= 1e-9


@pytest.mark.parametrize("h", [f_eps_fiber_norm(3, 0.5), lp_norm(3, 4.0)], ids=["f_eps", "l4"])
def test_banded_quadrature_volume_is_the_one_array_rule(h):
    # the 3-D radial-angular rule on one 400 x 800 x 3 direction array
    n_polar = 400
    u, wu = np.polynomial.legendre.leggauss(n_polar)
    th = np.linspace(0.0, 2.0 * math.pi, 2 * n_polar, endpoint=False)
    su = np.sqrt(1.0 - u**2)
    dirs = np.stack(np.broadcast_arrays(su[:, None] * np.cos(th), su[:, None] * np.sin(th),
                                        u[:, None]), axis=-1)
    r = 1.0 / h(dirs)
    one_array = float(np.sum(wu * (np.mean(r**3, axis=1) * 2.0 * math.pi))) / 3.0
    assert N._quadrature_volume(h) == one_array


@pytest.mark.parametrize("workers,hits,value", [(1, 28358, 2.4697330172235064)])
def test_mc_volume_hit_counts_pinned(block_hits, workers, hits, value):
    # count, value and standard error of the sampler before the Monte-Carlo
    # hit counters were merged; workers=1 is the one value still accepted.
    # The split into blocks follows _util.BLOCK; the total does not
    seen = block_hits(N)
    est = wulff_volume_estimate(f_eps_fiber_norm(3, 0.5), method="mc", n_samples=50_001, seed=42,
                                workers=workers)
    assert sum(seen) == hits
    assert est.value == value
    assert est.stderr == 0.00964898415685741


# -- column-wise row sums -----------------------------------------------------


def _np_sum_evaluators(n, p=3.7):
    """(norm, base, closed-form dual) of each shipped evaluator, the last two
    in their np.sum form, for the norms of dimension n."""
    q = p / (p - 1.0)
    euclid = lambda y: np.sqrt(np.sum(np.square(y), axis=-1))

    def f_eps(y, e):
        v2 = np.sum(np.square(y[..., :-1]), axis=-1)
        w2 = np.square(y[..., -1])
        return np.sqrt(v2 + w2 + e * np.sqrt(v2**2 + w2**2))

    rows = [
        (euclidean_norm(n), euclid, euclid),
        (lp_norm(n, 1.0), lambda y: np.sum(np.abs(y), axis=-1), lambda a: np.max(np.abs(a), axis=-1)),
        (lp_norm(n, math.inf), lambda y: np.max(np.abs(y), axis=-1), lambda a: np.sum(np.abs(a), axis=-1)),
        (lp_norm(n, p), lambda y: np.sum(np.abs(y) ** p, axis=-1) ** (1.0 / p),
         lambda a: np.sum(np.abs(a) ** q, axis=-1) ** (1.0 / q)),
    ]
    rows += [(normalize(h), base, dual) for h, base, dual in rows[1:]]
    if n >= 2:
        rows.append((f_eps_fiber_norm(n, 0.5), lambda y: f_eps(y, 0.5), None))
    if n in (2, 3):  # normalized by quadrature; higher dimensions would need Monte Carlo
        rows.append((normalize(f_eps_fiber_norm(n, 2.0)), lambda y: f_eps(y, 2.0), None))
    return rows


def _evaluator_mismatches(n):
    """Every shipped evaluator against its np.sum form on (n,), (K, n),
    (a, b, n), strided and transposed input: the labels whose value, type or
    shape differ."""
    rng = np.random.default_rng(100 + n)
    scaled = lambda *shape: rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    inputs = [scaled(n), scaled(64, n), scaled(4, 5, n), scaled(64, 2 * n)[:, ::2], scaled(n, 64).T]
    bad = []
    for h, base, dual in _np_sum_evaluators(n):
        pairs = [(h(y), h.scale * base(y)) for y in inputs]
        if dual is not None:
            pairs += [(h.analytic_dual(y), dual(y)) for y in inputs]
            pairs.append((dual_norm(h, inputs[1]), dual(inputs[1]) / h.scale))
        if not all(np.array_equal(a, b) and type(a) is type(b) and np.shape(a) == np.shape(b)
                   for a, b in pairs):
            bad.append(h.label)
    return bad


@pytest.mark.parametrize("n", range(1, 10))
def test_row_sums_give_np_sum_bits(n):
    assert _evaluator_mismatches(n) == []


def test_row_sums_in_another_order_turn_the_reference_red(monkeypatch):
    # a0 + (a1 + a2) is not the order in which np.sum adds three entries
    real = N._row_sum

    def right_first(y, each=None):
        if y.shape[-1] != 3:
            return real(y, each)
        a0, a1, a2 = (y[..., j] if each is None else each(y[..., j]) for j in range(3))
        return a0 + (a1 + a2)

    monkeypatch.setattr(N, "_row_sum", right_first)
    assert _evaluator_mismatches(3) != []
