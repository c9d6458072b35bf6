"""Reversible Minkowski norms on n-space.

A norm is stored as an immutable evaluator plus a multiplicative scale,
so that renormalization never wraps closures around closures.  All
evaluators are vectorized: they accept arrays of shape (..., dim) and
return shape (...).

The dual (polar) norm is computed analytically when a closed form is
attached, and otherwise by multi-start projected gradient ascent on the
Euclidean unit sphere.  dual_norm takes one covector, shape (dim,), or a
batch, shape (K, dim), and runs the ascent on all rows at once; a row is
frozen once it settles, so its value does not depend on the batch, and
the call raises if any row fails to settle.  Unit-ball volumes come from
a closed form when known, adaptive radial-angular quadrature in
dimensions 2 and 3, or Monte-Carlo over the dual bounding box.

The shipped evaluators sum a row of coordinates with _row_sum, column by
column: y[..., 0] + y[..., 1] + ... left to right.  That is the order in
which np.sum adds rows of 2 to 7 entries, so the values are np.sum's
bit for bit, but without its strided reduction over a short last axis,
which costs more than the arithmetic on the Monte-Carlo blocks.  From 8
entries on np.sum adds pairwise and _row_sum hands the row to
np.add.reduce.  Squares and absolute values are exact-rounded, so they
are taken column by column inside the sum; powers such as |y|**p stay on
the whole array, because numpy dispatches its vectorized power only on
contiguous input and a power taken column by column may round
differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy import special

from . import _util
from ._util import REQUIRED, box_volume, gauss_legendre
from .constants import omega_n


class DualMaximizerError(RuntimeError):
    """Dual-norm maximizer failed to converge; carries the best value found."""

    def __init__(self, message: str, best_value: float):
        super().__init__(f"{message} (best value found: {best_value!r})")
        self.best_value = best_value


@dataclass(frozen=True)
class MinkowskiNorm:
    """A reversible norm H(y) = scale * base(y) on R^dim.

    base must be positively 1-homogeneous, even, convex and positive off
    the origin; these invariants are testable, not enforced.  analytic_dual,
    analytic_gradient and analytic_volume all refer to the unscaled base
    norm; the scale algebra is applied by the accessors here.
    """

    dim: int
    base: Callable = field(repr=False)
    scale: float = 1.0
    analytic_dual: Optional[Callable] = field(default=None, repr=False)
    analytic_gradient: Optional[Callable] = field(default=None, repr=False)
    analytic_volume: Optional[float] = None
    label: str = "custom"
    normalized: bool = False
    # not an init field, so a norm rebuilt by dataclasses.replace starts empty
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return self.scale * self.base(y)

    def dual(self, alpha):
        return dual_norm(self, alpha)

    def gradient(self, y):
        """Gradient of H at y, shape (dim,) or (K, dim), row by row.

        Analytic when available, else central differences with step
        1e-6 * max(1, |y|) per row.
        """
        y = np.asarray(y, dtype=float)
        if self.analytic_gradient is not None:
            return self.scale * np.asarray(self.analytic_gradient(y), dtype=float)
        # |y| by the same dot product per row as np.linalg.norm of one vector
        size = np.sqrt(np.matmul(y[..., None, :], y[..., :, None]))[..., 0]
        h = 1e-6 * np.maximum(1.0, size)
        shift = h[..., None] * np.eye(self.dim)
        return (self(y[..., None, :] + shift) - self(y[..., None, :] - shift)) / (2.0 * h)


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    stderr: float
    method: str


# np.sum adds rows of this many entries or more pairwise, not left to right
_PAIRWISE_FROM = 8


def _row_sum(y: np.ndarray, each=None):
    """Sum over the last axis of y, or of each(y) for an exact elementwise map
    such as np.square, in np.sum's order: column by column, left to right,
    below _PAIRWISE_FROM entries, else np.add.reduce.  each is applied to
    one column at a time, so no second (..., n) array is made."""
    n = y.shape[-1]
    if n >= _PAIRWISE_FROM or (n == 1 and each is None):
        # a lone column of y would come back as a view of y, not a new value
        return np.add.reduce(y if each is None else each(y), axis=-1)
    col = (lambda j: y[..., j]) if each is None else (lambda j: each(y[..., j]))
    total = col(0)
    for j in range(1, n):
        total = total + col(j)
    return total


def euclidean_norm(n: int) -> MinkowskiNorm:
    """The Euclidean norm; self-dual and already normalized."""
    return MinkowskiNorm(
        dim=n,
        base=lambda y: np.sqrt(_row_sum(y, np.square)),
        analytic_dual=lambda a: np.sqrt(_row_sum(a, np.square)),
        analytic_gradient=lambda y: y / np.linalg.norm(y, axis=-1, keepdims=True),
        analytic_volume=omega_n(n),
        label="euclidean",
        normalized=True,
    )


def _lp_ball_volume(n: int, p: float) -> float:
    if math.isinf(p):
        return 2.0**n
    return (2.0 * special.gamma(1.0 + 1.0 / p)) ** n / special.gamma(1.0 + n / p)


def lp_norm(n: int, p: float) -> MinkowskiNorm:
    """The l^p norm with its Hoelder dual l^q, 1/p + 1/q = 1.

    p = 1 and p = inf are admitted for oracle values only.
    """
    if p < 1:
        raise ValueError(f"l^p requires p >= 1, got {p}")
    if math.isinf(p):
        base = lambda y: np.max(np.abs(y), axis=-1)
        dual = lambda a: _row_sum(a, np.abs)
        grad = None
    elif p == 1:
        base = lambda y: _row_sum(y, np.abs)
        dual = lambda a: np.max(np.abs(a), axis=-1)
        grad = None
    else:
        q = p / (p - 1.0)
        base = lambda y: _row_sum(np.abs(y) ** p) ** (1.0 / p)
        dual = lambda a: _row_sum(np.abs(a) ** q) ** (1.0 / q)

        def grad(y, _p=p):
            r = _row_sum(np.abs(y) ** _p)[..., None] ** (1.0 / _p)
            return np.sign(y) * np.abs(y) ** (_p - 1.0) / r ** (_p - 1.0)

    return MinkowskiNorm(
        dim=n,
        base=base,
        analytic_dual=dual,
        analytic_gradient=grad,
        analytic_volume=_lp_ball_volume(n, p),
        label=f"l{p}",
    )


def f_eps_fiber_norm(n: int, eps: float) -> MinkowskiNorm:
    """Fiber norm sqrt(|v|^2 + w^2 + eps sqrt(|v|^4 + w^4)) with y = (v, w).

    v collects the first n-1 coordinates and w the last.  For eps = 0
    this is Euclidean; for eps > 0 it is a genuinely non-Euclidean
    reversible norm squeezed between |y| and sqrt(1 + eps) |y|.
    """
    if n < 2:
        raise ValueError(f"fiber norm needs n >= 2, got {n}")
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")

    def base(y, _e=eps):
        v2 = _row_sum(y[..., :-1], np.square)
        w2 = np.square(y[..., -1])
        return np.sqrt(v2 + w2 + _e * np.sqrt(v2**2 + w2**2))

    return MinkowskiNorm(dim=n, base=base, label=f"f_eps({eps})")


def custom_norm(n, func, dual=None, gradient=None, volume=None, label="custom"):
    return MinkowskiNorm(dim=n, base=func, analytic_dual=dual, analytic_gradient=gradient,
                         analytic_volume=volume, label=label)


def _unit_rows(y: np.ndarray) -> np.ndarray:
    # the arithmetic of np.linalg.norm(y, axis=-1), without its call overhead
    return y / np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True))


def _pair(y: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """alpha_k . y_kj for points y (K, m, n) and covectors alpha (K, n) -> (K, m).

    matmul runs the same BLAS kernel per row as the one-covector product
    y @ alpha, so a row's values do not depend on the batch it sits in.
    """
    return np.matmul(y, alpha[:, :, None])[..., 0]


def _norm_rows(h: MinkowskiNorm, y: np.ndarray) -> np.ndarray:
    """H at points y (..., n); h is handed a 2-D array of rows, as custom norms expect."""
    return h(y.reshape(-1, y.shape[-1])).reshape(y.shape[:-1])


# the ascent's central-difference step, seeded random starts and iteration cap
_FD_STEP = 1e-7
_N_RANDOM = 8
_MAX_ITER = 400


def _norm_and_slope(h: MinkowskiNorm, y, offsets):
    """H at points y (K, m, n) and its central-difference gradient, one call of h;
    offsets are 0 and +-_FD_STEP e_j, shaped (2n+1, 1, 1, n)."""
    n = y.shape[-1]
    vals = _norm_rows(h, y + offsets)
    dh = (vals[1 : n + 1] - vals[n + 1 :]) / (2.0 * _FD_STEP)
    return vals[0], dh.transpose(1, 2, 0)


def _dual_ascent(h: MinkowskiNorm, alpha):
    """H* of nonzero covectors alpha (K, n) by batched multi-start ascent."""
    k, n = alpha.shape
    offsets = _FD_STEP * np.concatenate([np.zeros((1, n)), np.eye(n), -np.eye(n)])[:, None, None, :]
    rng = np.random.default_rng(0)
    starts = [np.eye(n), -np.eye(n), np.zeros((1, n)), _unit_rows(rng.standard_normal((_N_RANDOM, n)))]
    y = np.repeat(np.concatenate(starts)[None], k, axis=0)
    y[:, 2 * n] = alpha / np.sqrt(_pair(alpha[:, None, :], alpha))
    y = _unit_rows(y)
    hy, dh = _norm_and_slope(h, y, offsets)
    fy = _pair(y, alpha) / hy
    step = np.full(fy.shape, 0.25)
    last_best = np.full(k, -np.inf)
    stalled = np.zeros(k, dtype=int)
    # the rows still climbing; a settled row leaves the batch and stops changing
    rows, a = np.arange(k), alpha
    winners = np.empty((k, 1, n))
    for _ in range(_MAX_ITER):
        # gradient of y -> alpha.y / H(y):  alpha/H - f * DH / H
        g = a[:, None, :] / hy[..., None] - (fy / hy)[..., None] * dh
        g -= np.add.reduce(g * y, axis=-1, keepdims=True) * y
        cand = _unit_rows(y + step[..., None] * g)
        # the slope at cand is the next gradient for every start that moves
        hc, dhc = _norm_and_slope(h, cand, offsets)
        fc = _pair(cand, a) / hc
        up = fc > fy
        np.copyto(y, cand, where=up[..., None])
        np.copyto(dh, dhc, where=up[..., None])
        np.copyto(fy, fc, where=up)
        np.copyto(hy, hc, where=up)
        step *= np.where(up, 1.3, 0.5)
        best = fy.max(axis=1)
        flat = best - last_best < 1e-14 * np.maximum(1.0, np.abs(best))
        stalled = (stalled + 1) * flat
        last_best = best
        settled = stalled >= 8
        if settled.any():
            winners[rows[settled], 0] = y[settled, fy[settled].argmax(axis=1)]
            if settled.all():
                break
            keep = ~settled
            rows, a, y, dh, fy, hy = rows[keep], a[keep], y[keep], dh[keep], fy[keep], hy[keep]
            step, last_best, stalled = step[keep], last_best[keep], stalled[keep]
    else:
        raise DualMaximizerError(
            f"dual-norm ascent did not settle in {_MAX_ITER} iterations",
            best_value=float(fy[0].max()),
        )
    return (_pair(winners, alpha) / _norm_rows(h, winners))[:, 0]


def dual_norm(h: MinkowskiNorm, alpha) -> float | np.ndarray:
    """Dual (polar) norm H*(alpha) = sup {alpha.y : H(y) <= 1}.

    alpha is one covector, shape (dim,), giving a float, or a batch of K
    covectors, shape (K, dim), giving an array of K values; a single
    covector is run as a batch of one.  Uses the attached closed form when
    present.  Otherwise maximizes the 0-homogeneous ratio alpha.y / H(y)
    on the unit sphere from 2*dim coordinate starts plus the direction of
    alpha plus 8 seeded random starts (the same for every row), by
    projected gradient ascent with per-start adaptive steps, and returns
    the ratio at each row's best point.  A row is frozen once its best
    value has stalled 8 times, so its result does not depend on the rest
    of the batch.  Zero rows give 0.  If any row has not settled within
    400 iterations, DualMaximizerError is raised with that row's best
    value.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim not in (1, 2) or alpha.shape[-1] != h.dim:
        raise ValueError(f"covector must have shape ({h.dim},) or (K, {h.dim}), got {alpha.shape}")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("covector must be finite")
    rows = np.atleast_2d(alpha)
    if h.analytic_dual is not None:
        vals = np.asarray(h.analytic_dual(rows), dtype=float) / h.scale
    else:
        vals = np.zeros(len(rows))
        nonzero = np.any(rows != 0.0, axis=1)
        if nonzero.any():
            vals[nonzero] = _dual_ascent(h, rows[nonzero])
    return float(vals[0]) if alpha.ndim == 1 else vals


def _quadrature_volume(h: MinkowskiNorm) -> float:
    # radial-angular: Vol = (1/n) * integral of r(direction)^n over the sphere
    if h.dim == 2:
        th = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        r = 1.0 / h(dirs)
        # periodic trapezoid: spectrally accurate for smooth norms
        return 0.5 * float(np.mean(r**2)) * 2.0 * math.pi
    if h.dim == 3:
        n_polar = 400
        u, wu = gauss_legendre(n_polar)  # u = cos(polar angle)
        th = np.linspace(0.0, 2.0 * math.pi, 2 * n_polar, endpoint=False)
        su, cos_th, sin_th = np.sqrt(1.0 - u**2), np.cos(th), np.sin(th)
        # bands of _util.BLOCK directions, 20 polar rows, stay in cache; each
        # direction's norm and each row's mean do not depend on the band
        band = _util.BLOCK // (2 * n_polar)
        dirs = np.empty((band, 2 * n_polar, 3))
        inner = np.empty(n_polar)
        for lo in range(0, n_polar, band):
            hi = min(lo + band, n_polar)
            d = dirs[: hi - lo]
            d[..., 0] = su[lo:hi, None] * cos_th
            d[..., 1] = su[lo:hi, None] * sin_th
            d[..., 2] = u[lo:hi, None]
            r = 1.0 / h(d.reshape(-1, 3)).reshape(hi - lo, 2 * n_polar)
            inner[lo:hi] = np.mean(r**3, axis=1) * 2.0 * math.pi
        return float(np.sum(wu * inner)) / 3.0
    raise ValueError(f"radial-angular quadrature supports dim 2 and 3, got {h.dim}")


def wulff_volume_estimate(
    h: MinkowskiNorm,
    method: str = "auto",
    n_samples: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> VolumeEstimate:
    """Euclidean volume of the unit sublevel set {H < 1}, with diagnostics.

    method: "analytic" (closed form attached to the norm), "quadrature"
    (radial-angular, dim 2 or 3), "mc" (Monte-Carlo over the dual
    bounding box, 1-sigma standard error reported), or "auto".  The
    sampler runs one stream, so workers accepts only 1.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    scale_factor = h.scale ** (-h.dim)
    if method == "auto":
        if h.analytic_volume is not None:
            method = "analytic"
        elif h.dim in (2, 3):
            method = "quadrature"
        else:
            method = "mc"
    if method == "analytic":
        if h.analytic_volume is None:
            raise ValueError(f"norm {h.label!r} has no closed-form volume")
        return VolumeEstimate(h.analytic_volume * scale_factor, 0.0, "analytic")
    if method == "quadrature":
        return VolumeEstimate(_quadrature_volume(h), 0.0, "quadrature")
    if method == "mc":
        half = box_half_widths(h)
        if not np.all(np.isfinite(half)) or np.any(half <= 0):
            raise ValueError("bounding box not found: degenerate norm")
        half = half * (1.0 + 1e-9)
        est = box_volume(lambda pts: h(pts) < 1.0, half, n_samples, seed, 1.0)
        return VolumeEstimate(*est, "mc")
    raise ValueError(f"unknown volume method {method!r}")


def box_half_widths(h: MinkowskiNorm) -> np.ndarray:
    """Half-widths H*(e_j) of the box around {H < 1}, cached per norm."""
    if "box" not in h._cache:
        h._cache["box"] = dual_norm(h, np.eye(h.dim))
    return h._cache["box"]


def wulff_volume(h: MinkowskiNorm) -> float:
    """Euclidean volume of {H < 1} by wulff_volume_estimate's "auto" method."""
    return wulff_volume_estimate(h).value


def normalize(h: MinkowskiNorm) -> MinkowskiNorm:
    """Rescale so the unit sublevel set has volume omega_n.

    The scale factor is c = (Vol{H < 1} / omega_n)^(1/n).  Normalizing a
    second time reuses the identical quadrature nodes (or Monte-Carlo
    samples) by homogeneity, so the operation is idempotent to rounding.
    """
    vol = wulff_volume(h)
    c = (vol / omega_n(h.dim)) ** (1.0 / h.dim)
    return replace(h, scale=h.scale * c, normalized=True)


def _normalized_if(make):
    """Table constructor: the norm make() builds, rescaled when normalize is set."""
    rescale = normalize  # the lambda's normalize flag shadows the function
    return lambda normalize, **params: rescale(make(**params)) if normalize else make(**params)


_DIM = {"n": (int, REQUIRED), "normalize": (bool, False)}
# the nested norm of a 'minkowski' instance descriptor; custom norms carry
# code and are constructed in Python, not from config
NORMS = {
    "euclidean": (_normalized_if(euclidean_norm), _DIM),
    "lp": (_normalized_if(lp_norm), {**_DIM, "p": (float, REQUIRED)}),
    "f_eps_fiber": (_normalized_if(f_eps_fiber_norm), {**_DIM, "eps": (float, REQUIRED)}),
}


def eikonal_residual(h: MinkowskiNorm, samples) -> float:
    """max over samples of |H*(DH(x)) - 1|.

    DH uses the attached gradient when present, else central differences
    with step 1e-6 * max(1, |x|).  One gradient call and one dual call
    serve all samples.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if not np.all(np.any(samples, axis=-1)):
        raise ValueError("eikonal samples must avoid the origin")
    return float(np.max(np.abs(dual_norm(h, h.gradient(samples)) - 1.0), initial=0.0))
