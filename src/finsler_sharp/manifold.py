"""Finsler manifold instances on a single global chart of R^n.

Every shipped instance has an x-independent metric: Euclidean space,
a Minkowski space built from any norm, and the warped fiber-norm family
with a Euclidean base, which is itself a Minkowski norm.  Distances and
ball volumes are therefore exact; Monte-Carlo estimators exist alongside
them as consistency checks, and the warped family additionally carries
the certified interval implied by its metric sandwich
g <= F_eps <= sqrt(1 + eps) g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import REQUIRED, box_volume, build_from_descriptor
from .constants import ball_volume, omega_n
from .norms import (
    NORMS,
    MinkowskiNorm,
    VolumeEstimate,
    box_half_widths,
    dual_norm,
    euclidean_norm,
    f_eps_fiber_norm,
    lp_norm,
    normalize as normalize_norm,
    wulff_volume_estimate,
)


@dataclass(frozen=True)
class FinslerInstance:
    """A manifold model with metric F(x, y) = norm(y) on the chart R^n."""

    dim: int
    kind: str  # "euclidean" | "minkowski" | "f_eps"
    norm: MinkowskiNorm
    eps: Optional[float] = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class BallVolumeCurve:
    radii: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray

    def ratios(self, n: int):
        return self.values / (omega_n(n) * self.radii**n)

    def ratio_stderrs(self, n: int):
        return self.stderrs / (omega_n(n) * self.radii**n)


@dataclass(frozen=True)
class AvrEstimate:
    lo: float
    hi: float
    point: float
    stderr: float
    method: str
    bg_ok: bool
    curve: Optional[BallVolumeCurve] = None


def euclidean_instance(n: int) -> FinslerInstance:
    return FinslerInstance(dim=n, kind="euclidean", norm=euclidean_norm(n))


def minkowski_instance(h: MinkowskiNorm) -> FinslerInstance:
    return FinslerInstance(dim=h.dim, kind="minkowski", norm=h)


def f_eps_instance(n: int, eps: float, normalize: bool = False) -> FinslerInstance:
    """Warped fiber-norm instance over a Euclidean base.

    With a Euclidean base the metric does not depend on the base point,
    so the instance is a Minkowski space and all closed forms apply; the
    sandwich interval is still reported by avr() as the certificate the
    construction provides without using that flatness.
    """
    h = f_eps_fiber_norm(n, eps)
    if normalize:
        h = normalize_norm(h)
    return FinslerInstance(dim=n, kind="f_eps", norm=h, eps=eps)


def _minkowski(norm: MinkowskiNorm, n: Optional[int], normalize: bool) -> FinslerInstance:
    if n is not None and n != norm.dim:
        raise ValueError("instance and norm dimensions disagree")
    return minkowski_instance(normalize_norm(norm) if normalize and not norm.normalized else norm)


INSTANCES = {
    "euclidean": (euclidean_instance, {"n": (int, REQUIRED)}),
    "minkowski": (_minkowski, {"n": (int, None), "norm": (NORMS, REQUIRED),
                               "normalize": (bool, False)}),
    "f_eps": (f_eps_instance, {"n": (int, REQUIRED), "eps": (float, REQUIRED),
                               "normalize": (bool, False)}),
    # shorthand for the normalized l^p Minkowski instance
    "lp": (lambda n, p, normalize: _minkowski(lp_norm(n, p), n, normalize),
           {"n": (int, REQUIRED), "p": (float, REQUIRED), "normalize": (bool, True)}),
}


def instance_from_descriptor(desc) -> FinslerInstance:
    """The instance a descriptor such as 'f_eps:n=3,eps=0.5' names."""
    return build_from_descriptor(desc, INSTANCES, "instance")


def fiber_volume(m: FinslerInstance) -> VolumeEstimate:
    """Euclidean volume of the tangent unit ball, cached per instance."""
    if "fiber_volume" not in m._cache:
        m._cache["fiber_volume"] = wulff_volume_estimate(m.norm)
    return m._cache["fiber_volume"]


def bh_density(m: FinslerInstance) -> float:
    """Busemann-Hausdorff density omega_n / Vol(tangent unit ball), constant
    over the chart for every shipped instance."""
    return omega_n(m.dim) / fiber_volume(m).value


def ball_volume_mc(
    m: FinslerInstance, x0, r: float, n_samples: int = 1_000_000, seed: int = 0, workers: int = 1
) -> VolumeEstimate:
    """Monte-Carlo ball volume: density times sampled Lebesgue measure.

    The density factor comes from the deterministic fiber quadrature, so
    the reported standard error is purely the sampling error of the
    indicator of {distance < r} over the dual bounding box.  Every shipped
    instance is translation invariant, so the ball about x0 is sampled
    about the origin.  The sampler runs one stream, so workers accepts
    only 1.  A radius whose omega_n r^n or sampling box has no finite
    positive volume is refused, since its ratio would read 0/0.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    ball_volume(m.dim, r)
    half = r * box_half_widths(m.norm) * (1.0 + 1e-9)
    est = box_volume(lambda pts: m.norm(pts) < r, half, n_samples, seed, bh_density(m))
    return VolumeEstimate(*est, "mc")


def ball_volume_curve(
    m: FinslerInstance, radii, n_samples: int = 1_000_000, seed: int = 0
) -> BallVolumeCurve:
    """Monte-Carlo volumes over a radius schedule, independent streams per radius."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or not np.all(np.diff(radii) > 0) or radii[0] <= 0:
        raise ValueError("radius schedule must be increasing and positive")
    seeds = np.random.SeedSequence(seed).generate_state(len(radii))
    vals = np.empty(len(radii))
    errs = np.empty(len(radii))
    for i, r in enumerate(radii):
        # no centre: ball_volume_mc samples about the origin
        est = ball_volume_mc(m, None, float(r), n_samples=n_samples, seed=int(seeds[i]))
        vals[i], errs[i] = est.value, est.stderr
    return BallVolumeCurve(radii, vals, errs)


def bishop_gromov_ok(curve: BallVolumeCurve, n: int, sigma_level: float = 3.0) -> bool:
    """r -> Vol/ (omega_n r^n) nonincreasing within the error bars; False on
    a ratio or error bar that is not finite, which no comparison would catch."""
    q = curve.ratios(n)
    e = curve.ratio_stderrs(n)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(e))):
        return False
    for i in range(len(q) - 1):
        if q[i + 1] > q[i] + sigma_level * (e[i] + e[i + 1]):
            return False
    return True


def avr(
    m: FinslerInstance,
    r_schedule=None,
    method: str = "exact",
    n_samples: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
    sigma_level: float = 3.0,
) -> AvrEstimate:
    """Asymptotic volume ratio estimate with a Bishop-Gromov consistency check.

    Shipped instances are translation invariant, so the exact value is 1,
    which the default method="exact" returns.  method="mc" runs the honest
    estimator over the radius schedule: point estimate is the last ratio,
    the interval is the metric-sandwich certificate for the warped family
    ([(1+eps)^(-n/2), 1] over a Euclidean base) and [0, 1] otherwise, and
    a monotonicity violation beyond the error bars raises, since it would
    signal either a bug or an instance outside the admissible class.
    The sampler runs one stream, so workers accepts only 1.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    # the lower end of the metric-sandwich certificate of the warped family
    sandwich = (1.0 + m.eps) ** (-m.dim / 2.0) if m.kind == "f_eps" else None
    if method == "exact":
        lo = 1.0 if sandwich is None else sandwich
        return AvrEstimate(lo=lo, hi=1.0, point=1.0, stderr=0.0, method="exact", bg_ok=True)
    if method != "mc":
        raise ValueError(f"unknown avr method {method!r}")
    if r_schedule is None:
        r_schedule = [1.0, 2.0, 4.0, 8.0]
    curve = ball_volume_curve(m, r_schedule, n_samples=n_samples, seed=seed)
    ok = bishop_gromov_ok(curve, m.dim, sigma_level)
    if not ok:
        raise RuntimeError(
            "ball-volume ratio curve increases beyond error bars: "
            "inconsistent estimator or instance outside the admissible class"
        )
    q = curve.ratios(m.dim)
    e = curve.ratio_stderrs(m.dim)
    lo = 0.0 if sandwich is None else sandwich
    return AvrEstimate(
        lo=lo, hi=1.0, point=float(q[-1]), stderr=float(e[-1]), method="mc", bg_ok=ok, curve=curve
    )


def finsler_gradient(m: FinslerInstance, x, du) -> np.ndarray:
    """Legendre transform of the covector du at x.

    Computed as the gradient of half the squared dual norm by central
    differences; the result y* satisfies du(y*) = F*(x, du)^2 and
    F(x, y*) = F*(x, du).  du = 0 maps to the zero vector.
    """
    du = np.asarray(du, dtype=float)
    if not np.any(du):
        return np.zeros(m.dim)
    h = 1e-6 * max(1.0, float(np.linalg.norm(du)))
    # the 2n shifted covectors du +- h e_j in one batch
    vals = dual_norm(m.norm, du + h * np.concatenate([np.eye(m.dim), -np.eye(m.dim)]))
    return (vals[: m.dim] ** 2 - vals[m.dim :] ** 2) / (4.0 * h)
