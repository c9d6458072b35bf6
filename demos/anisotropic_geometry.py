#!/usr/bin/env python3
"""Minkowski norms, duals, Wulff shapes, and volume-ratio estimation.

Builds the l4 and interpolating-family instances, checks dual pairings
and unit-ball volumes, then estimates the asymptotic volume ratio by
Monte Carlo and places it inside its closed-form band.
"""

import numpy as np

from finsler_sharp.manifold import (
    avr,
    ball_volume_mc,
    euclidean_instance,
    f_eps_instance,
    minkowski_instance,
)
from finsler_sharp.norms import WulffShape, lp_norm, normalize
from finsler_sharp.constants import omega_n


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("dual pairing on the l4 norm (Holder conjugate is l4/3)")
h = lp_norm(2, 4.0)
rng = np.random.default_rng(7)
for _ in range(4):
    y = rng.normal(size=2)
    a = rng.normal(size=2)
    pairing = float(a @ y)
    bound = h.dual(a) * h(y)
    print(f"<a, y> = {pairing:+9.5f}   H*(a) H(y) = {bound:9.5f}   ok = {pairing <= bound + 1e-12}")

banner("normalization fixes the unit-ball volume to omega_n")
raw = lp_norm(2, 4.0)
unit = normalize(raw)
print(f"raw l4 ball volume       : {WulffShape(norm=raw, radius=1.0).volume():.10f}")
print(f"normalized l4 ball volume: {WulffShape(norm=unit, radius=1.0).volume():.10f}")
print(f"omega_2                  : {omega_n(2):.10f}")

banner("instance ball volumes scale like r^n (Monte Carlo)")
m = minkowski_instance(unit)
for r in (0.5, 1.0, 2.0):
    est = ball_volume_mc(m, None, r, n_samples=100_000, seed=1)
    print(f"r = {r:3.1f}:  mc vol = {est.value:.5f} +- {3 * est.stderr:.5f}"
          f"   omega_2 r^2 = {omega_n(2) * r**2:.5f}")

banner("volume-ratio point estimates")
e3 = euclidean_instance(3)
print(f"euclidean n=3 (exact)    : {avr(e3).point:.6f}")
for eps in (0.5, 1.0, 2.0):
    f = f_eps_instance(3, eps)
    est = avr(f, method="mc", n_samples=100_000, seed=1)
    lo = (1.0 + eps) ** -1.5
    print(f"eps = {eps:3.1f}:  mc point = {est.point:.4f} +- {3 * est.stderr:.4f}"
          f"   band = [{lo:.4f}, 1]   monotone = {est.bg_ok}")

banner("volume-ratio curve: monotone nonincreasing within Monte Carlo error")
f = f_eps_instance(2, 1.0)
est = avr(f, method="mc", n_samples=100_000, seed=2)
for r, ratio, se in zip(est.curve.radii, est.curve.ratios(f.dim),
                        est.curve.ratio_stderrs(f.dim)):
    print(f"r = {r:6.2f}:  vol(B_r) / (omega_n r^n) = {ratio:.5f} +- {3 * se:.5f}")
print(f"comparison principle holds within error bars: {est.bg_ok}")
