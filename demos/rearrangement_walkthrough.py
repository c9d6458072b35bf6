#!/usr/bin/env python3
"""Anisotropic decreasing rearrangement on a concrete two-bump function.

Starts from a grid function with two separated bumps, rearranges it into
its radial decreasing representative, and walks the classical chain:
same distribution, same Lq norms, smaller gradient energy, and the
layer-cake identity that underlies all of it.
"""

import numpy as np

from finsler_sharp.manifold import euclidean_instance
from finsler_sharp.rearrange import (
    cone_profile,
    equimeasurability_gap,
    grid_function_from_callable,
    hlp_check,
    layer_cake_integral,
    lq_norm_grid,
    lq_norm_star,
    polya_szego_check,
    rearrange,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


m = euclidean_instance(2)


def two_bumps(pts):
    d1 = np.sum((pts - np.array([1.2, 0.0])) ** 2, axis=1)
    d2 = np.sum((pts - np.array([-1.4, 0.5])) ** 2, axis=1)
    return np.exp(-2.0 * d1) + 0.6 * np.exp(-3.0 * d2)


u = grid_function_from_callable(two_bumps, box_half=(3.0, 3.0), shape=(256, 256))

banner("rearrange a two-bump grid function")
star = rearrange(u, m)
print(f"input sup  = {float(u.values.max()):.8f}")
print(f"output sup = {star.sup():.8f}")
print(f"distribution gap (equimeasurability) = {equimeasurability_gap(u, m, star):.3e}")

banner("Lq norms survive rearrangement")
for q in (1.0, 2.0, 4.0):
    before = lq_norm_grid(u, q, m)
    after = lq_norm_star(star, q)
    print(f"q = {q:3.1f}:  grid = {before:.8f}   rearranged = {after:.8f}"
          f"   rel gap = {abs(before - after) / before:.2e}")

banner("gradient energy drops strictly for the two-bump input")
rep = polya_szego_check(u, m, 2.0)
print(f"energy(u)  = {rep.lhs:.8f}")
print(f"energy(u*) = {rep.rhs:.8f}")
print(f"ratio = {rep.ratio:.6f}  (> 1 means symmetrization helped)  passed = {rep.passed}")

banner("radial input is a fixed point, energies agree")
cone = cone_profile(radius=1.0, height=1.0)
rep = polya_szego_check(cone, m, 2.0)
print(f"ratio on an already-radial cone = {rep.ratio:.10f}")

banner("weighted rearrangement bound (decreasing radial weight)")
rep = hlp_check(cone, m, lambda r: np.exp(-0.5 * np.asarray(r) ** 2), 2.0)
print(f"centered weight:  lhs = {rep.lhs:.8f}  rhs = {rep.rhs:.8f}  passed = {rep.passed}")

banner("layer-cake identity, smooth and singular integrands")
g = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
dg = lambda r: -2.0 * np.asarray(r, dtype=float) * g(r)
lhs, rhs = layer_cake_integral(m, g, 3.0, fprime=dg)
print(f"gaussian : direct = {lhs:.10f}   layer-cake = {rhs:.10f}")

e3 = euclidean_instance(3)
w = lambda r: np.where(np.asarray(r) > 0, np.asarray(r, dtype=float) ** -1.5, np.inf)
dw = lambda r: -1.5 * np.asarray(r, dtype=float) ** -2.5
lhs, rhs = layer_cake_integral(e3, w, 2.0, fprime=dw, points=(1e-6,))
print(f"singular : direct = {lhs:.10f}   layer-cake = {rhs:.10f}")
