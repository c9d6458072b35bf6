#!/usr/bin/env python3
"""Anisotropic decreasing rearrangement of radial sources.

A radial nonincreasing source is its own rearrangement, so the classical
chain reads as equalities here: same distribution, same Lq norms, the
same gradient energy and the same weighted integral, and the layer-cake
identity that underlies all of it.  A planted 1% taller profile shows
that the distribution comparison can fail.  Non-radial sources wait for
a piecewise-linear function module on triangulations (ROADMAP item 14).
"""

import numpy as np

from finsler_sharp.manifold import euclidean_instance
from finsler_sharp.rearrange import (
    equimeasurability_gap,
    hlp_check,
    layer_cake_integral,
    lq_norm_radial,
    plateau_profile,
    polya_szego_check,
    rearrange,
    scale_profile,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


m = euclidean_instance(2)
u = plateau_profile(inner=0.4, radius=1.2, height=1.5)

banner("a radial source is its own rearrangement")
star = rearrange(u, m)
print(f"rearrange returns the plateau itself: {star is u}")
print(f"distribution gap against itself     = {equimeasurability_gap(u, m, star):.3e}")
taller = scale_profile(u, 1.01)
print(f"gap against the 1% taller profile   = {equimeasurability_gap(u, m, taller):.3e}"
      "  (a planted defect)")

banner("Lq norms by exact radial quadrature")
for q in (1.0, 2.0, 4.0):
    print(f"q = {q:3.1f}:  ||u||_q = {lq_norm_radial(u, q, m.dim)[0]:.10f}")

banner("Polya-Szego: equality for a radial source")
rep = polya_szego_check(u, m, 2.0)
print(f"energy(u)  = {rep.lhs:.10f}")
print(f"energy(u*) = {rep.rhs:.10f}")
print(f"ratio = {rep.ratio:.10f}  passed = {rep.passed}")

banner("weighted rearrangement bound (decreasing radial weight)")
rep = hlp_check(u, m, lambda r: np.exp(-0.5 * np.asarray(r) ** 2), 2.0)
print(f"lhs = {rep.lhs:.10f}  rhs = {rep.rhs:.10f}  passed = {rep.passed}")

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
