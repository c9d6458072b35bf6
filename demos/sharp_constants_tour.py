#!/usr/bin/env python3
"""Tour of the sharp constants and the extremal families that attain them.

Prints the constant table for a few (p, n) pairs, then shows the two
sup-norm bounds touching equality on their extremal profiles, and a
radius sweep whose scaled energy sits on the closed-form limit.
"""

from finsler_sharp import verify as V
from finsler_sharp.constants import sharp_constants, support_energy_limit
from finsler_sharp.manifold import euclidean_instance
from finsler_sharp.rearrange import (
    l1_extremal_profile,
    morrey_extremal_profile,
    scale_profile,
)

CASES = [(4.0, 2), (5.0, 3), (7.0, 4)]


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("sharp constants (AVR = 1)")
header = f"{'p':>4} {'n':>3} {'support':>12} {'l1':>12} {'eta':>8}"
print(header)
for p, n in CASES:
    sc = sharp_constants(p, n, 1.0, 0.0)
    print(f"{p:4.1f} {n:3d} {sc.morrey_support:12.8f} {sc.morrey_l1:12.8f} {sc.eta:8.5f}")

banner("support bound: extremal profile attains the constant")
for p, n in CASES:
    m = euclidean_instance(n)
    u = morrey_extremal_profile(p, n, 1.0)
    rep = V.verify_morrey_support(m, u, p)
    print(f"p={p}, n={n}:  sup = {rep.lhs:.10f}   bound = {rep.rhs:.10f}"
          f"   ratio = {rep.ratio:.12f}")

banner("L1 bound: extremal profile attains the constant")
for p, n in CASES:
    m = euclidean_instance(n)
    u = l1_extremal_profile(p, n, 1.0)
    rep = V.verify_morrey_l1(m, u, p)
    print(f"p={p}, n={n}:  ratio = {rep.ratio:.10f}   eta = {rep.params['eta']:.6f}")

banner("both reports are invariant under u -> c u")
m = euclidean_instance(2)
u = morrey_extremal_profile(4.0, 2, 1.0)
for c in (1.0, 3.0, 0.1):
    rep = V.verify_morrey_support(m, scale_profile(u, c), 4.0)
    print(f"c = {c:4.1f}:  ratio = {rep.ratio:.12f}")

banner("radius sweep: scaled energy sits on its limit at every R")
sw = V.sharpness_sweep_support(euclidean_instance(2), 4.0, [1.0, 2.0, 4.0, 8.0])
target = support_energy_limit(4.0, 2, 1.0)
print(f"closed-form limit: {target:.10f}")
for row in sw.rows:
    print(f"R = {row['R']:4.1f}:  R^(p-n) * energy = {row['scaled_energy']:.10f}"
          f"   inferred/sharp = {row['ratio']:.12f}")
print(f"extrapolated limit {sw.limit:.10f}  ->  {'PASS' if sw.passed else 'FAIL'}")
