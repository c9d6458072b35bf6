"""Shared small helpers: thread resolution, seeded RNG spawning, graded grids,
the Monte-Carlo box sampler, panel quadrature."""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import integrate

ENV_THREADS = "FINSLER_SHARP_THREADS"


def resolve_workers(workers=None) -> int:
    """Explicit worker count, else the FINSLER_SHARP_THREADS override, else 1."""
    if workers is not None:
        w = int(workers)
    else:
        w = int(os.environ.get(ENV_THREADS, "1"))
    if w < 1:
        raise ValueError(f"worker count must be >= 1, got {w}")
    return w


def spawn_rngs(seed, workers: int):
    """Independent deterministic generators, one per worker."""
    children = np.random.SeedSequence(seed).spawn(workers)
    return [np.random.default_rng(c) for c in children]


def graded_grid(a: float, b: float, n: int, exponent: float = 2.0) -> np.ndarray:
    """Grid on [a, b] clustered at both endpoints with the given grading power."""
    t = np.linspace(0.0, 1.0, n)
    # symmetric smoothstep-style map: derivative vanishes to order exponent-1 at both ends
    s = t**exponent / (t**exponent + (1.0 - t) ** exponent)
    return a + (b - a) * s


def chunk_sizes(total: int, parts: int):
    """Split total into parts near-equal chunks, deterministically."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def box_hits(inside, half, n_samples: int, seed, workers: int) -> int:
    """Count the points of a uniform sample of the box [-half, half] for which
    inside(points) holds.

    The sample is split into one seeded stream per worker, drawn in blocks
    of at most 262144 points, so a fixed seed and worker count give the
    same count.
    """
    half = np.asarray(half, dtype=float)

    def count(rng, size):
        hits = 0
        done = 0
        while done < size:
            m = min(size - done, 262144)
            pts = rng.uniform(-1.0, 1.0, size=(m, len(half))) * half
            hits += int(np.count_nonzero(inside(pts)))
            done += m
        return hits

    sizes = chunk_sizes(n_samples, workers)
    rngs = spawn_rngs(seed, workers)
    if workers == 1:
        return count(rngs[0], sizes[0])
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return sum(ex.map(count, rngs, sizes))


def split_quad(fn, a, b, points=(), epsabs=1e-12, epsrel=1e-10, limit=300):
    """Adaptive quadrature on [a, b] split at interior kink locations.

    scipy's QAGS handles integrable endpoint singularities on each panel;
    splitting keeps kinks at panel endpoints where the extrapolation works.
    Returns (value, summed error estimate, whether every panel converged).
    QUADPACK's complaints come back in the flag rather than as warnings, so
    no caller has to touch the process-wide warning filters.
    """
    pts = sorted(float(p) for p in points if a < p < b)
    total, error, converged = 0.0, 0.0, True
    for lo, hi in zip([a] + pts, pts + [b]):
        if hi <= lo:
            continue
        # with full_output a complaint arrives as a fourth entry, not a warning
        val, err, _, *complaint = integrate.quad(
            fn, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1
        )
        total, error, converged = total + val, error + err, converged and not complaint
    return total, error, converged


def warn_unconverged(converged: bool, what: str) -> None:
    """One IntegrationWarning for a quadrature whose panels did not all converge."""
    if not converged:
        msg = f"{what}: quadrature did not converge on every panel"
        warnings.warn(msg, integrate.IntegrationWarning, stacklevel=3)
