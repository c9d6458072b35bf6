"""Shared small helpers: the descriptor parser, seeded RNG spawning, graded
grids, Gauss-Legendre nodes, the Monte-Carlo box sampler, panel quadrature."""

from __future__ import annotations

import functools
import math
import numbers
import warnings

import numpy as np
from scipy import integrate

REQUIRED = object()  # table default of a key that every descriptor must give
BLOCK = 16384  # rows of one vectorized norm evaluation, so its arrays stay in cache


def _scalar(text: str):
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_descriptor(spec) -> dict:
    """'name:k=v,k=v' -> {'kind': name, k: v, ...} with true/false, integers
    and reals typed; a dict is copied."""
    if isinstance(spec, dict):
        return dict(spec)
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"bad descriptor: {spec!r}")
    head, _, rest = spec.partition(":")
    out = {"kind": head.strip()}
    for item in rest.split(",") if rest.strip() else ():
        key, eq, val = item.partition("=")
        if not eq:
            raise ValueError(f"descriptor item {item!r} is not key=value")
        out[key.strip()] = _scalar(val.strip())
    return out


def _coerce(value, typ, where: str):
    """value as typ: int, float, bool, str, or list (of reals)."""
    if typ is list and isinstance(value, (list, tuple)):
        return [_coerce(v, float, where) for v in value]
    if (typ is str and isinstance(value, str)) or (typ is bool and value in (True, False)):
        return typ(value)  # 0 and 1 compare equal to the bools
    if typ in (int, float) and isinstance(value, numbers.Real) and not isinstance(value, bool):
        if math.isnan(value):
            raise ValueError(f"{where} is NaN")
        if typ is int and not float(value).is_integer():
            raise ValueError(f"{where} needs an integer, got {value!r}")
        return typ(value)
    raise ValueError(f"{where} needs {typ.__name__}, got {value!r}")


def build_from_descriptor(spec, table: dict, what: str, **context):
    """The object a 'kind:k=v,...' string or a {'kind': ..} dict describes.

    table maps each kind to (constructor, {key: (type, default)}).  REQUIRED
    as the default makes a key mandatory, and a table as the type makes the
    value a nested descriptor; the constructor gets every declared key.
    context fills a declared key the descriptor leaves out, and a key the
    descriptor gives must equal it (a profile's n against the instance
    dimension).  A malformed descriptor raises ValueError naming the key.
    """
    d = parse_descriptor(spec)
    kind = d.pop("kind", None)
    if kind not in table:
        raise ValueError(f"unknown {what} kind {kind!r}; known: {', '.join(table)}")
    make, keys = table[kind]
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ValueError(f"{what} {kind!r}: unknown key {unknown[0]!r}; known: {', '.join(keys)}")
    args = {}
    for key, (typ, default) in keys.items():
        where = f"{what} {kind!r}: key {key!r}"
        value = d.get(key, context.get(key, default))
        if value is REQUIRED:
            raise ValueError(f"{where} is required")
        if isinstance(typ, dict):  # a nested descriptor, named by its key
            value = build_from_descriptor(value, typ, key)
        elif value is not None:
            value = _coerce(value, typ, where)
        if key in d and key in context and value != context[key]:
            raise ValueError(f"{where} is {value!r}, not the {key}={context[key]!r} in use")
        args[key] = value
    return make(**args)


def spawn_rngs(seed, n: int):
    """n independent deterministic generators spawned from seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.default_rng(c) for c in children]


def graded_grid(a: float, b: float, n: int, exponent: float) -> np.ndarray:
    """Grid on [a, b] clustered at both endpoints with the given grading power."""
    t = np.linspace(0.0, 1.0, n)
    # symmetric smoothstep-style map: derivative vanishes to order exponent-1 at both ends
    s = t**exponent / (t**exponent + (1.0 - t) ** exponent)
    return a + (b - a) * s


@functools.lru_cache(maxsize=None)
def gauss_legendre(k: int):
    """Read-only nodes and weights of the k-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(k)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def box_volume(inside, half, n_samples: int, seed, density: float):
    """Monte-Carlo measure, at a constant density, of the points of the box
    [-half, half] for which inside(points) holds: (value, 1-sigma stderr).

    The sample is one seeded stream, spawn_rngs(seed, 1)[0], drawn in
    blocks of at most BLOCK points into one reused (m, n) array by
    rng.random(out=...), 2 r - 1 and a per-column scale: the points of
    rng.uniform(-1, 1, size=(m, n)) * half bit for bit, without a fresh
    array per block.  The generator fills the stream row by row, so the
    points, the hit count and the result do not depend on BLOCK.  inside
    must not keep the array it is handed; the next block overwrites it.
    The density multiplies the box volume before the hit fraction does.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    half = np.asarray(half, dtype=float)
    rng = spawn_rngs(seed, 1)[0]
    buf = np.empty((min(n_samples, BLOCK), len(half)))
    hits = 0
    for done in range(0, n_samples, BLOCK):
        pts = buf[: min(n_samples - done, BLOCK)]
        rng.random(out=pts)
        pts *= 2.0
        pts -= 1.0
        for j, hj in enumerate(half):
            pts[:, j] *= hj
        hits += int(np.count_nonzero(inside(pts)))
    phat = hits / n_samples
    scale = density * float(np.prod(2.0 * half))
    return scale * phat, scale * math.sqrt(phat * (1.0 - phat) / n_samples)


def split_quad(fn, a, b, points=()):
    """Adaptive quadrature on [a, b] split at interior kink locations.

    fn is called with one Python float at a time and should return a
    float.  scipy's QAGS handles integrable endpoint singularities on each
    panel (epsabs 1e-12, epsrel 1e-10, at most 300 subintervals per panel);
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
            fn, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=300, full_output=1
        )
        total, error, converged = total + val, error + err, converged and not complaint
    return total, error, converged


def warn_unconverged(converged: bool, what: str) -> None:
    """One IntegrationWarning for a quadrature whose panels did not all converge."""
    if not converged:
        msg = f"{what}: quadrature did not converge on every panel"
        warnings.warn(msg, integrate.IntegrationWarning, stacklevel=3)
