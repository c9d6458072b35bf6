"""Shared small helpers: the descriptor parser, seeded RNG spawning, graded
grids, Gauss-Legendre nodes, the Monte-Carlo box sampler, tanh-sinh panel quadrature."""

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


# tanh-sinh (Takahashi & Mori 1974) at the steps 2^-level of LEVELS, with t up
# to T_MAX, where a node lies about 1e-275 half-widths from its panel end
T_MAX, LEVELS = 6.0, range(2, 8)


@functools.lru_cache(maxsize=None)
def _tanh_sinh_level(level: int):
    """(distance to the nearer end, weight) of the nodes a level adds on a panel of half-width 1:
    t = j 2^-level <= T_MAX, every j >= 0 at the first level (t = 0 from each end at half weight)
    and odd j after."""
    first = level == LEVELS[0]
    t = np.arange(1 - first, int(T_MAX * 2**level) + 1, 2 - first) * 2.0**-level
    u = 0.5 * math.pi * np.sinh(t)
    return np.exp(-u) / np.cosh(u), np.where(t > 0, 0.5, 0.25) * math.pi * np.cosh(t) / np.cosh(u) ** 2


class Nodes(np.ndarray):
    """The engine's radii end + off, carrying .end, each node's nearer panel end, and .off, its
    signed offset from it: a callback with a singular factor at a kink forms the distance to it
    as (kink - end) - off, which stays exact where end + off rounds."""


def panel_quad(fn, lo, hi):
    """Tanh-sinh quadrature of fn on each panel [lo[i], hi[i]]: per-panel (values, error
    estimates, converged) arrays.

    fn takes a 1-D Nodes array and returns its values; it runs under np.errstate(all="ignore").
    Level l makes one call, on the odd nodes at step 2^-l of every panel still open.  A panel
    closes once two successive levels agree to epsabs 1e-12 or epsrel 1e-10, its terms at
    T_MAX (the truncation estimate) added to the gap; its error estimate is the smaller of that
    gap and the gap squared over the one before, plus the truncation estimate and a rounding
    floor.  A non-finite term is dropped where the finite terms beside it (either side) are
    below 1e-17 of the sum (fn overflowing at an end whose weight vanishes); any other, a
    truncation estimate above the tolerance, or the last level leaves the panel unconverged.
    """
    half = 0.5 * (hi - lo)[:, None, None] * np.array([[1.0], [-1.0]])  # signed, from each end
    ends = np.stack([lo, hi], axis=1)[:, :, None]
    values, errors, converged = np.zeros(len(lo)), np.full(len(lo), math.inf), np.zeros(len(lo), bool)
    open_, terms, previous, gaps = np.arange(len(lo)), None, math.inf, math.inf
    with np.errstate(all="ignore"):
        for level in LEVELS:
            if not open_.size:
                break
            dist, weight = _tanh_sinh_level(level)
            off = half[open_] * dist
            end = np.repeat(ends[open_], len(dist), axis=2)
            nodes = (end + off).ravel().view(Nodes)
            nodes.end, nodes.off = end.ravel(), off.ravel()
            new = fn(nodes).reshape(off.shape) * np.abs(half[open_]) * weight
            if terms is None:
                terms = new
            else:  # the earlier terms take the even places of the finer step
                terms, old = np.empty(new.shape[:2] + (2 * new.shape[2] + 1,)), terms
                terms[..., 0::2], terms[..., 1::2] = old, new
            finite = np.isfinite(terms)
            clean = terms if finite.all() else np.where(finite, terms, 0.0)
            value = 2.0**-level * clean.sum(axis=(1, 2))
            tol = np.maximum(1e-12, 1e-10 * np.abs(value))
            lost = np.zeros(len(open_), bool)
            if clean is not terms:  # the larger finite neighbour of each non-finite term
                pad = np.pad(np.abs(clean), [(0, 0), (0, 0), (1, 1)])
                beside = np.maximum(pad[..., :-2], pad[..., 2:])
                lost = 2.0**-level * np.where(finite, 0.0, beside).max(axis=(1, 2)) > 1e-17 * np.abs(value)
            tail, gap = np.abs(clean[..., -1]).sum(axis=1), np.abs(value - previous)
            done = (gap + tail <= tol) & ~lost
            # a level doubles the digits, so the gap squared over the gap before bounds the error
            error = np.fmin(gap, gap * gap / gaps) + tail + 2.0**-52 * np.abs(value)
            values[open_], errors[open_], converged[open_] = value, error, done
            if level == LEVELS[0]:  # the gap before the second level is to the sum at twice the step
                gap = np.abs(value - 2.0 ** (1 - level) * clean[..., 0::2].sum(axis=(1, 2)))
            keep = ~(done | lost | (tail > tol))
            open_, terms, previous, gaps = open_[keep], terms[keep], value[keep], gap[keep]
    return values, errors, converged


def split_quad(fn, a, b, points=()):
    """panel_quad of fn on [a, b] (a <= b) split at the interior points, so that every kink is
    a panel end: (value, summed error estimate, whether every panel converged).  Nonconvergence
    comes back in the flag, not as a warning, so no caller touches the process-wide filters."""
    edges = np.unique(np.array([a, b, *(p for p in points if a < p < b)], dtype=float))
    values, errors, converged = panel_quad(fn, edges[:-1], edges[1:])
    return float(values.sum()), float(errors.sum()), bool(converged.all())


def route_quad(route, integrand, a, b, points):
    """split_quad of r -> integrand(route(r), r): route gets the engine's Nodes, so a profile can
    read a node's distance to its panel end, and integrand the radii as a plain array."""
    return split_quad(lambda x: integrand(route(x), x.view(np.ndarray)), a, b, points)


def unconverged(converged: bool) -> dict:
    """The diagnostics entry of a report whose quadrature did not converge, else none."""
    return {} if converged else {"unconverged_quadrature": True}


def warn_unconverged(converged: bool, what: str) -> None:
    """One IntegrationWarning for a quadrature whose panels did not all converge."""
    if not converged:
        msg = f"{what}: quadrature did not converge on every panel"
        warnings.warn(msg, integrate.IntegrationWarning, stacklevel=3)
