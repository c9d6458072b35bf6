"""Outside-in layer trace for the benchmark.

The library is not modified.  install() replaces each layer entry point
listed in ENTRIES, wherever a finsler_sharp module holds a reference to
it, with a wrapper that records a span: name, start, end, the enclosing
span, the check it belongs to and the workload.  Spans stay in memory
and are written as JSON lines when the run ends; uninstall() restores
every replaced attribute.

Per-layer metrics are derived from the spans (per-call medians and sample
rates, both at the reference host speed, and failure counts) and from the check outcomes (reference digits).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from dataclasses import asdict, dataclass

from workloads import SUITE_INEQUALITIES

MODULES = ("_util", "constants", "norms", "manifold", "rearrange", "verify", "pde", "cli")
LAYERS = ("norms", "manifold", "quadrature", "rearrange", "verify", "pde", "constants", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a check span
    check: str
    workload: str
    failed: bool = False
    work: float = 0.0  # Monte Carlo samples for sampler spans
    scale: float = 1.0  # to seconds at the reference host speed (hostspeed.py)

    @property
    def seconds(self) -> float:
        """Duration at the reference host speed."""
        return (self.end - self.start) * self.scale


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _dual_name(args, kwargs):
    return "norms.dual_closed" if args[0].analytic_dual is not None else "norms.dual_ascent"


def _rearrange_name(args, kwargs):
    from finsler_sharp.rearrange import RadialTestFunction

    return "rearrange.rearrange_radial" if isinstance(args[0], RadialTestFunction) else "rearrange.rearrange_grid"


def _avr_name(args, kwargs):
    return "manifold.avr_mc" if _arg(args, kwargs, 3, "method", "auto") == "mc" else "manifold.avr"


# (module, attribute, span name or namer(args, kwargs), work(args, kwargs) or None)
ENTRIES = (
    ("norms", "dual_norm", _dual_name, None),
    ("norms", "_quadrature_volume", "norms.wulff_quad", None),
    ("manifold", "ball_volume_mc", "manifold.ball_volume_mc",
     lambda a, k: float(_arg(a, k, 3, "n_samples", 1_000_000))),
    ("manifold", "avr", _avr_name, None),
    ("manifold", "finsler_gradient", "manifold.finsler_gradient", None),
    ("_util", "split_quad", "quadrature.split_quad", None),
    ("rearrange", "lq_norm_radial", "quadrature.lq_norm", None),
    ("rearrange", "layer_cake_integral", "quadrature.layer_cake", None),
    ("rearrange", "rearrange", _rearrange_name, None),
    ("rearrange", "radial_dirichlet_energy", "rearrange.dirichlet_energy", None),
    ("rearrange", "distribution", "rearrange.distribution", None),
    ("rearrange", "equimeasurability_gap", "rearrange.equimeasurability_gap", None),
    ("verify", "randomized_suite", lambda a, k: "verify." + _arg(a, k, 1, "inequality"), None),
    ("verify", "verify_isoperimetric", "verify.isoperimetric", None),
    ("pde", "first_eigenvalue", "pde.first_eigenvalue", None),
    ("pde", "eigen_quotient", "pde.eigen_quotient", None),
    ("pde", "mountain_pass_solve", "pde.mountain_pass", None),
    ("pde", "multiplicity_explore", "pde.multiplicity", None),
    ("constants", "sharp_constants", "constants.sharp_constants", None),
    ("cli", "main", lambda a, k: "cli." + _arg(a, k, 0, "argv")[0], None),
)


class Tracer:
    """Span recorder; check spans are opened by the runner, layer spans by
    the installed wrappers."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list = []

    def open(self, name: str, check: str | None = None, work: float = 0.0) -> int:
        parent = self._stack[-1] if self._stack else -1
        if check is None:
            check = self.spans[parent].check if parent >= 0 else ""
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, check, self.workload, work=work))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, failed: bool = False) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        span = self.spans[index]
        span.end = time.perf_counter()
        span.failed = failed

    def _wrap(self, fn, name, work):
        namer = name if callable(name) else (lambda a, k: name)
        # cli.main reports failures by exit code, not by raising
        by_exit_code = fn.__module__ == "finsler_sharp.cli"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(namer(args, kwargs), work=work(args, kwargs) if work else 0.0)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = by_exit_code and result != 0
                return result
            finally:
                self.close(index, failed)

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"finsler_sharp.{m}") for m in MODULES]
        for home, attr, name, work in ENTRIES:
            original = getattr(importlib.import_module(f"finsler_sharp.{home}"), attr)
            wrapper = self._wrap(original, name, work)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def wrapper_cost_s(calls: int = 20_000, rounds: int = 5) -> float:
    """Median extra cost of one traced call over the bare call, in seconds,
    measured on a no-op wrapped the way install() wraps a layer entry point."""

    def noop():
        return None

    costs = []
    for _ in range(rounds):
        wrapped = Tracer("overhead")._wrap(noop, "noop", None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - t0 - bare) / calls)
    return statistics.median(costs)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _per_call(name, scale):
    """Median duration of one call of the named span, in units of 1/scale s."""

    def value(spans):
        durations = [s.seconds for s in spans if s.name == name]
        return statistics.median(durations) * scale if durations else None

    return value


def _samples_per_s(name):
    def value(spans):
        chosen = [s for s in spans if s.name == name]
        busy = sum(s.seconds for s in chosen)
        return sum(s.work for s in chosen) / busy if chosen and busy > 0 else None

    return value


def _calls(name):
    def value(spans):
        n = sum(1 for s in spans if s.name == name)
        return float(n) if n else None

    return value


MS, US = 1e3, 1e6

# per-layer metric -> (unit, value from a span list, None when no span matched)
SPAN_METRICS = {
    "norms.dual_ascent_ms": ("ms", _per_call("norms.dual_ascent", MS)),
    "norms.dual_closed_us": ("us", _per_call("norms.dual_closed", US)),
    "norms.wulff_quad_ms": ("ms", _per_call("norms.wulff_quad", MS)),
    "manifold.mc_samples_per_s": ("1/s", _samples_per_s("manifold.ball_volume_mc")),
    "manifold.avr_mc_ms": ("ms", _per_call("manifold.avr_mc", MS)),
    "manifold.finsler_gradient_ms": ("ms", _per_call("manifold.finsler_gradient", MS)),
    "quadrature.split_quad_ms": ("ms", _per_call("quadrature.split_quad", MS)),
    "quadrature.split_quad_calls": ("count", _calls("quadrature.split_quad")),
    "quadrature.lq_norm_ms": ("ms", _per_call("quadrature.lq_norm", MS)),
    "quadrature.layer_cake_ms": ("ms", _per_call("quadrature.layer_cake", MS)),
    "rearrange.rearrange_radial_us": ("us", _per_call("rearrange.rearrange_radial", US)),
    "rearrange.dirichlet_energy_ms": ("ms", _per_call("rearrange.dirichlet_energy", MS)),
    "rearrange.distribution_ms": ("ms", _per_call("rearrange.distribution", MS)),
    "rearrange.equimeasurability_gap_ms": ("ms", _per_call("rearrange.equimeasurability_gap", MS)),
    **{f"verify.{ineq}_ms": ("ms", _per_call(f"verify.{ineq}", MS)) for ineq in SUITE_INEQUALITIES},
    "verify.isoperimetric_ms": ("ms", _per_call("verify.isoperimetric", MS)),
    "pde.first_eigenvalue_ms": ("ms", _per_call("pde.first_eigenvalue", MS)),
    "pde.eigen_quotient_ms": ("ms", _per_call("pde.eigen_quotient", MS)),
    "pde.mountain_pass_ms": ("ms", _per_call("pde.mountain_pass", MS)),
    "pde.multiplicity_s": ("s", _per_call("pde.multiplicity", 1.0)),
    "constants.sharp_constants_us": ("us", _per_call("constants.sharp_constants", US)),
    "cli.verify_ms": ("ms", _per_call("cli.verify", MS)),
}

# per-layer digits metric -> check groups whose smallest reference digits it reports
DIGIT_METRICS = {
    "norms.dual_digits": ("norms.dual",),
    "norms.wulff_quad_digits": ("norms.wulff",),
    "quadrature.layer_cake_digits": ("verify.layer_cake",),
    "verify.isoperimetric_digits": ("verify.isoperimetric",),
    "pde.eigen_digits": ("pde.eigen", "pde.eigen_quotient"),
    "pde.mp_residual_digits": ("pde.mp",),
    "pde.multiplicity_residual_digits": ("pde.multiplicity",),
}


def layer_metrics(spans: list[Span], results) -> dict:
    """Metrics measurable from one traced pass; results are (check, outcome)
    pairs.  Metrics whose layer the pass never entered are left out."""
    out = {}
    for name, (unit, fn) in SPAN_METRICS.items():
        value = fn(spans)
        if value is not None:
            out[name] = {"value": value, "unit": unit}
    for name, groups in DIGIT_METRICS.items():
        digits = [o.digits for c, o in results if c.group in groups and o.digits is not None]
        if digits:
            out[name] = {"value": min(digits), "unit": "digits"}
    return out


def failure_metrics(spans: list[Span]) -> dict:
    return {
        f"{layer}.failed": {
            "value": sum(1 for s in spans if s.parent >= 0 and s.failed and s.name.startswith(layer + ".")),
            "unit": "count",
        }
        for layer in LAYERS
    }


def metric_names() -> list:
    return [*SPAN_METRICS, *DIGIT_METRICS, *(f"{layer}.failed" for layer in LAYERS)]
