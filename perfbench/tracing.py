"""Per-layer tracing of ``musielak`` from outside the package.

``Tracer.install`` wraps each traced function and rebinds every name that
refers to it in every loaded ``musielak`` module, because ``perms``,
``embed`` and ``campaigns`` import ``luxemburg_norm`` and
``all_permutations`` by name: wrapping only the defining module would miss
their calls. ``Tracer.uninstall`` puts the originals back.

A span is one call of a traced function. Spans nest on a stack; a span's
self time is its duration minus the durations of the spans it directly
contains. Spans are aggregated per name in memory as they close.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field

# (defining module, attribute path, span name)
SPANS = (
    ("convex", "luxemburg_norm", "convex.luxemburg_norm"),
    ("perms", "ave_l2", "perms.ave_l2"),
    ("perms", "all_permutations", "perms.all_permutations"),
    ("perms", "ave_max_two", "perms.ave_max_two"),
    ("perms", "prefix_sum_system", "perms.prefix_sum_system"),
    ("construct", "roundtrip_check", "construct.roundtrip_check"),
    ("construct", "matrix_from_functions", "construct.matrix_from_functions"),
    ("construct", "functions_from_matrix", "construct.functions_from_matrix"),
    ("construct", "FProfile.integral", "construct.FProfile.integral"),
    ("construct", "FProfile.value", "construct.FProfile.value"),
    ("construct", "quad", "construct.quad"),
    ("embed", "psi_image_norm", "embed.psi_image_norm"),
    ("embed", "distortion_estimate", "embed.distortion_estimate"),
    ("embed", "khintchine_sandwich_check", "embed.khintchine_sandwich_check"),
    ("cli", "main", "cli"),
)
# scalar Orlicz evaluations are counted, not spanned: there are ~10^5 per job
ORLICZ_CALLS = (("convex", "PiecewiseAffineConvex.__call__"), ("convex", "PowerFunction.__call__"))
NORM = "convex.luxemburg_norm"
AVERAGES = ("perms.ave_l2", "perms.ave_max_two", "embed.psi_image_norm")
PACKAGE = "musielak"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    active: int = 0
    durations: list = field(default_factory=list)

    def quantile_us(self, q: float) -> float:
        if not self.durations:
            return 0.0
        if len(self.durations) == 1:
            return self.durations[0] * 1e6
        cuts = statistics.quantiles(self.durations, n=100, method="inclusive")
        return cuts[round(q * 100) - 1] * 1e6


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.orlicz_evals = 0
        self.norm_evals = 0
        self._stack: list = []
        self._saved: list = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == PACKAGE]

    def _resolve(self, module: str, path: str):
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is None or attr not in vars(owner):
            return None, attr, None  # gone from this version of the program
        return owner, attr, vars(owner)[attr]

    def _rebind(self, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def install(self) -> None:
        for module, path, span in SPANS:
            owner, attr, original = self._resolve(module, path)
            self.stats.setdefault(span, SpanStats())
            if original is not None:
                self._rebind(owner, attr, original, self._span(span, original))
        for module, path in ORLICZ_CALLS:
            owner, attr, original = self._resolve(module, path)
            if original is not None:
                self._rebind(owner, attr, original, self._counter(original))
        campaigns = sys.modules[f"{PACKAGE}.campaigns"]
        self.stats.setdefault("campaigns", SpanStats())
        for name, value in list(vars(campaigns).items()):
            if name.endswith("_campaign") and callable(value):
                self._rebind(campaigns, name, value, self._span("campaigns", value))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        stats, stack = self.stats[name], self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stats.active += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stats.active -= 1
                children = stack.pop()
                stats.calls += 1
                stats.self_s += took - children
                stats.durations.append(took)
                if stack:
                    stack[-1] += took

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        norm = self.stats[NORM]

        def wrapper(*args, **kwargs):
            self.orlicz_evals += 1
            if norm.active:
                self.norm_evals += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- metrics --------------------------------------------------------------

    def metrics(self, jobs: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        Counts and self times are per traced job, so a run cut short by
        its time limit does not read as fewer calls.
        """
        s = self.stats
        out = {}

        def span(name, *fields):
            st = s[name]
            for f in fields:
                if f == "calls":
                    out[f"{name}.calls"] = (st.calls / jobs, "count/job")
                elif f == "self_s":
                    out[f"{name}.self_s"] = (st.self_s / jobs, "s/job")
                else:  # us_p50, us_p90
                    out[f"{name}.{f}"] = (st.quantile_us(int(f[4:]) / 100), "us")

        span(NORM, "calls", "self_s", "us_p50", "us_p90")
        out["convex.orlicz_evals"] = (self.orlicz_evals / jobs, "count/job")
        out["convex.evals_per_norm"] = (self.norm_evals / s[NORM].calls if s[NORM].calls else 0.0, "ratio")
        span("perms.ave_l2", "calls", "self_s", "us_p50", "us_p90")
        span("perms.all_permutations", "calls", "self_s")
        span("perms.ave_max_two", "calls", "self_s")
        span("perms.prefix_sum_system", "self_s")
        averages = sum(s[a].calls for a in AVERAGES)
        tables = s["perms.all_permutations"].calls
        out["perms.tables_per_average"] = (tables / averages if averages else 0.0, "ratio")
        for name in (
            "construct.roundtrip_check",
            "construct.matrix_from_functions",
            "construct.functions_from_matrix",
            "construct.FProfile.integral",
            "construct.FProfile.value",
            "construct.quad",
        ):
            span(name, "calls", "self_s")
        span("embed.psi_image_norm", "calls", "self_s", "us_p50")
        span("embed.distortion_estimate", "self_s")
        span("embed.khintchine_sandwich_check", "self_s")
        span("campaigns", "self_s")
        span("cli", "self_s")
        return out
