"""Span recorder for traced benchmark runs, and the per-layer metrics it yields.

The recorder wraps public functions of the `knockout` package at run time.
It replaces every reference to a wrapped function in the loaded
`knockout.*` modules, so the copies that `runner`, `evaluate`, `verify` and
`cli` bound at import are wrapped too. Spans are kept in memory and written
out once, when the traced command ends. A span's self time is its duration
minus the time covered by its child spans.

Tracing only works in one process: traced runs use `--jobs 1`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

from workloads import METHOD_KINDS, VERIFY_CHECKS


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    kind: str | None  # method kind, inherited from the enclosing span
    attrs: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.method_kinds: dict[str, str] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, kind: str | None, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        if kind is None and parent >= 0:
            kind = self.spans[parent].kind
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, kind, attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, kind=None, before=None, after=None):
        """Wrap `fn` in a span.

        `kind(args)` names the method kind of the span; `before(args)` and
        `after(args, result)` return span attributes. `args` is the call's
        arguments bound to `fn`'s parameter names.
        """
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            args = sig.bind(*a, **kw).arguments if (kind or before or after) else None
            attrs = before(args) if before else {}
            idx = self._open(name, kind(args) if kind else None, attrs)
            try:
                result = fn(*a, **kw)
            finally:
                self._close(idx)
            if after:
                attrs.update(after(args, result))
            return result

        return wrapper

    def patch(self, module_name: str, attr: str, wrapper_factory) -> None:
        """Replace `module.attr`, and every other reference to the same object
        held by a loaded `knockout` module, with `wrapper_factory(original)`."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_factory(original)
        for name, module in list(sys.modules.items()):
            if name != "knockout" and not name.startswith("knockout."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    # -- the instrumented boundaries -------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries the per-layer metrics are computed from."""
        import knockout.cli  # noqa: F401  (loads every module whose copies get patched)
        import knockout.runner as runner

        def simple(name, **opts):
            return lambda fn: self.wrap(name, fn, **opts)

        self.patch("knockout.config", "parse_config", simple("config.parse"))

        def on_run(args):
            self.method_kinds.update({m.name: m.kind for m in args["cfg"].methods})
            return {}

        self.patch("knockout.runner", "run_experiment", simple("runner.run", before=on_run))
        self.patch("knockout.runner", "build_repetition", simple("runner.build"))
        self.patch("knockout.runner", "train_method",
                   simple("runner.train", kind=lambda a: a["method"].kind))
        # Inference glue between the sweep and the model: the method's
        # missing-input rule, encoding and the forward pass.
        for attr in ("predict_for_pattern", "proba_for_pattern"):
            setattr(runner.ModelPipeline, attr,
                    self.wrap("runner.infer", getattr(runner.ModelPipeline, attr)))

        self.patch("knockout.nn", "train", self._wrap_train)
        self.patch("knockout.nn", "loss_and_grad", simple("nn.grad"))
        self.patch("knockout.nn", "predict",
                   simple("nn.predict", before=lambda a: {"rows": _rows(a["rows"])}))

        self.patch("knockout.augment", "merge_observed", simple("augment.merge"))
        self.patch("knockout.augment", "apply_knockout", simple("augment.knockout"))
        self.patch("knockout.missingness", "sample_mask", simple("missingness.mask"))
        self.patch("knockout.missingness", "sample_masks", simple("missingness.mask"))
        self.patch("knockout.schema", "encode_inputs", simple("schema.encode"))
        self.patch("knockout.schema", "apply_normalization",
                   simple("schema.normalize", before=lambda a: {"rows": _rows(a["rows"])}))

        self.patch("knockout.worlds", "bayes_conditional_mean", simple("worlds.oracle"))
        for fn in ("sample_gaussian_world", "draw_dataset", "generate_mixed_classification"):
            self.patch("knockout.worlds", fn, simple("worlds.data"))

        self.patch("knockout.baselines", "fit_imputer", simple("baselines.fit"))
        self.patch("knockout.baselines", "impute", simple(
            "baselines.impute",
            before=lambda a: {"imputer": type(a["imputer"]).__name__, "rows": _rows(a["x"])},
        ))

        self.patch("knockout.evaluate", "run_pattern_sweep", self._wrap_sweep)

        self.patch("knockout.discrete", "verify_out_of_support", simple(
            "discrete.verify", after=lambda a, result: {"equalities": int(result)}))
        for check in VERIFY_CHECKS:
            self.patch("knockout.verify", f"check_{check}", simple(f"verify.check.{check}"))
        self.patch("knockout.verify", "verify_all", simple("verify.all"))

    def _wrap_train(self, train):
        """nn.train, with its augmentation hook wrapped as a child span."""
        sig = inspect.signature(train)
        traced = self.wrap("nn.train", train, before=lambda a: {"steps": a["cfg"].steps})

        @functools.wraps(train)
        def wrapper(*a, **kw):
            args = sig.bind(*a, **kw).arguments
            if args.get("augment") is not None:
                args["augment"] = self.wrap("nn.hook", args["augment"])
            return traced(**args)

        return wrapper

    def _wrap_sweep(self, sweep):
        """run_pattern_sweep, with every metric callable wrapped as an
        `evaluate.pattern` span tagged with its method's kind."""
        traced = self.wrap("evaluate.sweep", sweep)
        from knockout.missingness import mask_to_bits

        def pattern_fn(method, rep, fn):
            kind = self.method_kinds.get(method)

            @functools.wraps(fn)
            def call(pattern):
                attrs = {"key": (method, rep, mask_to_bits(pattern))}
                idx = self._open("evaluate.pattern", kind, attrs)
                try:
                    return fn(pattern)
                finally:
                    self._close(idx)

            return call

        @functools.wraps(sweep)
        def wrapper(method_metrics, patterns, n_test):
            wrapped = {
                method: [
                    {metric: pattern_fn(method, r, fn) for metric, fn in rep.items()}
                    for r, rep in enumerate(reps)
                ]
                for method, reps in method_metrics.items()
            }
            return traced(wrapped, patterns, n_test)

        return wrapper

    # -- output ------------------------------------------------------------

    def to_json(self) -> list:
        return [
            [s.name, s.start, s.end, s.parent, s.kind,
             {k: list(v) if isinstance(v, tuple) else v for k, v in s.attrs.items()}]
            for s in self.spans
        ]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def spans_from_json(data: list) -> list[Span]:
    return [Span(n, s, e, p, k, a) for n, s, e, p, k, a in data]


# -- per-layer metrics -------------------------------------------------------

PER_LAYER_UNITS = {
    **{f"nn.step_us.{k}": "us" for k in METHOD_KINDS},
    "nn.grad_us": "us",
    "nn.opt_us": "us",
    "nn.hook_us": "us",
    "augment.merge_us": "us",
    "missingness.mask_us": "us",
    "schema.encode_us": "us",
    "nn.predict_rows_per_s": "rows/s",
    "augment.knockout_us": "us",
    "schema.normalize_rows_per_s": "rows/s",
    "worlds.oracle_ms_per_pattern": "ms",
    "evaluate.self_s": "s",
    "baselines.knn_rows_per_s": "rows/s",
    "baselines.linreg_rows_per_s": "rows/s",
    "baselines.fit_s": "s",
    **{f"evaluate.pattern_s.{k}": "s" for k in METHOD_KINDS},
    "evaluate.sweep_s": "s",
    "runner.build_s": "s",
    "runner.train_s": "s",
    "runner.write_s": "s",
    "worlds.data_s": "s",
    "config.parse_s": "s",
    "discrete.equalities_per_s": "1/s",
    **{f"verify.check_s.{c}": "s" for c in VERIFY_CHECKS},
    "trace.overhead_s": "s",
    "evaluate.report_max_rel_diff": "ratio",
}

# Layers for the self-time shares: the first component of a span name.
LAYERS = ("config", "runner", "nn", "augment", "missingness", "schema", "worlds",
          "baselines", "evaluate", "discrete", "verify")


def _ratio(num: float, den: float) -> float:
    """A rate or mean; 0.0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def _child_time(spans: list[Span]) -> list[float]:
    """Time each span's direct children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.dur
    return child_time


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric except the two the benchmark run adds
    (`trace.overhead_s`, `evaluate.report_max_rel_diff`)."""
    child_time = _child_time(spans)
    ancestors_cache: dict[int, frozenset] = {}

    def ancestors(i: int) -> frozenset:
        if i not in ancestors_cache:
            p = spans[i].parent
            ancestors_cache[i] = frozenset() if p < 0 else ancestors(p) | {spans[p].name}
        return ancestors_cache[i]

    def select(name, inside=None):
        out = []
        for i, s in enumerate(spans):
            if s.name != name:
                continue
            if s.parent >= 0 and spans[s.parent].name == name:
                continue  # count a call once, not its inner re-entry
            if inside is not None and inside not in ancestors(i):
                continue
            out.append(i)
        return out

    def total(idx):
        return sum((spans[i].dur for i in idx), 0.0)

    def mean_us(idx):
        return _ratio(total(idx), len(idx)) * 1e6

    def rate(idx, attr):
        return _ratio(sum(spans[i].attrs.get(attr, 0) for i in idx), total(idx))

    m: dict[str, float] = {}
    trains = select("nn.train")
    steps = sum(spans[i].attrs["steps"] for i in trains)
    for kind in METHOD_KINDS:
        k_idx = [i for i in trains if spans[i].kind == kind]
        k_steps = sum(spans[i].attrs["steps"] for i in k_idx)
        m[f"nn.step_us.{kind}"] = _ratio(total(k_idx), k_steps) * 1e6
    m["nn.grad_us"] = mean_us(select("nn.grad", inside="nn.train"))
    m["nn.opt_us"] = _ratio(sum(spans[i].dur - child_time[i] for i in trains), steps) * 1e6
    m["nn.hook_us"] = mean_us(select("nn.hook"))
    m["augment.merge_us"] = mean_us(select("augment.merge", inside="nn.train"))
    m["missingness.mask_us"] = mean_us(select("missingness.mask", inside="nn.train"))
    m["schema.encode_us"] = mean_us(select("schema.encode", inside="nn.train"))

    m["nn.predict_rows_per_s"] = rate(select("nn.predict"), "rows")
    m["augment.knockout_us"] = mean_us(select("augment.knockout", inside="evaluate.sweep"))
    m["schema.normalize_rows_per_s"] = rate(select("schema.normalize"), "rows")
    oracle = select("worlds.oracle")
    m["worlds.oracle_ms_per_pattern"] = _ratio(total(oracle), len(oracle)) * 1e3
    m["evaluate.self_s"] = sum(
        (s.dur - child_time[i] for i, s in enumerate(spans) if s.name.startswith("evaluate.")),
        0.0,
    )

    impute = select("baselines.impute")
    for imputer, key in (("KNN", "knn"), ("LinReg", "linreg")):
        idx = [i for i in impute if spans[i].attrs["imputer"] == imputer]
        m[f"baselines.{key}_rows_per_s"] = rate(idx, "rows")
    m["baselines.fit_s"] = total(select("baselines.fit"))

    patterns = select("evaluate.pattern")
    for kind in METHOD_KINDS:
        idx = [i for i in patterns if spans[i].kind == kind]
        keys = {tuple(spans[i].attrs["key"]) for i in idx}
        m[f"evaluate.pattern_s.{kind}"] = _ratio(total(idx), len(keys))
    sweeps = select("evaluate.sweep")
    m["evaluate.sweep_s"] = total(sweeps)

    m["runner.build_s"] = total(select("runner.build"))
    m["runner.train_s"] = total(select("runner.train"))
    write = 0.0
    for i in select("runner.run"):
        run = spans[i]
        inner = [spans[j].end for j in sweeps if run.start <= spans[j].start <= run.end]
        if inner:
            write += run.end - max(inner)
    m["runner.write_s"] = write
    m["worlds.data_s"] = total(select("worlds.data"))
    m["config.parse_s"] = total(select("config.parse"))

    m["discrete.equalities_per_s"] = rate(select("discrete.verify"), "equalities")
    for check in VERIFY_CHECKS:
        m[f"verify.check_s.{check}"] = total(select(f"verify.check.{check}"))
    return m


def layer_shares(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Self time per layer as a share of the traced command's wall time;
    `other` is the rest (interpreter start, imports, unwrapped code)."""
    child_time = _child_time(spans)
    shares = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        shares[s.name.split(".")[0]] += s.dur - child_time[i]
    shares = {k: v / wall_s for k, v in shares.items()}
    shares["other"] = 1.0 - sum(shares.values())
    return shares
