"""Pattern-sweep evaluation: per-pattern metrics, aggregation, reports.

Metrics are computed for every (method, repetition, pattern) triple and
aggregated by pattern popcount: patterns are averaged within a
repetition first, dispersion is reported across repetitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .missingness import mask_to_bits
from .worlds import BinnedConditional, GaussianWorld, bayes_conditional_mean

__all__ = [
    "PatternResult",
    "SweepReport",
    "mse",
    "mse_vs_bayes",
    "error_rate",
    "jsd",
    "marginal_fidelity_binned",
    "regression_pattern_metrics",
    "classification_pattern_metrics",
    "run_pattern_sweep",
    "merge_repetitions",
    "report_rows",
]

MetricFn = Callable[[np.ndarray], float]


def mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=float).ravel()
    targets = np.asarray(targets, dtype=float).ravel()
    if predictions.shape != targets.shape:
        raise ValueError(f"length mismatch: {predictions.shape} vs {targets.shape}")
    if predictions.size == 0:
        raise ValueError("mse of empty input")
    return float(np.mean((predictions - targets) ** 2))


def mse_vs_bayes(
    predictions: np.ndarray,
    world: GaussianWorld,
    x_test: np.ndarray,
    pattern: np.ndarray,
) -> float:
    """MSE between a model's predictions on the test rows under a pattern
    and the exact oracle, which conditions on the unmasked coordinates.

    The model saw the test rows with the pattern applied through its own
    imputation rule.
    """
    observed_idx = [i for i, b in enumerate(pattern) if b == 0]
    oracle = bayes_conditional_mean(world, observed_idx, x_test[:, observed_idx])
    return mse(predictions, oracle)


def error_rate(predicted_labels: np.ndarray, labels: np.ndarray) -> float:
    predicted_labels = np.asarray(predicted_labels).ravel()
    labels = np.asarray(labels).ravel()
    if predicted_labels.shape != labels.shape or labels.size == 0:
        raise ValueError("label vectors must be equal-length and nonempty")
    return float(np.mean(predicted_labels != labels))


def jsd(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence with natural log; lies in [0, ln 2]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support size")
    for name, dist in (("p", p), ("q", q)):
        if (dist < 0).any() or abs(dist.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not a normalized distribution")
    m = (p + q) / 2.0

    def _kl(a, b):
        sel = a > 0
        return float(np.sum(a[sel] * np.log(a[sel] / b[sel])))

    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def marginal_fidelity_binned(
    model_p1: np.ndarray, estimate: BinnedConditional
) -> float:
    """Mass-weighted mean JSD between model and empirical bin marginals."""
    model_p1 = np.asarray(model_p1, dtype=float)
    if model_p1.shape[0] != estimate.positions.shape[0]:
        raise ValueError("model probabilities must align with the bin positions")
    occupied = estimate.occupied
    if not occupied.any():
        raise ValueError("no occupied bins to compare against")
    mass = estimate.counts / estimate.counts.sum()
    weights = mass[occupied]
    weights = weights / weights.sum()
    divs = [
        jsd(np.array([pm, 1.0 - pm]), np.array([pe, 1.0 - pe]))
        for pm, pe in zip(model_p1[occupied], estimate.p1[occupied])
    ]
    return float(np.dot(weights, divs))


@dataclass(frozen=True)
class PatternResult:
    pattern: str
    metric: str
    per_rep: tuple[float, ...]
    n_test: int

    def __post_init__(self):
        if self.n_test <= 0:
            raise ValueError("n_test must be positive")

    @property
    def popcount(self) -> int:
        return self.pattern.count("1")

    @property
    def value(self) -> float:
        return float(np.mean(self.per_rep))


@dataclass(frozen=True)
class SweepReport:
    method: str
    metrics: tuple[str, ...]
    results: tuple[PatternResult, ...]

    def __post_init__(self):
        seen = set()
        for r in self.results:
            key = (r.metric, r.pattern)
            if key in seen:
                raise ValueError(f"duplicate pattern result {key}")
            seen.add(key)
        for metric in self.metrics:
            patterns = {r.pattern for r in self.results if r.metric == metric}
            expected = {r.pattern for r in self.results}
            if patterns != expected:
                raise ValueError(f"metric {metric} is missing some patterns")

    def by_popcount(self) -> dict[tuple[str, int], dict]:
        """Per-(metric, popcount): patterns averaged within a repetition,
        then mean/std across repetitions."""
        grouped: dict[tuple[str, int], list[PatternResult]] = {}
        for r in self.results:
            grouped.setdefault((r.metric, r.popcount), []).append(r)
        out = {}
        for key, results in sorted(grouped.items()):
            per_rep = np.mean([r.per_rep for r in results], axis=0)
            out[key] = {
                "mean": float(per_rep.mean()),
                "std": float(per_rep.std(ddof=1)) if per_rep.size > 1 else 0.0,
                "per_rep": [float(v) for v in per_rep],
                "n_patterns": len(results),
            }
        return out


def run_pattern_sweep(
    method_metrics: Mapping[str, Sequence[Mapping[str, MetricFn]]],
    patterns: Sequence[np.ndarray],
    n_test: int,
) -> dict[str, SweepReport]:
    """Evaluate every (method, repetition, pattern, metric) combination.

    ``method_metrics[name]`` is one mapping of metric name to callable per
    repetition; each callable takes a pattern and returns a finite metric
    value. The returned reports are complete: every pattern appears for
    every metric of every method.
    """
    reports = {}
    for name in sorted(method_metrics):
        reps = method_metrics[name]
        if not reps:
            raise ValueError(f"method {name!r} has no trained repetitions")
        metric_names = sorted(reps[0])
        for r, rep in enumerate(reps):
            if sorted(rep) != metric_names:
                raise ValueError(f"method {name!r} repetition {r} has inconsistent metrics")
        # Pattern by pattern, so that a model's work on one pattern (say, a
        # prediction shared by its metrics) can be dropped before the next.
        # The results keep the metric-major order.
        by_metric = {metric: [] for metric in metric_names}
        for pattern in patterns:
            bits = mask_to_bits(pattern)
            for metric in metric_names:
                values = tuple(float(rep[metric](pattern)) for rep in reps)
                if any(not math.isfinite(v) for v in values):
                    raise ValueError(
                        f"non-finite {metric} for method {name!r} at pattern {bits}"
                    )
                by_metric[metric].append(PatternResult(bits, metric, values, n_test))
        reports[name] = SweepReport(
            method=name,
            metrics=tuple(metric_names),
            results=tuple(r for metric in metric_names for r in by_metric[metric]),
        )
    return reports


def merge_repetitions(reports: Sequence[SweepReport]) -> SweepReport:
    """One method's report over all repetitions, from its per-repetition
    reports (as `run_pattern_sweep` returns them) in repetition order."""
    first = reports[0]
    layout = [(r.metric, r.pattern) for r in first.results]
    for report in reports[1:]:
        if (report.method, report.metrics) != (first.method, first.metrics) or layout != [
            (r.metric, r.pattern) for r in report.results
        ]:
            raise ValueError(f"repetition reports of method {first.method!r} do not align")
    results = []
    for same in zip(*(report.results for report in reports)):
        per_rep = tuple(v for r in same for v in r.per_rep)
        results.append(PatternResult(same[0].pattern, same[0].metric, per_rep, same[0].n_test))
    return SweepReport(first.method, first.metrics, tuple(results))


def regression_pattern_metrics(
    predict: Callable[[np.ndarray], np.ndarray],
    world: GaussianWorld | None,
    x_test: np.ndarray,
    y_test: np.ndarray,
) -> dict[str, Callable]:
    """Metric callables for one trained regression model (one repetition).

    ``predict(pattern)`` predicts every test row; the raw rows ``x_test``
    feed only the Bayes oracle. Without a world (e.g. data loaded from a
    file) there is no exact oracle, so only the observation MSE is produced.
    Both metrics share one prediction per pattern; only the latest
    pattern's prediction is kept.
    """
    latest: dict[str, np.ndarray] = {}

    def _predictions(pattern: np.ndarray) -> np.ndarray:
        key = mask_to_bits(pattern)
        if key not in latest:
            latest.clear()  # drop the previous pattern's prediction first
            latest[key] = predict(pattern)
        return latest[key]

    def _mse_obs(pattern: np.ndarray) -> float:
        return mse(_predictions(pattern), y_test)

    if world is None:
        return {"mse_obs": _mse_obs}

    def _mse_bayes(pattern: np.ndarray) -> float:
        return mse_vs_bayes(_predictions(pattern), world, x_test, pattern)

    return {"mse_obs": _mse_obs, "mse_bayes": _mse_bayes}


def classification_pattern_metrics(
    predict: Callable[[np.ndarray], np.ndarray],
    y_test: np.ndarray,
) -> dict[str, Callable]:
    """Metric callables for one trained classifier (one repetition), whose
    ``predict(pattern)`` gives every test row's class probabilities."""

    def _error(pattern: np.ndarray) -> float:
        proba = predict(pattern)
        return error_rate(np.argmax(proba, axis=1), y_test)

    return {"error": _error}


def report_rows(reports: Mapping[str, SweepReport]) -> list[tuple]:
    """Long-format rows (method, pattern, popcount, metric, rep, value)."""
    rows = []
    for name in sorted(reports):
        report = reports[name]
        for result in sorted(report.results, key=lambda r: (r.metric, r.popcount, r.pattern)):
            for rep, value in enumerate(result.per_rep):
                rows.append((name, result.pattern, result.popcount, result.metric, rep, value))
    return rows
