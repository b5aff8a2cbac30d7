"""Config-driven experiment runner.

Builds worlds, injects missingness, trains each configured method per
repetition, runs the pattern sweep, and writes reports plus a manifest.
Everything is derived deterministically from the config and its seeds,
so re-running a config reproduces the report files byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, MethodConfig, check_k_max, config_hash, default_k_max
from .config import serialize_config, train_rows
from .evaluate import (
    classification_pattern_metrics,
    marginal_fidelity_binned,
    merge_repetitions,
    regression_pattern_metrics,
    report_rows,
    run_pattern_sweep,
)
from .methods import RULES, Rule, _require_continuous
from .missingness import enumerate_patterns, inject_mcar, inject_mnar_self_censor
from .nn import NetworkSpec, Parameters, TrainConfig, TrainingDivergedError, predict, train
from .schema import (
    Categorical,
    ContinuousUnbounded,
    FeatureSchema,
    apply_normalization,
    fit_normalization,
)
from .worlds import (
    GaussianWorld,
    MixedClassWorld,
    draw_dataset,
    empirical_conditional,
    generate_mixed_classification,
    sample_gaussian_world,
)

__all__ = ["RunArtifacts", "ModelPipeline", "run_experiment", "ablate_placeholder", "sweep_saved_models"]

# Stream labels keep the per-purpose generators independent of each other.
_WORLD_STREAM, _DATA_STREAM, _MISSING_STREAM, _TRAIN_STREAM = 0, 1, 2, 3


def _rng_for(seed0: int, rep: int, stream: int, extra: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed0, rep, stream, extra]))


def _train_seed(seed0: int, rep: int, method_index: int) -> int:
    ss = np.random.SeedSequence([seed0, rep, _TRAIN_STREAM, method_index])
    return int(ss.generate_state(1)[0])


def _schema_for(cfg: ExperimentConfig) -> FeatureSchema:
    if cfg.world_kind == "gaussian":
        features = tuple((f"x{i + 1}", ContinuousUnbounded()) for i in range(cfg.dim - 1))
    elif cfg.world_kind == "continuous2d":
        features = (("x1", ContinuousUnbounded()), ("x2", ContinuousUnbounded()))
    elif cfg.world_kind == "mixed":
        features = (("x1", Categorical(2)), ("x2", ContinuousUnbounded()))
    else:  # csv; the config checks the kind
        names, _, _ = _load_csv_world(cfg)
        features = tuple((name, ContinuousUnbounded()) for name in names)
    return FeatureSchema(features=features)


def _load_csv_world(cfg: ExperimentConfig) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """A csv world's feature names, features and target column.

    The file is read once per process (`_read_csv`), and the features and
    the target are views of the table read; a pool's workers fork after
    the parent has read it. The config's checks run on every call.
    """
    path = cfg.csv_path
    stat = os.stat(path)
    names, x, y = _read_csv(path, cfg.csv_target, stat.st_size, stat.st_mtime_ns)
    if cfg.k_max is not None:
        check_k_max(cfg.k_max, len(names))
    train_rows(x.shape[0], cfg.train_fraction, path)
    return names, x, y


@functools.lru_cache(maxsize=1)
def _read_csv(
    path: str, target: str, size: int, mtime_ns: int
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """A numeric CSV's feature names, features and ``target`` column. The
    last two are read-only views of one table, which holds the target
    column last. The file's size and mtime are part of the cache key, so a
    file that changed is read again."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise ValueError(f"{path}: the header repeats column(s) {repeated}")
        if target not in header:
            raise ValueError(f"{path}: no column {target!r} (section [world], key 'target')")
        if len(header) < 2:
            raise ValueError(f"{path}: no feature column besides the target {target!r}")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}, line {reader.line_num}: "
                    f"{len(row)} cells, the header has {len(header)}"
                )
            values = []
            for column, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                if value is None or not math.isfinite(value):
                    problem = "not a number" if value is None else "not finite"
                    raise ValueError(
                        f"{path}, line {reader.line_num}, column {column!r}: {problem}: {cell!r}"
                    )
                values.append(value)
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    t = header.index(target)
    columns = [i for i in range(len(header)) if i != t]
    table = np.asarray(rows, dtype=float).take([*columns, t], axis=1)
    table.flags.writeable = False  # shared by every call
    return tuple(header[i] for i in columns), table[:, :-1], table[:, -1]


@dataclass
class RepetitionData:
    """One repetition's splits. The models see ``z_train`` and ``z_test``:
    the raw splits normalized with stats fitted on the training split."""

    rep: int
    world: GaussianWorld | None
    x_train: np.ndarray
    y_train: np.ndarray
    train_observed: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    test_observed: np.ndarray
    z_train: np.ndarray
    z_test: np.ndarray
    schema: FeatureSchema
    y_mean: float
    y_std: float


def build_repetition(cfg: ExperimentConfig, rep: int) -> RepetitionData:
    """Deterministically generate one repetition's world and data, and
    normalize both splits."""
    schema = _schema_for(cfg)
    world = None
    rng_data = _rng_for(cfg.seed0, rep, _DATA_STREAM)
    if cfg.world_kind == "gaussian":
        world = sample_gaussian_world(_rng_for(cfg.seed0, rep, _WORLD_STREAM), cfg.dim)
        x_all, y_all = draw_dataset(world, cfg.n_total, rng_data)
    elif cfg.world_kind == "csv":
        _, x_all, y_all = _load_csv_world(cfg)
        order = rng_data.permutation(x_all.shape[0])  # fresh split per repetition
        x_all, y_all = x_all[order], y_all[order]
    else:
        class_world = MixedClassWorld(kind=cfg.world_kind)
        x_all, y_all = generate_mixed_classification(class_world, cfg.n_total, rng_data)
    n_train = train_rows(x_all.shape[0], cfg.train_fraction, cfg.csv_path)
    x_train, y_train = x_all[:n_train], y_all[:n_train]
    x_test, y_test = x_all[n_train:], y_all[n_train:]

    observed = np.zeros_like(x_train, dtype=np.uint8)
    test_observed = np.zeros_like(x_test, dtype=np.uint8)
    if cfg.mechanism == "mcar":
        observed = inject_mcar(x_train, cfg.mcar_p, _rng_for(cfg.seed0, rep, _MISSING_STREAM))
    elif cfg.mechanism == "mnar_self_censor":
        # Continuous features self-censor; categorical ones never do.
        # Self-censoring is a property of the world, not the split: the
        # test data loses its top-quantile values too (quantiles computed
        # per split), and those entries are MNAR-tagged at inference. The
        # underlying values stay in x_test for the Bayes oracle.
        cont = [j for j, kind in enumerate(schema.kinds) if not isinstance(kind, Categorical)]
        observed[:, cont] = inject_mnar_self_censor(x_train[:, cont], cfg.mnar_q)
        test_observed[:, cont] = inject_mnar_self_censor(x_test[:, cont], cfg.mnar_q)

    stats = fit_normalization(schema, x_train, observed)

    if cfg.loss == "mse":
        y_mean = float(y_train.mean())
        y_std = float(y_train.std())
        if y_std == 0:
            raise ValueError("constant training target")
    else:
        y_mean, y_std = 0.0, 1.0
    return RepetitionData(
        rep=rep,
        world=world,
        x_train=x_train,
        y_train=y_train,
        train_observed=observed,
        x_test=x_test,
        y_test=y_test,
        test_observed=test_observed,
        z_train=apply_normalization(x_train, stats),
        z_test=apply_normalization(x_test, stats),
        schema=schema,
        y_mean=y_mean,
        y_std=y_std,
    )


@dataclass
class ModelPipeline:
    """A trained model plus its kind's missing-input rule."""

    name: str
    kind: str
    net_spec: NetworkSpec
    params: Parameters
    y_mean: float
    y_std: float
    rule: Rule

    # Both take normalized rows ``z``, the induced sweep mask ``pattern``
    # (shared by all rows) and the data's own missingness ``observed``.

    def predict_for_pattern(
        self, z: np.ndarray, pattern: np.ndarray, observed: np.ndarray
    ) -> np.ndarray:
        out = predict(self.net_spec, self.params, self.rule.inputs(z, pattern, observed))
        return out.ravel() * self.y_std + self.y_mean

    def proba_for_pattern(
        self, z: np.ndarray, pattern: np.ndarray, observed: np.ndarray
    ) -> np.ndarray:
        return predict(self.net_spec, self.params, self.rule.inputs(z, pattern, observed))

    def json_fields(self) -> dict:
        """The model file's fields: what training learned. The weights and
        biases stay numpy arrays, which `_write_json` encodes a row at a
        time. The rule is not stored: `load_pipeline` fits it again."""
        return {
            "format_version": 2,
            "name": self.name,
            "kind": self.kind,
            "net": {"widths": list(self.net_spec.widths), "head": self.net_spec.head},
            "weights": self.params.weights,
            "biases": self.params.biases,
        }


def _fit_rule(cfg: ExperimentConfig, method: MethodConfig, data: RepetitionData):
    """The method's rule and training hook, fitted on the normalized
    training split."""
    _require_continuous(method, data.schema)
    return RULES[method.kind].fit(cfg, method, data.schema, data.z_train, data.train_observed)


def _network_for(cfg: ExperimentConfig, rule: Rule) -> NetworkSpec:
    """The network `train_method` trains for ``rule``: the config's hidden
    layers, and the output and head of its loss."""
    out, head = (1, "linear") if cfg.loss == "mse" else (2, "logits")
    return NetworkSpec(widths=(rule.width(), *cfg.hidden, out), head=head)


def load_pipeline(
    path: Path, cfg: ExperimentConfig, method: MethodConfig, data: RepetitionData
) -> ModelPipeline:
    """The saved network of ``method`` at ``path``, with the method's rule
    fitted on ``data`` as `train_method` fits it. A file holds the network
    only; the keys that format 1 also wrote (the stats, the rule's fitted
    state, ``y_mean`` and ``y_std``) are ignored. The format version and
    the layer widths must be integers, and the network must be the one
    `train_method` trains, with one finite weight and bias of that shape
    per layer. Every error names ``path``."""
    try:
        obj = json.loads(path.read_text())
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        # JSON's true and 1.0 compare equal to 1, so the checks ask for ints.
        version = obj.get("format_version")
        if type(version) is not int or version not in (1, 2):
            raise ValueError(f"unsupported model format version {json.dumps(version)}")
        kind = obj["kind"]
        widths = obj["net"]["widths"]
        if not isinstance(widths, list) or any(type(width) is not int for width in widths):
            raise ValueError(f"layer widths {json.dumps(widths)} are not a list of integers")
        spec = NetworkSpec(widths=tuple(widths), head=obj["net"]["head"])
        params = Parameters(
            [np.asarray(w, dtype=float) for w in obj["weights"]],
            [np.asarray(b, dtype=float) for b in obj["biases"]],
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if kind != method.kind:
        raise ValueError(f"{path}: a {kind} model, but method {method.name} has kind {method.kind}")
    rule, _ = _fit_rule(cfg, method, data)
    expected = _network_for(cfg, rule)
    if spec.widths[0] != rule.width():
        raise ValueError(
            f"{path}: input width {spec.widths[0]}, but method {method.name} "
            f"takes {rule.width()} inputs"
        )
    if spec.widths != expected.widths:
        raise ValueError(
            f"{path}: layer widths {list(spec.widths)}, but the config gives "
            f"{list(expected.widths)}"
        )
    if spec.head != expected.head:
        raise ValueError(f"{path}: a {spec.head} head, but loss {cfg.loss} needs {expected.head}")
    shapes = [(w.shape, b.shape) for w, b in zip(params.weights, params.biases)]
    fans = zip(spec.widths, spec.widths[1:])
    needed = [((fan_in, fan_out), (fan_out,)) for fan_in, fan_out in fans]
    if len(params.weights) != len(params.biases) or shapes != needed:
        raise ValueError(f"{path}: (weight, bias) shapes {shapes}, but the widths need {needed}")
    if not all(np.isfinite(array).all() for array in (*params.weights, *params.biases)):
        raise ValueError(f"{path}: a weight or bias is not finite")
    return ModelPipeline(method.name, method.kind, spec, params, data.y_mean, data.y_std, rule)


def train_method(
    cfg: ExperimentConfig, method: MethodConfig, data: RepetitionData, method_index: int
) -> tuple[ModelPipeline, list[tuple[int, float]]]:
    """Train one method on one repetition's data."""
    rule, augment = _fit_rule(cfg, method, data)
    inputs = data.z_train
    if augment is None:
        # A deterministic fill: the rule with no induced mask, applied once.
        no_mask = np.zeros(data.schema.d, dtype=np.uint8)
        inputs = rule.inputs(data.z_train, no_mask, data.train_observed)

    if cfg.loss == "mse":
        targets = (data.y_train - data.y_mean) / data.y_std
    else:
        targets = data.y_train.astype(int)
    train_cfg = TrainConfig(
        learning_rate=cfg.learning_rate,
        steps=cfg.steps,
        batch_size=cfg.batch_size,
        seed=_train_seed(cfg.seed0, data.rep, method_index),
        loss=cfg.loss,
    )
    net_spec = _network_for(cfg, rule)
    try:
        result = train(net_spec, train_cfg, inputs, targets, data.train_observed, augment)
    except TrainingDivergedError as exc:
        raise TrainingDivergedError(
            f"method {method.name!r} repetition {data.rep}: {exc}"
        ) from exc
    pipeline = ModelPipeline(
        method.name, method.kind, net_spec, result.params, data.y_mean, data.y_std, rule
    )
    return pipeline, result.trace


@dataclass
class RunArtifacts:
    out_dir: Path
    reports: dict
    jsd_reports: dict | None


def _model_stem(method: MethodConfig, rep: int) -> str:
    """The name, without suffix, of a method's model and trace files for
    repetition ``rep``."""
    return f"{method.name}_rep{rep}"


def _method_job(
    cfg: ExperimentConfig,
    method: MethodConfig,
    rep: int,
    method_index: int,
    out: Path,
    models_dir: Path | None,
):
    """One (method, repetition), from its data to its written files.

    Builds repetition ``rep``, then trains the method, or, when
    ``models_dir`` is given, loads its saved network and fits the method's
    rule as training does; sweeps that one model; and writes its model
    file, and its trace if it trained, under ``out``. The first
    method's job also writes the repetition's world and data files.
    Returns ``(report, jsd_report, written)``: the JSD report is None for
    regression, and ``written`` lists the files the job wrote.
    """
    data = build_repetition(cfg, rep)
    stem = _model_stem(method, rep)
    trace = None
    if models_dir is None:
        pipeline, trace = train_method(cfg, method, data, method_index)
    else:
        pipeline = load_pipeline(models_dir / f"{stem}.json", cfg, method, data)
    n_test = data.x_test.shape[0]
    patterns = enumerate_patterns(data.schema.d, cfg.k_max)
    metrics = {method.name: [_rep_metrics(cfg.loss, pipeline, data)]}
    report = run_pattern_sweep(metrics, patterns, n_test)[method.name]
    jsd_report = None
    if cfg.loss == "cross_entropy":
        single_observed = list(1 - np.eye(data.schema.d, dtype=np.uint8))
        jsd_metrics = {method.name: [_jsd_metrics(pipeline, data)]}
        jsd_report = run_pattern_sweep(jsd_metrics, single_observed, n_test)[method.name]
    written = [_write_json(out / "models" / f"{stem}.json", pipeline.json_fields())]
    if trace is not None:
        written.append(_write_csv(out / "traces" / f"{stem}.csv", ["step", "loss"], trace))
    if method_index == 0:  # one job per repetition writes its world and data
        if data.world is not None:
            path = out / "worlds" / f"rep{rep}.json"
            written.append(_write_json(path, data.world.to_json_dict()))
        names = [name for name, _ in data.schema.features]
        train_rows = _float_rows(data.x_train, data.y_train)
        written.append(_write_csv(out / "data" / f"train_rep{rep}.csv", [*names, "y"], train_rows))
        mask_rows = (row.tolist() for row in data.train_observed)
        written.append(_write_csv(out / "data" / f"train_mask_rep{rep}.csv", names, mask_rows))
    return report, jsd_report, written


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    jobs: int = 1,
) -> RunArtifacts:
    """Execute a full config: train, sweep, and write all artifacts."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    return _run_jobs(cfg, out, jobs)


def _prepare_out(cfg: ExperimentConfig, out: Path) -> None:
    """Create ``out`` and its subdirectories, and delete an earlier run's
    manifest, so that a run that fails part-way leaves no manifest naming
    files it has overwritten. An earlier run's model and trace files of a
    method's repetitions from ``cfg.repetitions`` on go too, so that
    ``sweep`` over ``models/`` finds this run's repetitions only."""
    for sub in ("models", "traces", "worlds", "data"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    for method in cfg.methods:
        rep = cfg.repetitions
        while (model := out / "models" / f"{_model_stem(method, rep)}.json").exists():
            model.unlink()
            (out / "traces" / f"{_model_stem(method, rep)}.csv").unlink(missing_ok=True)
            rep += 1


def _run_jobs(cfg, out: Path, jobs: int, models_dir: Path | None = None) -> RunArtifacts:
    """Map `_method_job` over every (method, repetition), in a pool of up to
    ``jobs`` workers, then merge the reports and write the rest of the
    artifacts. A job gets indices and returns only its reports and the
    names of the files it wrote.

    ``models_dir`` holds saved models for the jobs to sweep instead of
    training.
    """
    if cfg.k_max is None:  # a csv world's header gives its feature count
        cfg = dataclasses.replace(cfg, k_max=default_k_max(_schema_for(cfg).d))
    if cfg.world_kind == "csv":
        _load_csv_world(cfg)  # read and check the file before any job, and before a pool forks
    _prepare_out(cfg, out)
    payloads = [
        (cfg, method, rep, mi, out, models_dir)
        for mi, method in enumerate(cfg.methods)
        for rep in range(cfg.repetitions)
    ]
    workers = min(jobs, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_method_job, *zip(*payloads)))
    else:
        results = list(map(_method_job, *zip(*payloads)))

    per_rep, per_rep_jsd, written = {}, {}, []
    for (_, method, *_), (report, jsd_report, files) in zip(payloads, results):
        per_rep.setdefault(method.name, []).append(report)  # in repetition order
        if jsd_report is not None:
            per_rep_jsd.setdefault(method.name, []).append(jsd_report)
        written += files
    reports = {name: merge_repetitions(per_rep[name]) for name in sorted(per_rep)}
    jsd_reports = None
    if per_rep_jsd:
        jsd_reports = {name: merge_repetitions(per_rep_jsd[name]) for name in sorted(per_rep_jsd)}

    _write_artifacts(cfg, out, reports, jsd_reports, written)
    return RunArtifacts(out, reports, jsd_reports)


def _rep_metrics(loss: str, pipe: ModelPipeline, data: RepetitionData) -> dict:
    z, observed = data.z_test, data.test_observed
    if loss == "mse":
        return regression_pattern_metrics(
            lambda pattern: pipe.predict_for_pattern(z, pattern, observed),
            data.world,
            data.x_test,
            data.y_test,
        )
    return classification_pattern_metrics(
        lambda pattern: pipe.proba_for_pattern(z, pattern, observed), data.y_test
    )


def _jsd_metrics(pipe: ModelPipeline, data: RepetitionData) -> dict:
    """Marginal-fidelity JSD for every single-observed-feature pattern.

    The empirical marginal is estimated from all of the repetition's data
    (train and test pooled) in normalized coordinates; the model is queried
    at the bin positions through its own missing-input rule.
    """
    z_all = np.vstack([data.z_train, data.z_test])
    y_all = np.concatenate([data.y_train, data.y_test]).astype(int)
    estimates = [
        empirical_conditional(z_all[:, j], y_all, bins=50, discrete=isinstance(kind, Categorical))
        for j, (_, kind) in enumerate(data.schema.features)
    ]

    def _jsd_for_pattern(pattern):
        (j,) = np.flatnonzero(pattern == 0)
        est = estimates[j]
        rows = np.zeros((est.positions.shape[0], pattern.shape[0]))
        rows[:, j] = est.positions
        proba = pipe.proba_for_pattern(rows, pattern, np.zeros_like(pattern))
        return marginal_fidelity_binned(proba[:, 1], est)

    return {"marginal_jsd": _jsd_for_pattern}


# `json.dumps(obj, sort_keys=True, allow_nan=False)`, which runs the C
# encoder; `json.dump` never does.
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _write_json(path: Path, obj) -> Path:
    """Write ``obj``, its arrays as nested lists, in the bytes of
    ``json.dumps(..., sort_keys=True, allow_nan=False)`` and a newline,
    encoding every array a row at a time: a model never exists whole as
    lists or as one string."""
    with open(path, "w") as fh:
        _dump(obj, fh.write)
        fh.write("\n")
    return path


def _dump(obj, write) -> None:
    if isinstance(obj, dict):
        write("{")
        for i, key in enumerate(sorted(obj)):
            write(f"{', ' if i else ''}{_encode(key)}: ")
            _dump(obj[key], write)
        write("}")
    elif isinstance(obj, (list, tuple)) or getattr(obj, "ndim", 0) > 1:
        write("[")
        for i, item in enumerate(obj):
            if i:
                write(", ")
            _dump(item, write)
        write("]")
    else:
        write(_encode(obj.tolist() if isinstance(obj, np.ndarray) else obj))


def _float_rows(x: np.ndarray, y: np.ndarray):
    """Each row of ``x`` with its ``y`` appended, as Python floats."""
    for row, target in zip(x, y):
        yield [*map(float, row), float(target)]


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)  # a float cell is written as its repr
    return path


def _write_artifacts(cfg, out: Path, reports, jsd_reports, written: list) -> None:
    """Write the merged reports, then a manifest that hashes exactly those
    and the jobs' ``written`` files (not others an earlier run left in
    ``out``)."""
    sweeps = [r for r in (reports, jsd_reports) if r]
    rows = [row for sweep in sweeps for row in report_rows(sweep)]
    header = ["method", "pattern", "popcount", "metric", "rep", "value"]
    written = [*written, _write_csv(out / "report_long.csv", header, rows)]

    plot_rows = []
    agg = {}
    for sweep in sweeps:
        for name in sorted(sweep):
            for (metric, popcount), stats in sweep[name].by_popcount().items():
                plot_rows.append((name, metric, popcount, stats["mean"], stats["std"]))
                agg.setdefault(name, {})[f"{metric}/popcount={popcount}"] = stats
    plot_rows.sort(key=lambda r: (r[0], r[1], r[2]))
    plot_header = ["method", "metric", "popcount", "mean", "std"]
    written.append(_write_csv(out / "plotdata.csv", plot_header, plot_rows))
    with open(out / "aggregates.json", "w") as fh:
        json.dump(agg, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    written.append(out / "aggregates.json")

    notes = ["training losses are batch means over mini-batches"]
    if cfg.mechanism == "mnar_self_censor":
        notes.append(
            "self-censoring quantiles are computed per split (train and test independently)"
        )
    manifest = {
        "config_hash": config_hash(cfg),
        "config": serialize_config(cfg),
        "seed0": cfg.seed0,
        "repetitions": cfg.repetitions,
        "version": __version__,
        "notes": notes,
        "files": {
            str(path.relative_to(out)): _sha256(path) for path in written
        },
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):  # 64 KiB at a time
            digest.update(block)
    return digest.hexdigest()


def ablate_placeholder(
    cfg: ExperimentConfig,
    values: list[float],
    out_dir: str | Path | None = None,
    jobs: int = 1,
) -> RunArtifacts:
    """Train one knockout model per placeholder magnitude v and sweep each.

    The model for v is the method ``knockout_ph{v:g}``, with knockout
    placeholder v and observed-missing placeholder v - 20, so the two
    differ; magnitude 0 puts the knockout placeholder exactly at the
    feature mean. The config's data is used as it is. Under MCAR,
    observed-missing entries join the induced mask and take v; under
    MNAR, the rule trains and infers with the dual merge, so they take
    v - 20. Every magnitude is checked before any model is trained.
    """
    if not values:
        raise ValueError("ablation needs at least one placeholder value")
    if any(not isinstance(kind, ContinuousUnbounded) for kind in _schema_for(cfg).kinds):
        raise ValueError("placeholder ablation needs z-scored continuous features only")
    magnitudes = {}
    for v in map(float, values):
        if not math.isfinite(v):
            raise ValueError(f"placeholder magnitudes must be finite, got {v!r}")
        if v < 0:
            raise ValueError("placeholder magnitudes must be nonnegative")
        name = f"knockout_ph{v:g}"
        if name in magnitudes:
            raise ValueError(
                f"placeholder magnitudes {magnitudes[name]!r} and {v!r} both name method {name!r}"
            )
        magnitudes[name] = v
    methods = [
        MethodConfig(name=name, kind="knockout", knockout_value=v, observed_value=v - 20.0)
        for name, v in magnitudes.items()
    ]
    ablate_cfg = dataclasses.replace(cfg, methods=tuple(methods))
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    return _run_jobs(ablate_cfg, out, jobs)


def sweep_saved_models(
    cfg: ExperimentConfig, models_dir: str | Path, out_dir: str | Path
) -> RunArtifacts:
    """Evaluation-only run over the saved models of repetitions 0, 1, ...
    up to the first that no method has: each job rebuilds its repetition
    from ``cfg``, loads its model's network and fits the method's rule,
    then the run sweeps and writes every artifact as `run_experiment`
    does. So ``cfg`` must be the config of the run that saved the models."""
    models_dir = Path(models_dir)
    reps = 0
    while True:
        paths = [models_dir / f"{_model_stem(method, reps)}.json" for method in cfg.methods]
        missing = [path for path in paths if not path.exists()]
        if reps and len(missing) == len(paths):
            break
        if missing:
            raise ValueError(f"missing model file {missing[0]}")
        reps += 1
    return _run_jobs(dataclasses.replace(cfg, repetitions=reps), Path(out_dir), 1, models_dir)
