"""Config-driven experiment runner.

Builds worlds, injects missingness, trains each configured method per
repetition, runs the pattern sweep, and writes reports plus a manifest.
Everything is derived deterministically from the config and its seeds,
so re-running a config reproduces the report files byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .augment import apply_knockout, merge_observed
from .baselines import dropout_augment, fit_imputer, impute
from .config import ExperimentConfig, MethodConfig, config_hash, serialize_config
from .evaluate import (
    classification_pattern_metrics,
    marginal_fidelity_binned,
    regression_pattern_metrics,
    report_rows,
    aggregates_dict,
    run_pattern_sweep,
)
from .missingness import (
    IID,
    calibrate_rate,
    enumerate_patterns,
    inject_mcar,
    inject_mnar_self_censor,
    sample_mask,
    sample_masks,
)
from .nn import NetworkSpec, Parameters, TrainConfig, TrainingDivergedError, predict, train
from .schema import (
    Categorical,
    ContinuousUnbounded,
    FeatureSchema,
    NormalizationStats,
    PlaceholderPolicy,
    apply_normalization,
    derive_placeholders,
    encode_inputs,
    encoded_width,
    fit_normalization,
    invert_normalization,
)
from .worlds import (
    GaussianWorld,
    draw_dataset,
    empirical_conditional,
    generate_mixed_classification,
    make_class_world,
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
    elif cfg.world_kind == "csv":
        names, _, _ = _load_csv_world(cfg)
        features = tuple((name, ContinuousUnbounded()) for name in names)
    else:
        raise ValueError(f"unknown world kind {cfg.world_kind!r}")
    return FeatureSchema(features=features)


def _load_csv_world(cfg: ExperimentConfig) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Numeric CSV with a header row; the target column is named by the config."""
    with open(cfg.csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    if cfg.csv_target is None or cfg.csv_target not in header:
        raise ValueError(f"csv world needs a target column; got {cfg.csv_target!r}")
    target_idx = header.index(cfg.csv_target)
    data = np.asarray(rows, dtype=float)
    y = data[:, target_idx]
    x = np.delete(data, target_idx, axis=1)
    names = [h for i, h in enumerate(header) if i != target_idx]
    return names, x, y


@dataclass
class RepetitionData:
    rep: int
    world: GaussianWorld | None
    class_world: object | None
    x_train: np.ndarray
    y_train: np.ndarray
    train_observed: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    test_observed: np.ndarray
    schema: FeatureSchema  # fitted (stats + derived policy)
    y_mean: float
    y_std: float


def _task_for(cfg: ExperimentConfig) -> str:
    return "classification" if cfg.world_kind in ("continuous2d", "mixed") else "regression"


def build_repetition(cfg: ExperimentConfig, rep: int) -> RepetitionData:
    """Deterministically generate one repetition's world, data, and schema."""
    schema = _schema_for(cfg)
    world = None
    class_world = None
    rng_data = _rng_for(cfg.seed0, rep, _DATA_STREAM)
    if cfg.world_kind == "gaussian":
        world = sample_gaussian_world(_rng_for(cfg.seed0, rep, _WORLD_STREAM), cfg.dim)
        x_all, y_all = draw_dataset(world, cfg.n_total, rng_data)
    elif cfg.world_kind == "csv":
        _, x_all, y_all = _load_csv_world(cfg)
        order = rng_data.permutation(x_all.shape[0])  # fresh split per repetition
        x_all, y_all = x_all[order], y_all[order]
    else:
        class_world = make_class_world(cfg.world_kind)
        x_all, y_all = generate_mixed_classification(class_world, cfg.n_total, rng_data)
    n_train = int(round(x_all.shape[0] * cfg.train_fraction))
    x_train, y_train = x_all[:n_train], y_all[:n_train]
    x_test, y_test = x_all[n_train:], y_all[n_train:]

    test_observed = np.zeros_like(x_test, dtype=np.uint8)
    if cfg.mechanism == "mcar":
        _, observed = inject_mcar(x_train, cfg.mcar_p, _rng_for(cfg.seed0, rep, _MISSING_STREAM))
    elif cfg.mechanism == "mnar_self_censor":
        if cfg.world_kind == "mixed":
            _, observed_cont = inject_mnar_self_censor(x_train[:, 1:], cfg.mnar_q)
            observed = np.zeros_like(x_train, dtype=np.uint8)
            observed[:, 1:] = observed_cont  # categorical features are never censored
            _, test_cont = inject_mnar_self_censor(x_test[:, 1:], cfg.mnar_q)
            test_observed[:, 1:] = test_cont
        else:
            _, observed = inject_mnar_self_censor(x_train, cfg.mnar_q)
            # Self-censoring is a property of the world, not the split: the
            # test data loses its top-quantile values too (quantiles
            # computed per split), and those entries are MNAR-tagged at
            # inference. The underlying values stay in x_test for the
            # Bayes oracle.
            _, test_observed = inject_mnar_self_censor(x_test, cfg.mnar_q)
    else:
        observed = np.zeros_like(x_train, dtype=np.uint8)

    stats = fit_normalization(schema, x_train, observed)
    policy = derive_placeholders(schema, stats)
    schema = schema.with_stats(stats).with_policy(policy)

    if _task_for(cfg) == "regression":
        y_mean = float(y_train.mean())
        y_std = float(y_train.std())
        if y_std == 0:
            raise ValueError("constant training target")
    else:
        y_mean, y_std = 0.0, 1.0
    return RepetitionData(
        rep=rep,
        world=world,
        class_world=class_world,
        x_train=x_train,
        y_train=y_train,
        train_observed=observed,
        x_test=x_test,
        y_test=y_test,
        test_observed=test_observed,
        schema=schema,
        y_mean=y_mean,
        y_std=y_std,
    )


def _method_policy(
    method: MethodConfig, schema: FeatureSchema, stats: NormalizationStats, fills: np.ndarray
) -> PlaceholderPolicy:
    if method.placeholder == "mean":
        # Suboptimal mean/mode placeholders: the mean/mode fill values.
        # The observed-missing value only exists to keep the policy valid;
        # mean-placeholder variants always merge with the union mask.
        policy = PlaceholderPolicy(fills, fills - 1.0, zscore_magnitude=method.zscore_magnitude)
        policy.validate()
        return policy
    policy = derive_placeholders(schema, stats, method.zscore_magnitude)
    if method.knockout_value is not None or method.observed_value is not None:
        knock = policy.knockout_values.copy()
        obs = policy.observed_values.copy()
        if method.knockout_value is not None:
            knock[:] = method.knockout_value
        if method.observed_value is not None:
            obs[:] = method.observed_value
        policy = PlaceholderPolicy(knock, obs, method.zscore_magnitude)
        policy.validate()
    return policy


def _fill_values(schema: FeatureSchema, z_train: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Mean/mode imputation values in normalized coordinates.

    Z-scored features have observed mean exactly 0 after normalization;
    categorical codes take the mode of their observed training entries.
    """
    categorical = [isinstance(kind, Categorical) for kind in schema.kinds]
    if not any(categorical):
        return np.zeros(schema.d)
    fitted = fit_imputer("mean_mode", z_train, observed, schema=schema)
    return np.where(categorical, fitted.fill_values, 0.0)


@dataclass
class ModelPipeline:
    """A trained model plus its inference-time missing-input rule."""

    name: str
    kind: str
    task: str
    schema: FeatureSchema
    net_spec: NetworkSpec
    params: Parameters
    y_mean: float
    y_std: float
    policy: PlaceholderPolicy | None = None
    fill_values: np.ndarray | None = None
    imputer: object | None = None
    dual_placeholder: bool = True

    def _model_inputs(
        self,
        x_raw: np.ndarray,
        pattern: np.ndarray,
        observed: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply the method's missing-input rule, then encode.

        ``pattern`` is the induced sweep mask (known MCAR, shared by all
        rows); ``observed`` marks entries that are really missing in the
        test data (per row, MNAR-tagged). The induced pattern wins where
        both apply, mirroring the training-time merge.
        """
        z = apply_normalization(x_raw, self.schema.stats)
        if z.ndim == 1:
            z = z[None, :]
        pattern = np.asarray(pattern, dtype=np.uint8)
        pat = np.broadcast_to(pattern, z.shape)
        union = pat if observed is None else np.maximum(pat, observed)
        if self.kind == "knockout":
            if observed is not None and observed.any():
                fill = (
                    self.policy.observed_values
                    if self.dual_placeholder
                    else self.policy.knockout_values
                )
                z = np.where(observed == 1, fill, z)
            z = apply_knockout(z, pat, self.policy)
            return encode_inputs(self.schema, z)
        if self.kind == "common_baseline":
            z = np.where(union == 1, self.fill_values, z)
            return encode_inputs(self.schema, z)
        if self.kind == "dropout":
            z = np.where(union == 1, 0.0, z)
            return encode_inputs(self.schema, z)
        if self.kind == "zero_indicator":
            filled = np.where(union == 1, 0.0, z)
            return np.hstack([encode_inputs(self.schema, filled), union.astype(float)])
        if self.kind in ("knn", "lin_reg"):
            z = impute(self.imputer, z, union)
            return encode_inputs(self.schema, z)
        raise ValueError(f"unknown method kind {self.kind!r}")

    def predict_for_pattern(
        self,
        x_raw: np.ndarray,
        pattern: np.ndarray,
        observed: np.ndarray | None = None,
    ) -> np.ndarray:
        if self.task != "regression":
            raise ValueError("predict_for_pattern is for regression pipelines")
        out = predict(self.net_spec, self.params, self._model_inputs(x_raw, pattern, observed))
        return out.ravel() * self.y_std + self.y_mean

    def proba_for_pattern(
        self,
        x_raw: np.ndarray,
        pattern: np.ndarray,
        observed: np.ndarray | None = None,
    ) -> np.ndarray:
        if self.task != "classification":
            raise ValueError("proba_for_pattern is for classification pipelines")
        return predict(self.net_spec, self.params, self._model_inputs(x_raw, pattern, observed))

    def to_json_dict(self) -> dict:
        out = {
            "format_version": 1,
            "name": self.name,
            "kind": self.kind,
            "task": self.task,
            "net": {
                "widths": list(self.net_spec.widths),
                "activation": self.net_spec.activation,
                "head": self.net_spec.head,
            },
            "weights": [w.tolist() for w in self.params.weights],
            "biases": [b.tolist() for b in self.params.biases],
            "stats": self.schema.stats.to_json_dict(),
            "y_mean": self.y_mean,
            "y_std": self.y_std,
            "dual_placeholder": self.dual_placeholder,
        }
        if self.policy is not None:
            out["policy"] = self.policy.to_json_dict()
        if self.fill_values is not None:
            out["fill_values"] = self.fill_values.tolist()
        if self.imputer is not None:
            out["imputer"] = _imputer_to_json(self.imputer)
        return out


def _imputer_to_json(imputer) -> dict:
    from .baselines import KNN, LinReg, MeanMode

    if isinstance(imputer, MeanMode):
        return {"kind": "mean_mode", "fill_values": imputer.fill_values.tolist()}
    if isinstance(imputer, KNN):
        return {
            "kind": "knn",
            "k": imputer.k,
            "train_x": imputer.train_x.tolist(),
            "train_observed": imputer.train_observed.tolist(),
            "fallback": imputer.fallback.tolist(),
        }
    if isinstance(imputer, LinReg):
        return {
            "kind": "lin_reg",
            "coefs": [c.tolist() if c is not None else None for c in imputer.coefs],
            "fallback": imputer.fallback.tolist(),
            "fell_back": imputer.fell_back,
        }
    raise TypeError(f"cannot serialize imputer {imputer!r}")


def _imputer_from_json(obj: dict):
    from .baselines import KNN, LinReg, MeanMode

    if obj["kind"] == "mean_mode":
        return MeanMode(np.asarray(obj["fill_values"], dtype=float))
    if obj["kind"] == "knn":
        return KNN(
            k=int(obj["k"]),
            train_x=np.asarray(obj["train_x"], dtype=float),
            train_observed=np.asarray(obj["train_observed"], dtype=np.uint8),
            fallback=np.asarray(obj["fallback"], dtype=float),
        )
    if obj["kind"] == "lin_reg":
        return LinReg(
            coefs=[np.asarray(c, dtype=float) if c is not None else None for c in obj["coefs"]],
            fallback=np.asarray(obj["fallback"], dtype=float),
            fell_back=list(obj["fell_back"]),
        )
    raise ValueError(f"unknown imputer kind {obj['kind']!r}")


def pipeline_from_json(obj: dict, schema_template: FeatureSchema) -> ModelPipeline:
    if obj.get("format_version") != 1:
        raise ValueError(f"unsupported model format version {obj.get('format_version')}")
    stats = NormalizationStats.from_json_dict(obj["stats"])
    schema = schema_template.with_stats(stats)
    policy = None
    if "policy" in obj:
        policy = PlaceholderPolicy.from_json_dict(obj["policy"])
        schema = schema.with_policy(policy)
    spec = NetworkSpec(
        widths=tuple(obj["net"]["widths"]),
        activation=obj["net"]["activation"],
        head=obj["net"]["head"],
    )
    params = Parameters(
        [np.asarray(w, dtype=float) for w in obj["weights"]],
        [np.asarray(b, dtype=float) for b in obj["biases"]],
    )
    return ModelPipeline(
        name=obj["name"],
        kind=obj["kind"],
        task=obj["task"],
        schema=schema,
        net_spec=spec,
        params=params,
        y_mean=float(obj["y_mean"]),
        y_std=float(obj["y_std"]),
        policy=policy,
        fill_values=np.asarray(obj["fill_values"], dtype=float) if "fill_values" in obj else None,
        imputer=_imputer_from_json(obj["imputer"]) if "imputer" in obj else None,
        dual_placeholder=bool(obj.get("dual_placeholder", True)),
    )


def _require_continuous(method: MethodConfig, schema: FeatureSchema) -> None:
    if any(isinstance(kind, Categorical) for kind in schema.kinds):
        raise ValueError(
            f"method {method.name!r} ({method.kind}) supports continuous features only"
        )


def train_method(
    cfg: ExperimentConfig, method: MethodConfig, data: RepetitionData, method_index: int
) -> tuple[ModelPipeline, list[tuple[int, float]]]:
    """Train one method on one repetition's data."""
    schema = data.schema
    stats = schema.stats
    d = schema.d
    task = _task_for(cfg)
    z_train = apply_normalization(data.x_train, stats)
    observed = data.train_observed
    has_observed_missing = bool(observed.any())
    merge_mode = {"mcar": "mcar", "mnar_self_censor": "mnar", "none": None}[cfg.mechanism]

    fills = _fill_values(schema, z_train, observed)

    if task == "regression":
        targets = (data.y_train - data.y_mean) / data.y_std
        head, out_width, loss = "linear", 1, "mse"
    else:
        targets = data.y_train.astype(int)
        head, out_width, loss = "logits", 2, "cross_entropy"

    seed = _train_seed(cfg.seed0, data.rep, method_index)
    train_cfg = TrainConfig(
        learning_rate=cfg.learning_rate,
        steps=cfg.steps,
        batch_size=cfg.batch_size,
        seed=seed,
        loss=loss,
        mask_granularity=cfg.mask_granularity,
    )
    d_in = encoded_width(schema)
    policy = None
    imputer = None
    pre_inputs = z_train
    augment = None

    if method.kind == "knockout":
        policy = _method_policy(method, schema, stats, fills)
        rate = method.rate if method.rate is not None else calibrate_rate(d, method.p_clean)
        dist = IID(d, rate)
        # Mean-placeholder variants never use the dual placeholder: they
        # treat observed missingness with the same (mean) placeholder.
        dual = method.dual_placeholder and method.placeholder == "derived"
        mode = merge_mode if dual else ("mcar" if merge_mode else None)
        pol = policy

        def augment(xb, nb, rng, _dist=dist, _pol=pol, _mode=mode):
            if train_cfg.mask_granularity == "per_batch":
                induced = sample_mask(_dist, rng)
            else:
                induced = sample_masks(_dist, xb.shape[0], rng)
            merged = merge_observed(xb, nb, induced, _mode, _pol)
            return encode_inputs(schema, merged)

    elif method.kind == "common_baseline":

        def augment(xb, nb, rng):
            if nb is not None:
                xb = np.where(nb == 1, fills, xb)
            return encode_inputs(schema, xb)

    elif method.kind == "dropout":
        _require_continuous(method, schema)
        rate = (
            method.dropout_rate
            if method.dropout_rate is not None
            else calibrate_rate(d, method.p_clean)
        )

        def augment(xb, nb, rng, _rate=rate):
            if nb is not None:
                xb = np.where(nb == 1, 0.0, xb)
            out = dropout_augment(xb, _rate, rng)
            if method.rescale and _rate < 1.0:
                out = out / (1.0 - _rate)
            return out

    elif method.kind == "zero_indicator":
        _require_continuous(method, schema)
        rate = method.rate if method.rate is not None else calibrate_rate(d, method.p_clean)
        dist = IID(d, rate)
        d_in = d * 2

        def augment(xb, nb, rng, _dist=dist):
            if train_cfg.mask_granularity == "per_batch":
                induced = sample_mask(_dist, rng)
                induced = np.broadcast_to(induced, xb.shape)
            else:
                induced = sample_masks(_dist, xb.shape[0], rng)
            union = np.maximum(induced, nb) if nb is not None else induced
            filled = np.where(union == 1, 0.0, xb)
            return np.hstack([filled, union.astype(float)])

    elif method.kind in ("knn", "lin_reg"):
        _require_continuous(method, schema)
        imputer = fit_imputer(method.kind, z_train, observed, schema=schema, k=method.k)
        if has_observed_missing:
            pre_inputs = impute(imputer, z_train, observed)

    else:
        raise ValueError(f"unknown method kind {method.kind!r}")

    if method.kind == "common_baseline" and not has_observed_missing:
        augment = None  # plain training on complete data
        pre_inputs = encode_inputs(schema, z_train)
    elif method.kind in ("knn", "lin_reg"):
        pre_inputs = encode_inputs(schema, pre_inputs)

    net_spec = NetworkSpec(widths=(d_in, *cfg.hidden, out_width), head=head)
    mask_for_train = observed if has_observed_missing else None
    try:
        result = train(net_spec, train_cfg, pre_inputs, targets, mask_for_train, augment)
    except TrainingDivergedError as exc:
        raise TrainingDivergedError(
            f"method {method.name!r} repetition {data.rep}: {exc}"
        ) from exc

    pipeline = ModelPipeline(
        name=method.name,
        kind=method.kind,
        task=task,
        schema=schema,
        net_spec=net_spec,
        params=result.params,
        y_mean=data.y_mean,
        y_std=data.y_std,
        policy=policy,
        fill_values=fills if method.kind == "common_baseline" else None,
        imputer=imputer,
        dual_placeholder=method.dual_placeholder,
    )
    return pipeline, result.trace


def _train_job(payload: tuple) -> tuple[str, int, dict, list]:
    cfg, method, rep, method_index = payload
    data = build_repetition(cfg, rep)
    pipeline, trace = train_method(cfg, method, data, method_index)
    return method.name, rep, pipeline.to_json_dict(), trace


@dataclass
class RunArtifacts:
    out_dir: Path
    reports: dict
    jsd_reports: dict | None
    pipelines: dict  # (method name, rep) -> ModelPipeline
    repetitions: list


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    jobs: int = 1,
) -> RunArtifacts:
    """Execute a full config: train, sweep, and write all artifacts."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    task = _task_for(cfg)
    reps = [build_repetition(cfg, rep) for rep in range(cfg.repetitions)]

    jobs_list = [
        (cfg, method, rep.rep, mi)
        for mi, method in enumerate(cfg.methods)
        for rep in reps
    ]
    pipelines: dict[tuple[str, int], ModelPipeline] = {}
    traces: dict[tuple[str, int], list] = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for name, rep, pipe_dict, trace in pool.map(_train_job, jobs_list):
                pipelines[(name, rep)] = pipeline_from_json(pipe_dict, _schema_for(cfg))
                traces[(name, rep)] = trace
    else:
        for payload in jobs_list:
            cfg_, method, rep, mi = payload
            data = reps[rep]
            pipeline, trace = train_method(cfg_, method, data, mi)
            pipelines[(method.name, rep)] = pipeline
            traces[(method.name, rep)] = trace

    patterns = enumerate_patterns(reps[0].schema.d, min(cfg.k_max, reps[0].schema.d))
    method_metrics = {}
    for method in cfg.methods:
        per_rep = []
        for data in reps:
            key = (method.name, data.rep)
            if key not in pipelines:
                raise KeyError(f"missing model for method {method.name!r}, repetition {data.rep}")
            per_rep.append(_rep_metrics(task, pipelines[key], data))
        method_metrics[method.name] = per_rep
    n_test = reps[0].x_test.shape[0]
    reports = run_pattern_sweep(method_metrics, patterns, n_test)

    jsd_reports = None
    if task == "classification":
        jsd_reports = _classification_jsd_sweep(cfg, reps, pipelines, n_test)

    _write_artifacts(cfg, out, reps, pipelines, traces, reports, jsd_reports)
    return RunArtifacts(out, reports, jsd_reports, pipelines, reps)


def _rep_metrics(task: str, pipe: ModelPipeline, data: RepetitionData) -> dict:
    observed = data.test_observed if data.test_observed.any() else None
    if task == "regression":

        def predict_fn(x, pattern, _pipe=pipe, _obs=observed):
            return _pipe.predict_for_pattern(x, pattern, _obs)

        return regression_pattern_metrics(predict_fn, data.world, data.x_test, data.y_test)

    def proba_fn(x, pattern, _pipe=pipe, _obs=observed):
        return _pipe.proba_for_pattern(x, pattern, _obs)

    return classification_pattern_metrics(proba_fn, data.x_test, data.y_test)


def _classification_jsd_sweep(cfg, reps, pipelines, n_test):
    """Marginal-fidelity JSD for every single-observed-feature pattern.

    The empirical marginal is estimated from all data (train and test
    pooled) in normalized coordinates; each model is queried through its
    own missing-input rule.
    """
    d = reps[0].schema.d
    estimates = []
    for data in reps:
        stats = data.schema.stats
        x_all = np.vstack([data.x_train, data.x_test])
        y_all = np.concatenate([data.y_train, data.y_test]).astype(int)
        z_all = apply_normalization(x_all, stats)
        per_feature = []
        for j, (_, kind) in enumerate(data.schema.features):
            per_feature.append(
                empirical_conditional(
                    z_all[:, j], y_all, bins=50, discrete=isinstance(kind, Categorical)
                )
            )
        estimates.append(per_feature)

    single_observed = []
    for j in range(d):
        pattern = np.ones(d, dtype=np.uint8)
        pattern[j] = 0
        single_observed.append(pattern)

    method_metrics = {}
    for method in cfg.methods:
        per_rep = []
        for data in reps:
            pipe = pipelines[(method.name, data.rep)]
            est_list = estimates[data.rep]
            stats = data.schema.stats

            def _jsd_for_pattern(
                pattern, _pipe=pipe, _est=est_list, _stats=stats, _schema=data.schema
            ):
                observed = [i for i, b in enumerate(pattern) if b == 0]
                (j,) = observed
                est = _est[j]
                rows_z = np.zeros((est.positions.shape[0], _schema.d))
                rows_z[:, j] = est.positions
                rows_raw = invert_normalization(rows_z, _stats)
                proba = _pipe.proba_for_pattern(rows_raw, pattern)
                return marginal_fidelity_binned(proba[:, 1], est)

            per_rep.append({"marginal_jsd": _jsd_for_pattern})
        method_metrics[method.name] = per_rep
    return run_pattern_sweep(method_metrics, single_observed, n_test)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_artifacts(cfg, out: Path, reps, pipelines, traces, reports, jsd_reports) -> None:
    (out / "models").mkdir(exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    (out / "worlds").mkdir(exist_ok=True)
    (out / "data").mkdir(exist_ok=True)

    rows = report_rows(reports)
    if jsd_reports:
        rows += report_rows(jsd_reports)
    _write_csv(out / "report_long.csv", ["method", "pattern", "popcount", "metric", "rep", "value"], rows)

    plot_rows = []
    for name in sorted(reports):
        for (metric, popcount), stats in reports[name].by_popcount().items():
            plot_rows.append((name, metric, popcount, stats["mean"], stats["std"]))
    if jsd_reports:
        for name in sorted(jsd_reports):
            for (metric, popcount), stats in jsd_reports[name].by_popcount().items():
                plot_rows.append((name, metric, popcount, stats["mean"], stats["std"]))
    plot_rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(out / "plotdata.csv", ["method", "metric", "popcount", "mean", "std"], plot_rows)

    agg = aggregates_dict(reports)
    if jsd_reports:
        jsd_agg = aggregates_dict(jsd_reports)
        for name, entries in jsd_agg.items():
            agg.setdefault(name, {}).update(entries)
    with open(out / "aggregates.json", "w") as fh:
        json.dump(agg, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    for (name, rep), pipe in sorted(pipelines.items()):
        with open(out / "models" / f"{name}_rep{rep}.json", "w") as fh:
            json.dump(pipe.to_json_dict(), fh, sort_keys=True, allow_nan=False)
            fh.write("\n")
    for (name, rep), trace in sorted(traces.items()):
        _write_csv(out / "traces" / f"{name}_rep{rep}.csv", ["step", "loss"], trace)

    for data in reps:
        if data.world is not None:
            with open(out / "worlds" / f"rep{data.rep}.json", "w") as fh:
                json.dump(data.world.to_json_dict(), fh, sort_keys=True, allow_nan=False)
                fh.write("\n")
        train_rows = [tuple(x) + (y,) for x, y in zip(data.x_train, data.y_train)]
        _write_csv(
            out / "data" / f"train_rep{data.rep}.csv",
            [*(f"x{i + 1}" for i in range(data.schema.d)), "y"],
            [tuple(float(v) for v in row) for row in train_rows],
        )
        _write_csv(
            out / "data" / f"train_mask_rep{data.rep}.csv",
            [f"x{i + 1}" for i in range(data.schema.d)],
            [tuple(int(v) for v in row) for row in data.train_observed],
        )
        if cfg.dump_test_data:
            test_rows = [tuple(float(v) for v in x) + (float(y),) for x, y in zip(data.x_test, data.y_test)]
            _write_csv(
                out / "data" / f"test_rep{data.rep}.csv",
                [*(f"x{i + 1}" for i in range(data.schema.d)), "y"],
                test_rows,
            )

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
        "files": {},
    }
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            manifest["files"][str(path.relative_to(out))] = digest
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def ablate_placeholder(
    cfg: ExperimentConfig,
    values: list[float],
    out_dir: str | Path | None = None,
    jobs: int = 1,
) -> RunArtifacts:
    """Train one knockout model per placeholder magnitude and sweep each.

    Magnitude 0 puts the placeholder exactly at the feature mean; its
    observed-missing counterpart is forced distinct (and is unused in the
    complete-data regime this ablation runs in).
    """
    if not values:
        raise ValueError("ablation needs at least one placeholder value")
    schema = _schema_for(cfg)
    if any(not isinstance(kind, ContinuousUnbounded) for kind in schema.kinds):
        raise ValueError("placeholder ablation needs z-scored continuous features only")
    methods = []
    for v in values:
        if float(v) < 0:
            raise ValueError("placeholder magnitudes must be nonnegative")
        methods.append(
            MethodConfig(
                name=f"knockout_ph{v:g}",
                kind="knockout",
                knockout_value=float(v),
                observed_value=float(v) - 20.0,
            )
        )
    ablate_cfg = dataclasses.replace(cfg, methods=tuple(methods))
    return run_experiment(ablate_cfg, out_dir=out_dir, jobs=jobs)



def sweep_saved_models(
    cfg: ExperimentConfig, models_dir: str | Path, out_dir: str | Path, k_max: int | None = None
) -> RunArtifacts:
    """Evaluation-only run: rebuild the datasets, load saved models, sweep."""
    models_dir = Path(models_dir)
    reps = [build_repetition(cfg, rep) for rep in range(cfg.repetitions)]
    pipelines = {}
    for method in cfg.methods:
        for data in reps:
            path = models_dir / f"{method.name}_rep{data.rep}.json"
            if not path.exists():
                raise KeyError(
                    f"missing model for method {method.name!r}, repetition {data.rep}: {path}"
                )
            with open(path) as fh:
                pipelines[(method.name, data.rep)] = pipeline_from_json(
                    json.load(fh), _schema_for(cfg)
                )

    task = _task_for(cfg)
    d = reps[0].schema.d
    patterns = enumerate_patterns(d, min(k_max if k_max is not None else cfg.k_max, d))
    method_metrics = {}
    for method in cfg.methods:
        per_rep = []
        for data in reps:
            per_rep.append(_rep_metrics(task, pipelines[(method.name, data.rep)], data))
        method_metrics[method.name] = per_rep
    n_test = reps[0].x_test.shape[0]
    reports = run_pattern_sweep(method_metrics, patterns, n_test)
    jsd_reports = None
    if task == "classification":
        jsd_reports = _classification_jsd_sweep(cfg, reps, pipelines, n_test)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = report_rows(reports)
    if jsd_reports:
        rows += report_rows(jsd_reports)
    _write_csv(out / "report_long.csv", ["method", "pattern", "popcount", "metric", "rep", "value"], rows)
    return RunArtifacts(out, reports, jsd_reports, pipelines, reps)
