"""Experiment configuration: a strict INI-style file with nested sections.

Unknown sections or keys are rejected outright so that typos cannot
silently change an experiment. ``parse -> serialize -> parse`` is a fixed
point, and the canonical serialization is what gets hashed into the run
manifest.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass

__all__ = [
    "ConfigError",
    "MethodConfig",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "config_hash",
]


class ConfigError(ValueError):
    pass


_WORLD_KINDS = ("gaussian", "continuous2d", "mixed", "csv")
_CLASSIFICATION_WORLDS = ("continuous2d", "mixed")
_MECHANISMS = ("none", "mcar", "mnar_self_censor")
_MASK_GRANULARITIES = ("per_batch", "per_sample")
_METHOD_KINDS = (
    "knockout",
    "common_baseline",
    "dropout",
    "zero_indicator",
    "knn",
    "lin_reg",
)

_WORLD_KEYS = {"kind", "dim", "n_total", "train_fraction", "path", "target"}
_MISSINGNESS_KEYS = {"mechanism", "p", "q"}
_TRAIN_KEYS = {
    "steps",
    "batch_size",
    "learning_rate",
    "hidden",
    "seed0",
    "loss",
    "mask_granularity",
}
_SWEEP_KEYS = {"k_max", "repetitions"}
_OUTPUT_KEYS = {"dir", "dump_test_data"}
_METHOD_KEYS = {
    "kind",
    "p_clean",
    "rate",
    "zscore_magnitude",
    "placeholder",
    "dual_placeholder",
    "knockout_value",
    "observed_value",
    "k",
    "dropout_rate",
    "rescale",
}


@dataclass(frozen=True)
class MethodConfig:
    name: str
    kind: str
    p_clean: float = 0.5
    rate: float | None = None
    zscore_magnitude: float = 10.0
    placeholder: str = "derived"  # "derived" | "mean"
    dual_placeholder: bool = True
    knockout_value: float | None = None
    observed_value: float | None = None
    k: int = 5
    dropout_rate: float | None = None
    rescale: bool = False

    def __post_init__(self):
        if self.kind not in _METHOD_KINDS:
            self._reject("kind", f"unknown kind {self.kind!r}")
        if self.placeholder not in ("derived", "mean"):
            self._reject("placeholder", "must be 'derived' or 'mean'")
        if not 0.0 < self.p_clean < 1.0:
            self._reject("p_clean", f"must be in (0, 1), got {self.p_clean}")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            self._reject("rate", f"must be in [0, 1], got {self.rate}")
        if self.k < 1:
            self._reject("k", f"must be >= 1, got {self.k}")
        if (self.knockout_value is not None) and (
            self.observed_value is not None
        ) and self.knockout_value == self.observed_value:
            self._reject("observed_value", "must differ from knockout_value")

    def _reject(self, key: str, problem: str) -> None:
        _reject(f"method.{self.name}", key, problem)


@dataclass(frozen=True)
class ExperimentConfig:
    world_kind: str
    methods: tuple[MethodConfig, ...]
    n_total: int = 30000
    train_fraction: float = 0.1
    dim: int = 10
    csv_path: str | None = None
    csv_target: str | None = None
    mechanism: str = "none"
    mcar_p: float = 0.1
    mnar_q: float = 0.9
    steps: int = 5000
    batch_size: int = 128
    learning_rate: float = 3e-3
    hidden: tuple[int, ...] = (100, 100)
    seed0: int = 17
    loss: str = "mse"
    mask_granularity: str = "per_batch"
    k_max: int = 3
    repetitions: int = 10
    out_dir: str = "out"
    dump_test_data: bool = False

    def __post_init__(self):
        if self.world_kind not in _WORLD_KINDS:
            raise ConfigError(f"unknown world kind {self.world_kind!r}")
        if self.world_kind == "csv" and not self.csv_path:
            raise ConfigError("csv world needs world.path")
        if self.mechanism not in _MECHANISMS:
            raise ConfigError(f"unknown missingness mechanism {self.mechanism!r}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError(f"method names must be unique, got {names}")
        if self.n_total < 10:
            raise ConfigError("n_total must be at least 10")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.k_max < 0:
            raise ConfigError("k_max must be >= 0")
        if self.dim < 2:
            _reject("world", "dim", f"must be >= 2 (the target and a feature), got {self.dim}")
        if not 0.0 <= self.mcar_p <= 1.0:
            _reject("missingness", "p", f"must be in [0, 1], got {self.mcar_p}")
        if not 0.0 < self.mnar_q < 1.0:
            _reject("missingness", "q", f"must be in (0, 1), got {self.mnar_q}")
        if self.steps < 0:
            _reject("train", "steps", f"must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            _reject("train", "batch_size", f"must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            _reject("train", "learning_rate", f"must be finite and > 0, got {self.learning_rate}")
        if self.loss != _task_loss(self.world_kind):
            _reject(
                "train",
                "loss",
                f"world kind {self.world_kind!r} trains with "
                f"{_task_loss(self.world_kind)!r}, got {self.loss!r}",
            )
        if self.mask_granularity not in _MASK_GRANULARITIES:
            _reject(
                "train",
                "mask_granularity",
                f"must be one of {list(_MASK_GRANULARITIES)}, got {self.mask_granularity!r}",
            )


def _reject(section: str, key: str, problem: str) -> None:
    raise ConfigError(f"section [{section}], key {key!r}: {problem}")


def _task_loss(world_kind: str) -> str:
    """The training loss of a world's task: classification worlds use cross-entropy."""
    return "cross_entropy" if world_kind in _CLASSIFICATION_WORLDS else "mse"


def _check_keys(section: str, present, allowed: set[str]) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(
            f"section [{section}]: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _get(parser, section, key, cast, default):
    # has_option is false for a missing section too: both give the default.
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        if cast is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"section [{section}], key {key!r}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    known_fixed = {"world", "missingness", "train", "sweep", "output"}
    for section in parser.sections():
        if section in known_fixed:
            continue
        if section.startswith("method."):
            if len(section) <= len("method."):
                raise ConfigError("method section needs a name: [method.NAME]")
            continue
        raise ConfigError(f"unknown section [{section}]")
    if not parser.has_section("world"):
        raise ConfigError("missing required section [world]")

    _check_keys("world", parser.options("world"), _WORLD_KEYS)
    world_kind = _get(parser, "world", "kind", str, None)
    if world_kind is None:
        raise ConfigError("section [world]: key 'kind' is required")

    if parser.has_section("missingness"):
        _check_keys("missingness", parser.options("missingness"), _MISSINGNESS_KEYS)
    if parser.has_section("train"):
        _check_keys("train", parser.options("train"), _TRAIN_KEYS)
    if parser.has_section("sweep"):
        _check_keys("sweep", parser.options("sweep"), _SWEEP_KEYS)
    if parser.has_section("output"):
        _check_keys("output", parser.options("output"), _OUTPUT_KEYS)

    def _hidden(raw: str) -> tuple[int, ...]:
        widths = tuple(int(part) for part in raw.split(",") if part.strip())
        if not widths or any(w < 1 for w in widths):
            raise ValueError(f"invalid hidden widths {raw!r}")
        return widths

    methods = []
    for section in parser.sections():
        if not section.startswith("method."):
            continue
        name = section[len("method.") :]
        _check_keys(section, parser.options(section), _METHOD_KEYS)
        kind = _get(parser, section, "kind", str, None)
        if kind is None:
            raise ConfigError(f"section [{section}]: key 'kind' is required")
        methods.append(
            MethodConfig(
                name=name,
                kind=kind,
                p_clean=_get(parser, section, "p_clean", float, 0.5),
                rate=_get(parser, section, "rate", float, None),
                zscore_magnitude=_get(parser, section, "zscore_magnitude", float, 10.0),
                placeholder=_get(parser, section, "placeholder", str, "derived"),
                dual_placeholder=_get(parser, section, "dual_placeholder", bool, True),
                knockout_value=_get(parser, section, "knockout_value", float, None),
                observed_value=_get(parser, section, "observed_value", float, None),
                k=_get(parser, section, "k", int, 5),
                dropout_rate=_get(parser, section, "dropout_rate", float, None),
                rescale=_get(parser, section, "rescale", bool, False),
            )
        )
    methods.sort(key=lambda m: m.name)

    return ExperimentConfig(
        world_kind=world_kind,
        dim=_get(parser, "world", "dim", int, 10),
        n_total=_get(parser, "world", "n_total", int, 30000),
        train_fraction=_get(parser, "world", "train_fraction", float, 0.1),
        csv_path=_get(parser, "world", "path", str, None),
        csv_target=_get(parser, "world", "target", str, None),
        mechanism=_get(parser, "missingness", "mechanism", str, "none"),
        mcar_p=_get(parser, "missingness", "p", float, 0.1),
        mnar_q=_get(parser, "missingness", "q", float, 0.9),
        steps=_get(parser, "train", "steps", int, 5000),
        batch_size=_get(parser, "train", "batch_size", int, 128),
        learning_rate=_get(parser, "train", "learning_rate", float, 3e-3),
        hidden=_get(parser, "train", "hidden", _hidden, (100, 100)),
        seed0=_get(parser, "train", "seed0", int, 17),
        loss=_get(parser, "train", "loss", str, _task_loss(world_kind)),
        mask_granularity=_get(parser, "train", "mask_granularity", str, "per_batch"),
        k_max=_get(parser, "sweep", "k_max", int, 3),
        repetitions=_get(parser, "sweep", "repetitions", int, 10),
        out_dir=_get(parser, "output", "dir", str, "out"),
        dump_test_data=_get(parser, "output", "dump_test_data", bool, False),
        methods=tuple(methods),
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) is a fixed point."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["world"] = {
        "kind": cfg.world_kind,
        "dim": _fmt(cfg.dim),
        "n_total": _fmt(cfg.n_total),
        "train_fraction": _fmt(cfg.train_fraction),
    }
    if cfg.csv_path:
        parser["world"]["path"] = cfg.csv_path
    if cfg.csv_target:
        parser["world"]["target"] = cfg.csv_target
    parser["missingness"] = {
        "mechanism": cfg.mechanism,
        "p": _fmt(cfg.mcar_p),
        "q": _fmt(cfg.mnar_q),
    }
    parser["train"] = {
        "steps": _fmt(cfg.steps),
        "batch_size": _fmt(cfg.batch_size),
        "learning_rate": _fmt(cfg.learning_rate),
        "hidden": _fmt(cfg.hidden),
        "seed0": _fmt(cfg.seed0),
        "loss": cfg.loss,
        "mask_granularity": cfg.mask_granularity,
    }
    parser["sweep"] = {"k_max": _fmt(cfg.k_max), "repetitions": _fmt(cfg.repetitions)}
    parser["output"] = {"dir": cfg.out_dir, "dump_test_data": _fmt(cfg.dump_test_data)}
    for method in cfg.methods:
        section = f"method.{method.name}"
        parser[section] = {"kind": method.kind}
        if method.kind == "knockout":
            parser[section].update(
                {
                    "p_clean": _fmt(method.p_clean),
                    "zscore_magnitude": _fmt(method.zscore_magnitude),
                    "placeholder": method.placeholder,
                    "dual_placeholder": _fmt(method.dual_placeholder),
                }
            )
            if method.rate is not None:
                parser[section]["rate"] = _fmt(method.rate)
            if method.knockout_value is not None:
                parser[section]["knockout_value"] = _fmt(method.knockout_value)
            if method.observed_value is not None:
                parser[section]["observed_value"] = _fmt(method.observed_value)
        elif method.kind == "dropout":
            parser[section]["p_clean"] = _fmt(method.p_clean)
            if method.dropout_rate is not None:
                parser[section]["dropout_rate"] = _fmt(method.dropout_rate)
            parser[section]["rescale"] = _fmt(method.rescale)
        elif method.kind == "zero_indicator":
            parser[section]["p_clean"] = _fmt(method.p_clean)
        elif method.kind == "knn":
            parser[section]["k"] = _fmt(method.k)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
