"""Experiment configuration: a strict INI-style file with nested sections.

Every key is declared once, in ``_KEYS``, and ``_KIND_KEYS`` says which
method keys each method kind reads. Parsing, the key checks and the
canonical text all follow these two tables, so a key a run does not read
is rejected and every key it reads is hashed. Unknown sections or keys
are rejected outright so that typos cannot silently change an experiment.
``parse -> serialize -> parse`` is a fixed point, and the canonical
serialization is what gets hashed into the run manifest.
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
    "check_k_max",
]


class ConfigError(ValueError):
    pass


_WORLD_KINDS = ("gaussian", "continuous2d", "mixed", "csv")
_CLASSIFICATION_WORLDS = ("continuous2d", "mixed")
_MECHANISMS = ("none", "mcar", "mnar_self_censor")
_MASK_GRANULARITIES = ("per_batch", "per_sample")


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _text(raw: str) -> str | None:
    """An optional string; an empty value is the same as no key."""
    return raw or None


def _hidden(raw: str) -> tuple[int, ...]:
    widths = tuple(int(part) for part in raw.split(",") if part.strip())
    if not widths or any(w < 1 for w in widths):
        raise ValueError(f"invalid hidden widths {raw!r}")
    return widths


# One row per key: (section, key, field, parser), in serialized order.
# Section "method" stands for every [method.NAME] section, whose keys name
# MethodConfig fields; the other fields are ExperimentConfig's. Defaults
# are the dataclass defaults, and a None value is left out of the text.
_KEYS = (
    ("world", "kind", "world_kind", str),
    ("world", "dim", "dim", int),
    ("world", "n_total", "n_total", int),
    ("world", "train_fraction", "train_fraction", float),
    ("world", "path", "csv_path", _text),
    ("world", "target", "csv_target", _text),
    ("missingness", "mechanism", "mechanism", str),
    ("missingness", "p", "mcar_p", float),
    ("missingness", "q", "mnar_q", float),
    ("train", "steps", "steps", int),
    ("train", "batch_size", "batch_size", int),
    ("train", "learning_rate", "learning_rate", float),
    ("train", "hidden", "hidden", _hidden),
    ("train", "seed0", "seed0", int),
    ("train", "loss", "loss", str),
    ("train", "mask_granularity", "mask_granularity", str),
    ("sweep", "k_max", "k_max", int),
    ("sweep", "repetitions", "repetitions", int),
    ("output", "dir", "out_dir", str),
    ("output", "dump_test_data", "dump_test_data", _bool),
    ("method", "kind", "kind", str),
    ("method", "p_clean", "p_clean", float),
    ("method", "rate", "rate", float),
    ("method", "zscore_magnitude", "zscore_magnitude", float),
    ("method", "placeholder", "placeholder", str),
    ("method", "dual_placeholder", "dual_placeholder", _bool),
    ("method", "knockout_value", "knockout_value", float),
    ("method", "observed_value", "observed_value", float),
    ("method", "k", "k", int),
    ("method", "dropout_rate", "dropout_rate", float),
    ("method", "rescale", "rescale", _bool),
)

# The method keys each kind reads besides `kind`, in serialized order.
_KIND_KEYS = {
    "knockout": (
        "p_clean",
        "zscore_magnitude",
        "placeholder",
        "dual_placeholder",
        "rate",
        "knockout_value",
        "observed_value",
    ),
    "common_baseline": (),
    "dropout": ("p_clean", "dropout_rate", "rescale"),
    "zero_indicator": ("p_clean", "rate"),
    "knn": ("k",),
    "lin_reg": (),
}


@dataclass(frozen=True)
class MethodConfig:
    name: str
    kind: str
    p_clean: float = 0.5
    rate: float | None = None
    zscore_magnitude: float | None = None  # 10.0 for derived placeholders, unread by mean
    placeholder: str = "derived"  # "derived" | "mean"
    dual_placeholder: bool = True
    knockout_value: float | None = None
    observed_value: float | None = None
    k: int = 5
    dropout_rate: float | None = None
    rescale: bool = False

    def __post_init__(self):
        if self.kind not in _KIND_KEYS:
            self._reject("kind", f"unknown kind {self.kind!r}")
        if self.placeholder not in ("derived", "mean"):
            self._reject("placeholder", "must be 'derived' or 'mean'")
        if not 0.0 < self.p_clean < 1.0:
            self._reject("p_clean", f"must be in (0, 1), got {self.p_clean}")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            self._reject("rate", f"must be in [0, 1], got {self.rate}")
        if self.dropout_rate is not None and not 0.0 <= self.dropout_rate <= 1.0:
            self._reject("dropout_rate", f"must be in [0, 1], got {self.dropout_rate}")
        for key in ("zscore_magnitude", "knockout_value", "observed_value"):
            if getattr(self, key) is not None and self.placeholder == "mean":
                self._reject(key, "placeholder = mean uses the mean/mode, not this value")
        if self.zscore_magnitude is None and self.placeholder == "derived":
            object.__setattr__(self, "zscore_magnitude", 10.0)
        magnitude = self.zscore_magnitude
        if magnitude is not None and not (math.isfinite(magnitude) and magnitude > 0.0):
            self._reject("zscore_magnitude", f"must be finite and > 0, got {magnitude}")
        for key in ("knockout_value", "observed_value"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                self._reject(key, f"must be finite, got {value}")
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
            _reject("world", "kind", f"unknown world kind {self.world_kind!r}")
        for key, value in (("path", self.csv_path), ("target", self.csv_target)):
            if self.world_kind == "csv" and not value:
                _reject("world", key, "a csv world needs the data file's path and target column")
            if self.world_kind != "csv" and value is not None:
                _reject("world", key, f"only a csv world reads it, not {self.world_kind!r}")
        if self.mechanism not in _MECHANISMS:
            _reject("missingness", "mechanism", f"unknown mechanism {self.mechanism!r}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError(f"method names must be unique, got {names}")
        if self.n_total < 10:
            _reject("world", "n_total", f"must be at least 10, got {self.n_total}")
        if not 0.0 < self.train_fraction < 1.0:
            _reject("world", "train_fraction", f"must be in (0, 1), got {self.train_fraction}")
        if self.repetitions < 1:
            _reject("sweep", "repetitions", f"must be >= 1, got {self.repetitions}")
        if self.k_max < 0:
            _reject("sweep", "k_max", f"must be >= 0, got {self.k_max}")
        if self.dim < 2:
            _reject("world", "dim", f"must be >= 2 (the target and a feature), got {self.dim}")
        d = _feature_count(self.world_kind, self.dim)
        if d is not None:
            check_k_max(self.k_max, d)
        if not 0.0 <= self.mcar_p <= 1.0:
            _reject("missingness", "p", f"must be in [0, 1], got {self.mcar_p}")
        if not 0.0 < self.mnar_q < 1.0:
            _reject("missingness", "q", f"must be in (0, 1), got {self.mnar_q}")
        if self.seed0 < 0:
            _reject("train", "seed0", f"must be >= 0, got {self.seed0}")
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


def check_k_max(k_max: int, d: int) -> None:
    """Reject a sweep depth above the feature count: no pattern has that many missing."""
    if k_max > d:
        _reject("sweep", "k_max", f"must be <= {d}, the world's feature count, got {k_max}")


def _feature_count(world_kind: str, dim: int) -> int | None:
    """Features of the world's inputs; None for a csv world, whose header decides."""
    if world_kind == "gaussian":
        return dim - 1  # one of the dim jointly gaussian coordinates is the target
    if world_kind in _CLASSIFICATION_WORLDS:
        return 2
    return None


def _task_loss(world_kind: str) -> str:
    """The training loss of a world's task: classification worlds use cross-entropy."""
    return "cross_entropy" if world_kind in _CLASSIFICATION_WORLDS else "mse"


def _rows(section: str) -> dict:
    """{key: (field, parser)} of a section's rows, in serialized order."""
    return {key: (field, parse) for s, key, field, parse in _KEYS if s == section}


def _method_rows(kind: str) -> dict:
    """The rows of a [method.NAME] section: `kind` and the keys the kind reads."""
    rows = _rows("method")
    return {key: rows[key] for key in ("kind", *_KIND_KEYS[kind])}


# The fixed sections, in serialized order.
_SECTIONS = tuple(dict.fromkeys(section for section, *_ in _KEYS if section != "method"))


def _read_section(parser, section: str, rows: dict, what: str = "") -> dict:
    """The section's values as {field: value}; a key without a row is rejected."""
    unknown = set(parser.options(section)) - set(rows)
    if unknown:
        raise ConfigError(
            f"section [{section}]: unknown key(s) {sorted(unknown)}{what}; allowed: {sorted(rows)}"
        )
    values = {}
    for key in parser.options(section):
        field, parse = rows[key]
        try:
            values[field] = parse(parser.get(section, key))
        except ValueError as exc:
            raise ConfigError(f"section [{section}], key {key!r}: {exc}") from exc
    return values


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    for section in parser.sections():
        if section == "method.":
            raise ConfigError("method section needs a name: [method.NAME]")
        if section not in _SECTIONS and not section.startswith("method."):
            raise ConfigError(f"unknown section [{section}]")
    if not parser.has_section("world"):
        raise ConfigError("missing required section [world]")

    values = {}
    for section in _SECTIONS:
        if parser.has_section(section):
            values.update(_read_section(parser, section, _rows(section)))
    world_kind = values.get("world_kind")
    if world_kind is None:
        raise ConfigError("section [world]: key 'kind' is required")

    methods = []
    for section in parser.sections():
        if not section.startswith("method."):
            continue
        kind = parser.get(section, "kind", fallback=None)
        if kind is None:
            raise ConfigError(f"section [{section}]: key 'kind' is required")
        if kind not in _KIND_KEYS:
            _reject(section, "kind", f"unknown kind {kind!r}")
        fields = _read_section(parser, section, _method_rows(kind), f" for kind {kind!r}")
        methods.append(MethodConfig(name=section[len("method.") :], **fields))
    methods.sort(key=lambda m: m.name)

    # The two defaults that depend on the world: the task's loss, and a
    # sweep 3 deep, or to every feature if fewer.
    values.setdefault("loss", _task_loss(world_kind))
    d = _feature_count(world_kind, values.get("dim", ExperimentConfig.dim))
    values.setdefault("k_max", 3 if d is None else max(0, min(3, d)))
    return ExperimentConfig(methods=tuple(methods), **values)


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

    def write(section: str, obj, rows: dict) -> None:
        parser[section] = {}
        for key, (field, _) in rows.items():
            value = getattr(obj, field)
            if value is not None:
                parser[section][key] = _fmt(value)

    for section in _SECTIONS:
        write(section, cfg, _rows(section))
    for method in cfg.methods:
        write(f"method.{method.name}", method, _method_rows(method.kind))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
