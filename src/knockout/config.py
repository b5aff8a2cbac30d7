"""Experiment configuration: a strict INI-style file with nested sections.

Every key is declared once, in ``_KEYS``; ``_WORLD_KEYS``,
``_MECHANISM_KEYS`` and ``_KIND_KEYS`` say which keys each world kind,
mechanism and method kind reads. Parsing, the value checks and the
canonical text all follow these tables, so a key a run does not read (or
an unknown section) is rejected, naming its section, and every key it
reads is hashed. ``parse -> serialize -> parse`` is a fixed point, and the
canonical serialization is what gets hashed into the run manifest. The
world kind fixes the training loss, so no key sets it.
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
    "default_k_max",
    "train_rows",
]


class ConfigError(ValueError):
    pass


_CLASSIFICATION_WORLDS = ("continuous2d", "mixed")
# The method kinds whose rules take continuous features only.
_CONTINUOUS_KINDS = ("dropout", "zero_indicator", "knn", "lin_reg")


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _hidden(raw: str) -> tuple[int, ...]:
    widths = tuple(int(part) for part in raw.split(","))  # an empty width is no int
    if any(w < 1 for w in widths):
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
    ("world", "path", "csv_path", str),
    ("world", "target", "csv_target", str),
    ("missingness", "mechanism", "mechanism", str),
    ("missingness", "p", "mcar_p", float),
    ("missingness", "q", "mnar_q", float),
    ("train", "steps", "steps", int),
    ("train", "batch_size", "batch_size", int),
    ("train", "learning_rate", "learning_rate", float),
    ("train", "hidden", "hidden", _hidden),
    ("train", "seed0", "seed0", int),
    ("sweep", "k_max", "k_max", int),
    ("sweep", "repetitions", "repetitions", int),
    ("output", "dir", "out_dir", str),
    ("method", "kind", "kind", str),
    ("method", "p_clean", "p_clean", float),
    ("method", "placeholder", "placeholder", str),
    ("method", "dual_placeholder", "dual_placeholder", _bool),
    ("method", "knockout_value", "knockout_value", float),
    ("method", "observed_value", "observed_value", float),
    ("method", "k", "k", int),
)

# The keys that each world kind, mechanism and method kind reads besides
# the key that picks it, in serialized order. [train], [sweep] and
# [output] read all their keys.
_WORLD_KEYS = {
    "gaussian": ("dim", "n_total", "train_fraction"),
    "continuous2d": ("n_total", "train_fraction"),
    "mixed": ("n_total", "train_fraction"),
    "csv": ("train_fraction", "path", "target"),
}
_MECHANISM_KEYS = {"none": (), "mcar": ("p",), "mnar_self_censor": ("q",)}
_KIND_KEYS = {
    "knockout": ("p_clean", "placeholder", "dual_placeholder", "knockout_value", "observed_value"),
    "common_baseline": (),
    "dropout": ("p_clean",),
    "zero_indicator": ("p_clean",),
    "knn": ("k",),
    "lin_reg": (),
}

# Each section with variants: (the key that picks the variant, its value
# when the key is absent or None if it is required, the variants' keys).
_VARIANTS = {
    "world": ("kind", None, _WORLD_KEYS),
    "missingness": ("mechanism", "none", _MECHANISM_KEYS),
    "method": ("kind", None, _KIND_KEYS),
}


@dataclass(frozen=True)
class MethodConfig:
    name: str
    kind: str
    p_clean: float = 0.5
    placeholder: str = "derived"  # "derived" | "mean"
    dual_placeholder: bool = True
    knockout_value: float | None = None
    observed_value: float | None = None
    k: int = 5

    def __post_init__(self):
        if "/" in self.name or "\\" in self.name:
            raise ConfigError(
                f"section [method.{self.name}]: the name is a file name stem, with no '/' or '\\'"
            )
        if self.kind not in _KIND_KEYS:
            self._reject("kind", f"unknown kind {self.kind!r}")
        if self.placeholder not in ("derived", "mean"):
            self._reject("placeholder", "must be 'derived' or 'mean'")
        if not 0.0 < self.p_clean < 1.0:
            self._reject("p_clean", f"must be in (0, 1), got {self.p_clean}")
        for key in ("knockout_value", "observed_value"):
            value = getattr(self, key)
            if value is not None and self.placeholder == "mean":
                self._reject(key, "placeholder = mean uses the mean/mode, not this value")
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
    k_max: int | None = None  # None: `default_k_max` of the feature count, once known
    repetitions: int = 10
    out_dir: str = "out"

    def __post_init__(self):
        # Each value is checked only where its world kind or mechanism reads it.
        if self.world_kind not in _WORLD_KEYS:
            _reject("world", "kind", f"unknown kind {self.world_kind!r}")
        if self.mechanism not in _MECHANISM_KEYS:
            _reject("missingness", "mechanism", f"unknown mechanism {self.mechanism!r}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError(f"method names must be unique, got {names}")
        if not 0.0 < self.train_fraction < 1.0:
            _reject("world", "train_fraction", f"must be in (0, 1), got {self.train_fraction}")
        if self.world_kind == "csv":
            if not (self.csv_path and self.csv_target):
                key = "target" if self.csv_path else "path"
                _reject("world", key, "a csv world needs the data file's path and target column")
        elif self.n_total < 10:  # a generated world: its size is n_total
            _reject("world", "n_total", f"must be at least 10, got {self.n_total}")
        else:
            train_rows(self.n_total, self.train_fraction)
        if self.repetitions < 1:
            _reject("sweep", "repetitions", f"must be >= 1, got {self.repetitions}")
        if self.k_max is not None and self.k_max < 0:
            _reject("sweep", "k_max", f"must be >= 0, got {self.k_max}")
        if self.world_kind == "gaussian" and self.dim < 2:
            _reject("world", "dim", f"must be >= 2 (the target and a feature), got {self.dim}")
        d = _feature_count(self.world_kind, self.dim)
        if d is not None and self.k_max is not None:
            check_k_max(self.k_max, d)
        if self.mechanism == "mcar" and not 0.0 <= self.mcar_p <= 1.0:
            _reject("missingness", "p", f"must be in [0, 1], got {self.mcar_p}")
        if self.mechanism == "mnar_self_censor" and not 0.0 < self.mnar_q < 1.0:
            _reject("missingness", "q", f"must be in (0, 1), got {self.mnar_q}")
        if self.seed0 < 0:
            _reject("train", "seed0", f"must be >= 0, got {self.seed0}")
        if self.steps < 0:
            _reject("train", "steps", f"must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            _reject("train", "batch_size", f"must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            _reject("train", "learning_rate", f"must be finite and > 0, got {self.learning_rate}")
        if self.world_kind == "mixed":  # the only world with a categorical feature, x1
            for method in self.methods:
                if method.kind in _CONTINUOUS_KINDS:
                    method._reject("kind", f"{method.kind} supports continuous features only, "
                                   "and the mixed world's x1 is categorical")
                for key in ("knockout_value", "observed_value"):
                    if getattr(method, key) is not None:
                        method._reject(key, "the mixed world's categorical x1 takes the derived "
                                       "placeholder codes, not a value")

    @property
    def loss(self) -> str:
        """The training loss, which the world kind's task fixes."""
        return _task_loss(self.world_kind)


def _reject(section: str, key: str, problem: str) -> None:
    raise ConfigError(f"section [{section}], key {key!r}: {problem}")


def check_k_max(k_max: int, d: int) -> None:
    """Reject a sweep depth above the feature count: no pattern has that many missing."""
    if k_max > d:
        _reject("sweep", "k_max", f"must be <= {d}, the world's feature count, got {k_max}")


def default_k_max(d: int) -> int:
    """The sweep depth when no k_max is set: 3, or the feature count if fewer."""
    return max(0, min(3, d))


def train_rows(n: int, train_fraction: float, path: str | None = None) -> int:
    """The training rows of an n-row world; a split that leaves no training
    or no test rows is rejected, naming a csv world's data file ``path``."""
    n_train = int(round(n * train_fraction))
    if not 0 < n_train < n:
        rows = f"the {n} rows of {path}" if path else f"n_total = {n}"
        side = "training" if n_train == 0 else "test"
        _reject("world", "train_fraction", f"{train_fraction} of {rows} leaves no {side} rows")
    return n_train


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


def _rows(section: str, variant: str | None = None) -> dict:
    """{key: (field, parser)} of the keys a section reads, in serialized
    order. Section "method" stands for every [method.NAME]; a section with
    variants reads the key that picks ``variant`` and that variant's keys."""
    rows = {key: (field, parse) for s, key, field, parse in _KEYS if s == section}
    if section not in _VARIANTS:
        return rows
    pick, _, reads = _VARIANTS[section]
    return {key: rows[key] for key in (pick, *reads[variant])}


# The fixed sections, in serialized order.
_SECTIONS = tuple(dict.fromkeys(section for section, *_ in _KEYS if section != "method"))


def _read_section(parser, section: str, rows_of: str) -> dict:
    """The values of the keys ``section`` reads, as {field: value}; ``rows_of``
    names its rows (the section, or "method"). Any other key is rejected."""
    if not parser.has_section(section):
        return {}
    variant, what = None, ""
    if rows_of in _VARIANTS:
        pick, default, reads = _VARIANTS[rows_of]
        variant = parser.get(section, pick, fallback=default)
        if variant is None:
            raise ConfigError(f"section [{section}]: key {pick!r} is required")
        if variant not in reads:
            _reject(section, pick, f"unknown {pick} {variant!r}")
        what = f" for {pick} {variant!r}"
    rows = _rows(rows_of, variant)
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
    # Retired: every run draws its induced masks per row. The one value
    # that did so is still accepted, and read as nothing.
    if parser.has_option("train", "mask_granularity"):
        if parser.get("train", "mask_granularity") != "per_sample":
            _reject("train", "mask_granularity", "retired: induced masks are drawn per row")
        parser.remove_option("train", "mask_granularity")

    values = {}
    for section in _SECTIONS:
        values.update(_read_section(parser, section, section))
    methods = [
        MethodConfig(name=section[len("method.") :], **_read_section(parser, section, "method"))
        for section in parser.sections()
        if section.startswith("method.")
    ]
    methods.sort(key=lambda m: m.name)

    # A csv world's feature count is known once the runner reads its header.
    d = _feature_count(values["world_kind"], values.get("dim", ExperimentConfig.dim))
    if d is not None:
        values.setdefault("k_max", default_k_max(d))
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
    """Canonical text form, holding exactly the keys the run reads;
    parse(serialize(parse(text))) is a fixed point."""
    parser = configparser.ConfigParser(interpolation=None)

    def write(section: str, obj, rows: dict) -> None:
        parser[section] = {}
        for key, (field, _) in rows.items():
            value = getattr(obj, field)
            if value is not None:
                parser[section][key] = _fmt(value)

    variants = {"world": cfg.world_kind, "missingness": cfg.mechanism}
    for section in _SECTIONS:
        write(section, cfg, _rows(section, variants.get(section)))
    for method in cfg.methods:
        write(f"method.{method.name}", method, _rows("method", method.kind))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
