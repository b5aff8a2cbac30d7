import configparser
import hashlib
import json
import re
import shutil

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from knockout import methods
from knockout.cli import main
from knockout.config import (
    _CONTINUOUS_KINDS,
    _KEYS,
    _KIND_KEYS,
    _MECHANISM_KEYS,
    _WORLD_KEYS,
    ConfigError,
    MethodConfig,
    config_hash,
    parse_config,
    serialize_config,
)
from knockout.schema import Categorical, ContinuousUnbounded, FeatureSchema

TINY_CONFIG = """
[world]
kind = gaussian
dim = 10
n_total = 400
train_fraction = 0.5

[train]
steps = 40
batch_size = 32
hidden = 16
seed0 = 5

[sweep]
k_max = 1
repetitions = 1

[output]
dir = {out}

[method.knockout]
kind = knockout

[method.common_baseline]
kind = common_baseline
"""


def write_config(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return path


def test_config_round_trip_is_fixed_point():
    cfg = parse_config(TINY_CONFIG.format(out="out"))
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2 == cfg
    assert serialize_config(cfg2) == text
    assert config_hash(cfg2) == config_hash(cfg)


def test_config_rejects_unknown_section_and_key():
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        parse_config("[world]\nkind = gaussian\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="unknown key.*typo_rate"):
        parse_config("[world]\nkind = gaussian\ntypo_rate = 2\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(
            "[world]\nkind = gaussian\n[method.m]\nkind = knockout\nbogus = 1\n"
        )
    # A method key its kind does not read is rejected too, naming both.
    unread = (
        ("knn", "p_clean = 0.3"),
        ("knn", "dual_placeholder = false"),
        ("zero_indicator", "placeholder = mean"),
        ("dropout", "k = 3"),
        ("common_baseline", "knockout_value = 3"),
        ("lin_reg", "k = 3"),
    )
    for kind, line in unread:
        key = line.split(" ")[0]
        with pytest.raises(ConfigError, match=rf"section \[method\.m\]: unknown key\(s\) \['{key}'\]"):
            parse_config(f"[world]\nkind = gaussian\n[method.m]\nkind = {kind}\n{line}\n")


DELETED_KEYS = (
    ("output", "dump_test_data = true"),
    ("train", "loss = mse"),
    ("method", "rate = 0.2"),
    ("method", "dropout_rate = 0.2"),
    ("method", "rescale = true"),
    ("method", "zscore_magnitude = 10.0"),
)


@pytest.mark.parametrize("section, line", DELETED_KEYS)
def test_deleted_keys_are_rejected(section, line):
    """`rate` and `dropout_rate` were solved from `p_clean` when unset; the
    world kind fixes the loss; the derived placeholders are +/-10 in z units,
    moved only by `knockout_value` and `observed_value`; and nothing set
    `rescale` or `dump_test_data`. Each is now an unknown key."""
    key = line.split(" ")[0]
    world = "[world]\nkind = gaussian\n"
    if section != "method":
        texts = {section: f"{world}[{section}]\n{line}\n[method.k]\nkind = knockout\n"}
    else:
        texts = {
            f"method.{kind}": f"{world}[method.{kind}]\nkind = {kind}\n{line}\n"
            for kind in _KIND_KEYS
        }
    for name, text in texts.items():
        match = rf"section \[{name}\]: unknown key\(s\) \['{key}'\]"
        with pytest.raises(ConfigError, match=match):
            parse_config(text)


def test_config_rejects_world_and_placeholder_keys_nothing_reads():
    method = "[method.k]\nkind = knockout\n"
    with pytest.raises(ConfigError, match=r"section \[world\], key 'target'"):
        parse_config(f"[world]\nkind = csv\npath = d.csv\n{method}")
    # Each world kind and mechanism reads only its own keys.
    unread = [("continuous2d", "dim"), ("mixed", "dim"), ("csv", "dim"), ("csv", "n_total")]
    for world in ("gaussian", "continuous2d", "mixed"):
        unread += [(world, "path"), (world, "target")]
    for world, key in unread:
        csv = "path = d.csv\ntarget = y\n" if world == "csv" else ""
        match = rf"section \[world\]: unknown key\(s\) \['{key}'\] for kind '{world}'"
        with pytest.raises(ConfigError, match=match):
            parse_config(f"[world]\nkind = {world}\n{csv}{key} = 3\n{method}")
    for mechanism, key in (("none", "p"), ("none", "q"), ("mcar", "q"), ("mnar_self_censor", "p")):
        match = rf"section \[missingness\]: unknown key\(s\) \['{key}'\] for mechanism '{mechanism}'"
        missingness = f"[missingness]\nmechanism = {mechanism}\n{key} = 0.5\n"
        with pytest.raises(ConfigError, match=match):
            parse_config(f"[world]\nkind = gaussian\n{missingness}{method}")
    # Without the key the mechanism is none, which reads neither p nor q.
    with pytest.raises(ConfigError, match=r"\['p', 'q'\] for mechanism 'none'"):
        parse_config(f"[world]\nkind = gaussian\n[missingness]\np = 0.1\nq = 0.9\n{method}")
    for key, value in (("knockout_value", "3"), ("observed_value", "-3")):
        with pytest.raises(ConfigError, match=rf"section \[method\.k\], key '{key}'"):
            parse_config(f"[world]\nkind = gaussian\n{method}placeholder = mean\n{key} = {value}\n")
    star = parse_config(f"[world]\nkind = gaussian\n{method}placeholder = mean\n")
    assert parse_config(serialize_config(star)) == star
    csv = parse_config(f"[world]\nkind = csv\npath = d.csv\ntarget = y\n{method}")
    assert (csv.csv_path, csv.csv_target) == ("d.csv", "y")
    text = serialize_config(parse_config(f"[world]\nkind = gaussian\n{method}"))
    assert "path =" not in text and "target =" not in text


# A valid value other than the default for every world, missingness and
# method key that a variant reads.
OTHER_VALUES = {
    "dim": "5",
    "n_total": "200",
    "train_fraction": "0.5",
    "path": "e.csv",
    "target": "z",
    "p": "0.2",
    "q": "0.8",
    "p_clean": "0.3",
    "placeholder": "mean",
    "dual_placeholder": "false",
    "knockout_value": "7.0",
    "observed_value": "-7.0",
    "k": "3",
}


def ini(sections: dict) -> str:
    """Config text of {section: {key: value}}."""
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


def test_every_key_a_kind_reads_is_hashed():
    assert set(methods.RULES) == set(_KIND_KEYS)
    cases = []  # (the config's sections, the section varied, its keys)
    for world, keys in _WORLD_KEYS.items():
        csv = {"path": "d.csv", "target": "y"} if world == "csv" else {}
        cases.append(({"world": {"kind": world, **csv}}, "world", keys))
    for mechanism, keys in _MECHANISM_KEYS.items():
        cases.append(({"missingness": {"mechanism": mechanism}}, "missingness", keys))
    for kind, keys in _KIND_KEYS.items():
        cases.append(({"method.m": {"kind": kind}}, "method.m", keys))
    for sections, varied, keys in cases:
        sections = {"world": {"kind": "gaussian"}, "method.m": {"kind": "knockout"}, **sections}
        default = config_hash(parse_config(ini(sections)))
        for key in keys:
            other = {**sections, varied: {**sections[varied], key: OTHER_VALUES[key]}}
            cfg = parse_config(ini(other))
            assert config_hash(cfg) != default, (sections[varied], key)
            assert parse_config(serialize_config(cfg)) == cfg, (sections[varied], key)


def test_shipped_config_hashes_are_pinned():
    from pathlib import Path

    configs_dir = Path(__file__).resolve().parent.parent / "configs"
    hashes = {
        "classification2d.ini": "caad95489fbe035410447d8a5745c36cc10b3801d7e5b139f49f62eb5d704a1c",
        "fig1_complete.ini": "599b396576c417828aac734664efbdd8ab7449937578f9b2374c952ad5d7917b",
        "fig1_mcar.ini": "0316d6af0b57f4d72ed4d495635431370447776ce445ead376ddca09003e4bce",
        "fig1_mnar.ini": "37f40897fbf45c3ceb2d0b805f775f4b5b36d152c6d6030b5d6629e04d6d4eb0",
    }
    for name, digest in hashes.items():
        assert config_hash(parse_config((configs_dir / name).read_text())) == digest, name


def test_the_retired_mask_granularity_key_parses_only_as_per_sample():
    """Every run draws its induced masks per row: the line that said so
    parses to the config without it, and any other value is rejected."""
    text = TINY_CONFIG.format(out="out")
    retired = text.replace("seed0 = 5\n", "seed0 = 5\nmask_granularity = per_sample\n")
    assert parse_config(retired) == parse_config(text)
    assert config_hash(parse_config(retired)) == config_hash(parse_config(text))
    retired_message = (
        r"section \[train\], key 'mask_granularity': retired: induced masks are drawn per row"
    )
    for value in ("per_batch", "per_row"):
        with pytest.raises(ConfigError, match=retired_message):
            parse_config(retired.replace("per_sample", value))


@pytest.mark.parametrize("name", ["../../escaped", "a/b", "..\\escaped"])
def test_a_method_name_with_a_path_separator_is_rejected(name, tmp_path):
    """The name is the stem of the method's model and trace files, so a
    separator in it would write outside the run directory."""
    text = TINY_CONFIG.format(out=tmp_path / "a" / "b")
    text = text.replace("[method.knockout]", f"[method.{name}]")
    with pytest.raises(ConfigError, match=re.escape(f"section [method.{name}]")):
        parse_config(text)
    result = CliRunner().invoke(main, ["run", "--config", str(write_config(tmp_path, text))])
    assert result.exit_code == 1
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize(
    "method,key",
    [
        *[(f"kind = {kind}\n", "kind") for kind in ("dropout", "zero_indicator", "knn", "lin_reg")],
        ("kind = knockout\nknockout_value = 1\n", "knockout_value"),
        ("kind = knockout\nobserved_value = 7\n", "observed_value"),
    ],
)
def test_the_mixed_world_rejects_what_its_categorical_feature_cannot_take(method, key):
    """The mixed world's x1 is categorical: a continuous-only kind, or an
    explicit placeholder value, which would encode a knocked-out x1 as a
    class code or as no class, fails at parse time, naming the key."""
    text = f"[world]\nkind = mixed\n[method.k]\nkind = knockout\n[method.z]\n{method}"
    with pytest.raises(ConfigError, match=rf"section \[method\.z\], key '{key}'"):
        parse_config(text)
    # Elsewhere every feature is continuous, and the same methods parse.
    parse_config(text.replace("kind = mixed", "kind = continuous2d"))


def test_the_rules_require_continuous_features_for_the_kinds_the_config_lists():
    schema = FeatureSchema((("x1", Categorical(2)), ("x2", ContinuousUnbounded())))
    for kind in _KIND_KEYS:
        method = MethodConfig(name="m", kind=kind)
        if kind in _CONTINUOUS_KINDS:
            with pytest.raises(ValueError, match="supports continuous features only"):
                methods._require_continuous(method, schema)
        else:
            methods._require_continuous(method, schema)


def test_config_validates_values():
    with pytest.raises(ConfigError, match=r"section \[world\], key 'kind'"):
        parse_config("[world]\nkind = marble\n")
    with pytest.raises(ConfigError, match=r"section \[world\], key 'path'"):
        parse_config("[world]\nkind = csv\n[method.k]\nkind = knockout\n")
    with pytest.raises(ConfigError, match="at least one method"):
        parse_config("[world]\nkind = gaussian\n")
    with pytest.raises(ConfigError, match="must differ"):
        parse_config(
            "[world]\nkind = gaussian\n[method.k]\nkind = knockout\n"
            "knockout_value = 10\nobserved_value = 10\n"
        )
    with pytest.raises(ConfigError, match=r"section \[method\.nn\], key 'k': must be >= 1"):
        parse_config("[world]\nkind = gaussian\n[method.nn]\nkind = knn\nk = 0\n")
    method = "[method.k]\nkind = knockout\n"
    unknown_loss = r"section \[train\]: unknown key\(s\) \['loss'\]"
    for world, loss in (("gaussian", "cross_entropy"), ("continuous2d", "mse"), ("mixed", "mse")):
        with pytest.raises(ConfigError, match=unknown_loss):
            parse_config(f"[world]\nkind = {world}\n[train]\nloss = {loss}\n{method}")
    with pytest.raises(ConfigError, match=unknown_loss):
        parse_config(
            f"[world]\nkind = csv\npath = d.csv\ntarget = y\n[train]\nloss = cross_entropy\n{method}"
        )
    with pytest.raises(ConfigError, match=unknown_loss):
        parse_config(f"[world]\nkind = gaussian\n[train]\nloss = hinge\n{method}")
    bad_values = (
        ("train", "steps", "-1"),
        ("train", "seed0", "-1"),
        ("train", "batch_size", "0"),
        ("train", "learning_rate", "0"),
        ("train", "learning_rate", "-3e-3"),
        ("train", "learning_rate", "nan"),
        ("train", "learning_rate", "inf"),
        ("world", "dim", "0"),
        ("world", "dim", "1"),
        ("missingness", "mechanism = mcar\np", "-0.1"),
        ("missingness", "mechanism = mcar\np", "1.5"),
        ("missingness", "mechanism = mcar\np", "nan"),
        ("missingness", "mechanism = mnar_self_censor\nq", "0"),
        ("missingness", "mechanism = mnar_self_censor\nq", "1"),
        ("missingness", "mechanism = mnar_self_censor\nq", "nan"),
        ("missingness", "mechanism", "mar"),
        ("train", "hidden", "100,,100"),
        ("train", "hidden", ",100"),
        ("train", "hidden", "100,"),
        ("train", "hidden", ""),
        ("train", "hidden", "0"),
        ("world", "n_total", "9"),
        ("world", "train_fraction", "0"),
        ("world", "train_fraction", "1"),
        ("sweep", "repetitions", "0"),
    )
    for section, key, value in bad_values:
        extra = "" if section == "world" else f"[{section}]\n"
        text = f"[world]\nkind = gaussian\n{extra}{key} = {value}\n{method}"
        key = key.split("\n")[-1]
        with pytest.raises(ConfigError, match=rf"section \[{section}\], key '{key}'"):
            parse_config(text)
    bad_method_values = (
        ("dropout", "p_clean", "1"),
        ("zero_indicator", "p_clean", "0"),
        ("knockout", "knockout_value", "inf"),
        ("knockout", "knockout_value", "nan"),
        ("knockout", "observed_value", "-inf"),
    )
    for kind, key, value in bad_method_values:
        text = f"[world]\nkind = gaussian\n[method.m]\nkind = {kind}\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf"section \[method\.m\], key '{key}'"):
            parse_config(text)
    # The edge values that are allowed.
    ok = parse_config(
        "[world]\nkind = gaussian\ndim = 2\n[missingness]\nmechanism = mcar\np = 0\n"
        f"[train]\nsteps = 0\nbatch_size = 1\nhidden = 3, 4\nmask_granularity = per_sample\n{method}"
    )
    assert (ok.dim, ok.mcar_p, ok.steps, ok.batch_size, ok.hidden) == (2, 0.0, 0, 1, (3, 4))
    mcar = "[missingness]\nmechanism = mcar\np = 1\n"
    assert parse_config(f"[world]\nkind = gaussian\n{mcar}{method}").mcar_p == 1.0
    mnar = "[missingness]\nmechanism = mnar_self_censor\nq = 0.5\n"
    assert parse_config(f"[world]\nkind = gaussian\n{mnar}{method}").mnar_q == 0.5
    # The loss is the task's, with or without a [train] section.
    assert parse_config(f"[world]\nkind = gaussian\n{method}").loss == "mse"
    assert parse_config(f"[world]\nkind = mixed\n{method}").loss == "cross_entropy"
    assert parse_config(f"[world]\nkind = continuous2d\n[train]\nsteps = 5\n{method}").loss == "cross_entropy"


@pytest.mark.parametrize("world", ["gaussian", "continuous2d", "mixed", "csv"])
def test_a_loss_key_naming_the_task_loss_changes_nothing(world):
    """The world kind fixes the loss, so `[train] loss` sets nothing: even a
    key naming the task's own loss is an unknown key, and the config parses
    only without it."""
    sections = {"csv": "path = d.csv\ntarget = y\n"}
    text = f"[world]\nkind = {world}\n{sections.get(world, '')}[train]\nsteps = 5\n"
    method = "[method.k]\nkind = knockout\n"
    without = parse_config(text + method)
    with pytest.raises(ConfigError, match=r"section \[train\]: unknown key\(s\) \['loss'\]"):
        parse_config(f"{text}loss = {without.loss}\n{method}")
    assert "loss" not in serialize_config(without)


def test_cli_run_minimal_config(tmp_path):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=out))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    report = (out / "report_long.csv").read_text().splitlines()
    assert report[0] == "method,pattern,popcount,metric,rep,value"
    # k_max=1 over 9 features: 10 patterns per metric per method, 1 rep each.
    rows = [line.split(",") for line in report[1:]]
    per_method_metric = {}
    for method, pattern, popcount, metric, rep, value in rows:
        per_method_metric.setdefault((method, metric), set()).add(pattern)
        float(value)
    for patterns in per_method_metric.values():
        assert len(patterns) == 10
    assert (out / "plotdata.csv").exists()
    assert (out / "aggregates.json").exists()
    assert (out / "models" / "knockout_rep0.json").exists()
    assert (out / "traces" / "knockout_rep0.csv").exists()
    assert (out / "worlds" / "rep0.json").exists()


def test_cli_run_manifest_lists_every_file_with_hash(tmp_path):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=out))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = {
        str(p.relative_to(out))
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    assert set(manifest["files"]) == on_disk
    for rel, digest in manifest["files"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
    assert manifest["config_hash"]
    assert manifest["repetitions"] == 1


def test_cli_run_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "unused"))
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out_a)]).exit_code == 0
    assert runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out_b)]).exit_code == 0
    for name in ("report_long.csv", "plotdata.csv", "aggregates.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_run_jobs_parallel_matches_serial(tmp_path):
    out_a = tmp_path / "serial"
    out_b = tmp_path / "parallel"
    text = TINY_CONFIG.format(out=tmp_path / "unused").replace(
        "repetitions = 1", "repetitions = 2"
    )
    cfg_path = write_config(tmp_path, text)
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out_a)]).exit_code == 0
    assert (
        runner.invoke(
            main, ["run", "--config", str(cfg_path), "--out", str(out_b), "--jobs", "2"]
        ).exit_code
        == 0
    )
    # Workers write the worlds, data, models and traces; the parent writes
    # the reports and the manifest. Every file matches the serial run's.
    files = sorted(path.relative_to(out_a) for path in out_a.rglob("*") if path.is_file())
    assert files == sorted(path.relative_to(out_b) for path in out_b.rglob("*") if path.is_file())
    tops = {"worlds", "data", "models", "traces", "manifest.json", "report_long.csv"}
    assert tops <= {name.parts[0] for name in files}
    for name in files:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_cli_run_invalid_placeholder_exits_nonzero(tmp_path):
    bad = TINY_CONFIG.format(out=tmp_path / "x").replace(
        "kind = knockout\n", "kind = knockout\nknockout_value = 3\nobserved_value = 3\n"
    )
    cfg_path = write_config(tmp_path, bad)
    result = CliRunner().invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code != 0
    assert "must differ" in result.output


def test_cli_verify_passes_and_prints_reference_values():
    result = CliRunner().invoke(main, ["verify", "--joints", "10"])
    assert result.exit_code == 0, result.output
    assert "6/13" in result.output and "0.461538" in result.output
    assert "0.0741" in result.output
    assert "130" in result.output
    # The approximation bound and the decomposition, from rational joints
    # and a multinomial draw of (pattern, row) cell counts.
    assert "TV(eps) = 6.780e-03, 6.998e-05, 7.000e-07; C = 0.350" in result.output
    assert "MC 16.438687 vs exact 16.563735 (3 SE = 0.213417)" in result.output
    assert "all 6 checks passed" in result.output


@pytest.mark.parametrize("joints", ["0", "-3"])
def test_cli_verify_rejects_joints_below_one(joints):
    result = CliRunner().invoke(main, ["verify", "--joints", joints])
    assert result.exit_code == 2
    assert "--joints" in result.output and "x>=1" in result.output
    assert "exact equalities" not in result.output


def test_cli_verify_rejects_a_negative_seed():
    result = CliRunner().invoke(main, ["verify", "--seed", "-1"])
    assert result.exit_code == 2
    assert "--seed" in result.output and "x>=0" in result.output
    assert "exact equalities" not in result.output


def test_k_max_above_feature_count_is_rejected(tmp_path):
    method = "[method.k]\nkind = knockout\n"
    key = r"section \[sweep\], key 'k_max'"
    for world, k_max in (("gaussian\ndim = 3", 3), ("continuous2d", 3), ("mixed", 3)):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"[world]\nkind = {world}\n[sweep]\nk_max = {k_max}\n{method}")
    with pytest.raises(ConfigError, match=key):
        parse_config(f"[world]\nkind = gaussian\n[sweep]\nk_max = -1\n{method}")
    ok = parse_config(f"[world]\nkind = gaussian\ndim = 3\n[sweep]\nk_max = 2\n{method}")
    assert ok.k_max == 2
    # Without the key the sweep stops at the feature count if that is below 3.
    assert parse_config(f"[world]\nkind = gaussian\ndim = 2\n{method}").k_max == 1
    assert parse_config(f"[world]\nkind = mixed\n{method}").k_max == 2
    assert parse_config(f"[world]\nkind = gaussian\n{method}").k_max == 3
    # The command-line override goes through the same check (9 features here).
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "o"))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg_path), "--k-max", "10"])
    assert result.exit_code != 0
    assert "section [sweep], key 'k_max': must be <= 9" in result.output
    assert not (tmp_path / "o").exists()
    result = CliRunner().invoke(
        main,
        ["sweep", "--config", str(cfg_path), "--models", str(tmp_path), "--k-max", "10"],
    )
    assert result.exit_code != 0
    assert "section [sweep], key 'k_max': must be <= 9" in result.output


def test_cli_sweep_on_saved_models_matches_run(tmp_path):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=out))
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(cfg_path)]).exit_code == 0
    sweep_out = tmp_path / "sweep"
    result = runner.invoke(
        main,
        [
            "sweep",
            "--config",
            str(cfg_path),
            "--models",
            str(out / "models"),
            "--out",
            str(sweep_out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert (sweep_out / "report_long.csv").read_bytes() == (out / "report_long.csv").read_bytes()


ALL_KINDS_MNAR = """
[world]
kind = gaussian
dim = 5
n_total = 300
train_fraction = 0.4

[missingness]
mechanism = mnar_self_censor
q = 0.8

[train]
steps = 20
batch_size = 32
hidden = 8
seed0 = 11

[sweep]
k_max = 2
repetitions = 2

[output]
dir = {out}

[method.knockout]
kind = knockout

[method.common_baseline]
kind = common_baseline

[method.dropout]
kind = dropout

[method.zero_indicator]
kind = zero_indicator

[method.knn]
kind = knn
k = 3

[method.lin_reg]
kind = lin_reg
"""


MIXED_MNAR = """
[world]
kind = mixed
n_total = 300
train_fraction = 0.5

[missingness]
mechanism = mnar_self_censor
q = 0.8

[train]
steps = 20
batch_size = 32
hidden = 8
seed0 = 11

[sweep]
k_max = 2
repetitions = 2

[output]
dir = {out}

[method.knockout]
kind = knockout

[method.knockout_star]
kind = knockout
placeholder = mean

[method.common_baseline]
kind = common_baseline
"""


def test_cli_sweep_reproduces_every_report_of_all_six_kinds(tmp_path):
    _assert_sweep_reproduces_the_run(
        tmp_path,
        ALL_KINDS_MNAR,
        {"knockout", "common_baseline", "dropout", "zero_indicator", "knn", "lin_reg"},
    )


def test_cli_sweep_reproduces_every_report_of_a_mixed_mnar_world(tmp_path):
    """A categorical feature, whose codes the normalization leaves as they
    are, next to a self-censored continuous one: the error and the
    marginal-fidelity reports both."""
    _assert_sweep_reproduces_the_run(
        tmp_path, MIXED_MNAR, {"knockout", "knockout_star", "common_baseline"}
    )
    metrics = {line.split(",")[3] for line in (tmp_path / "run" / "report_long.csv").open()}
    assert metrics == {"metric", "error", "marginal_jsd"}


def _assert_sweep_reproduces_the_run(tmp_path, config, methods):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, config.format(out=out))
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    sweep_out = tmp_path / "sweep"
    result = runner.invoke(
        main,
        ["sweep", "--config", str(cfg_path), "--models", str(out / "models"), "--out", str(sweep_out)],
    )
    assert result.exit_code == 0, result.output
    swept = {line.split(",")[0] for line in (out / "report_long.csv").read_text().splitlines()[1:]}
    assert swept == methods
    for name in ("report_long.csv", "plotdata.csv", "aggregates.json"):
        assert (sweep_out / name).read_bytes() == (out / name).read_bytes(), name
    # The sweep writes the loaded models back unchanged, and a manifest.
    for path in (out / "models").iterdir():
        assert (sweep_out / "models" / path.name).read_bytes() == path.read_bytes()
    manifest = json.loads((sweep_out / "manifest.json").read_text())
    assert manifest["files"]["report_long.csv"] == hashlib.sha256(
        (out / "report_long.csv").read_bytes()
    ).hexdigest()


def test_cli_sweep_missing_model_errors(tmp_path):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=out))
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(cfg_path)]).exit_code == 0
    (out / "models" / "knockout_rep0.json").unlink()
    result = runner.invoke(
        main,
        ["sweep", "--config", str(cfg_path), "--models", str(out / "models"), "--out", str(tmp_path / "s")],
    )
    assert result.exit_code == 1
    assert f"Error: missing model file {out / 'models' / 'knockout_rep0.json'}\n" in result.output
    assert "'" not in result.output and '"' not in result.output
    # The check comes before any job: no model is swept, no report written.
    assert not list((tmp_path / "s").rglob("*.json"))
    assert not (tmp_path / "s" / "report_long.csv").exists()


def _set_kind(model):
    model["kind"] = "common_baseline"
    return json.dumps(model)


def _set_input_width(model):
    model["net"]["widths"][0] = 10
    return json.dumps(model)


def _cut_weight_row(model):
    model["weights"][1] = model["weights"][1][:-1]
    return json.dumps(model)


def _cut_bias(model):
    model["biases"][0] = model["biases"][0][:-1]
    return json.dumps(model)


def _overflow_weight(model):
    model["weights"][0][0][0] = "overflow"
    return json.dumps(model).replace('"overflow"', "1e999")  # parses as inf


def _set_logits_head(model):
    model["net"]["head"] = "logits"
    return json.dumps(model)


def _float_width(model):
    model["net"]["widths"][1] = 16.0
    return json.dumps(model)


def _set_version(version):
    def edit(model):
        model["format_version"] = version
        return json.dumps(model)

    return edit


def _widen_output(model):
    """Two outputs, each layer consistent with its widths."""
    model["net"]["widths"][-1] = 2
    model["weights"][-1] = [row * 2 for row in model["weights"][-1]]
    model["biases"][-1] = model["biases"][-1] * 2
    return json.dumps(model)


@pytest.mark.parametrize(
    "edit,message",
    [
        (_set_kind, "a common_baseline model, but method knockout has kind knockout"),
        (_set_input_width, "input width 10, but method knockout takes 9 inputs"),
        (
            lambda model: "{",
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        (lambda model: '{"format_version": 2}', "missing key 'kind'"),
        (lambda model: "[]", "not a JSON object"),
        (
            _cut_weight_row,
            "(weight, bias) shapes [((9, 16), (16,)), ((15, 1), (1,))], "
            "but the widths need [((9, 16), (16,)), ((16, 1), (1,))]",
        ),
        (
            _cut_bias,
            "(weight, bias) shapes [((9, 16), (15,)), ((16, 1), (1,))], "
            "but the widths need [((9, 16), (16,)), ((16, 1), (1,))]",
        ),
        (_overflow_weight, "a weight or bias is not finite"),
        (_set_logits_head, "a logits head, but loss mse needs linear"),
        (_widen_output, "layer widths [9, 16, 2], but the config gives [9, 16, 1]"),
        (_float_width, "layer widths [9, 16.0, 1] are not a list of integers"),
        (_set_version(True), "unsupported model format version true"),
        (_set_version(1.0), "unsupported model format version 1.0"),
    ],
    ids=[
        "kind",
        "input_width",
        "not_json",
        "no_kind",
        "not_object",
        "weight_rows",
        "bias_length",
        "weight_not_finite",
        "head",
        "output_width",
        "float_width",
        "version_true",
        "version_float",
    ],
)
def test_cli_sweep_rejects_a_model_the_config_method_cannot_use(tmp_path, edit, message):
    """A model file that is no JSON object, lacks a key, whose format version
    or layer widths are not integers, whose kind, layer widths or head are
    not what the configured method trains, or whose weights and biases do
    not fit those widths or are not finite fails the sweep with an error
    that names the file."""
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=out))
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(cfg_path)]).exit_code == 0
    path = out / "models" / "knockout_rep0.json"
    path.write_text(edit(json.loads(path.read_text())))
    result = runner.invoke(
        main,
        ["sweep", "--config", str(cfg_path), "--models", str(out / "models"), "--out", str(tmp_path / "s")],
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)  # no traceback
    assert f"Error: {path}: {message}\n" in result.output
    assert not (tmp_path / "s" / "report_long.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "ablate-placeholder"])
def test_cli_output_path_that_is_a_file_is_an_error(tmp_path, command):
    """An output directory that cannot be made fails with an error that
    names the path, not a traceback."""
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=out))
    runner = CliRunner()
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    args = {
        "run": ["run", "--config", str(cfg_path)],
        "sweep": ["sweep", "--config", str(cfg_path), "--models", str(out / "models")],
        "ablate-placeholder": ["ablate-placeholder", "--config", str(cfg_path), "--values", "1"],
    }[command]
    if command == "sweep":
        assert runner.invoke(main, ["run", "--config", str(cfg_path)]).exit_code == 0
    result = runner.invoke(main, [*args, "--out", str(a_file)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("Error: ") and str(a_file / "models") in result.output


def test_cli_sweep_models_must_be_a_directory(tmp_path):
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "run"))
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    result = CliRunner().invoke(main, ["sweep", "--config", str(cfg_path), "--models", str(a_file)])
    assert result.exit_code == 2
    assert "is a file" in result.output and "missing model file" not in result.output


def test_cli_sweep_takes_its_repetitions_from_the_models(tmp_path):
    """`run --seeds 1` of a three-repetition config saves one repetition's
    models; `sweep` sweeps exactly the repetitions that every method saved."""
    out = tmp_path / "run"
    cfg_path = write_config(
        tmp_path, TINY_CONFIG.format(out=out).replace("repetitions = 1", "repetitions = 3")
    )
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg_path), "--seeds", "1"])
    assert result.exit_code == 0, result.output
    models = out / "models"
    sweep = ["sweep", "--config", str(cfg_path), "--models", str(models), "--out"]
    result = runner.invoke(main, [*sweep, str(tmp_path / "s")])
    assert result.exit_code == 0, result.output
    for name in ("report_long.csv", "plotdata.csv", "aggregates.json"):
        assert (tmp_path / "s" / name).read_bytes() == (out / name).read_bytes(), name
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    run_manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["repetitions"] == 1 and manifest["config"] == run_manifest["config"]
    # A repetition that one method saved and another did not is an error.
    shutil.copy(models / "common_baseline_rep0.json", models / "common_baseline_rep1.json")
    result = runner.invoke(main, [*sweep, str(tmp_path / "s2")])
    assert result.exit_code == 1
    assert f"missing model file {models / 'knockout_rep1.json'}" in result.output


def test_cli_run_deletes_the_later_repetitions_an_earlier_run_left(tmp_path):
    """`run --seeds 1` into the directory of a three-repetition run deletes
    that run's model and trace files of repetitions 1 and 2, so `sweep` over
    its `models/` sweeps the second run's one repetition."""
    out = tmp_path / "run"
    cfg_path = write_config(
        tmp_path, TINY_CONFIG.format(out=out).replace("repetitions = 1", "repetitions = 3")
    )
    runner = CliRunner()
    run = ["run", "--config", str(cfg_path)]
    assert runner.invoke(main, run).exit_code == 0
    assert (out / "models" / "knockout_rep2.json").exists()
    result = runner.invoke(main, [*run, "--seeds", "1"])
    assert result.exit_code == 0, result.output
    stems = ["common_baseline_rep0", "knockout_rep0"]
    assert sorted(path.name for path in (out / "models").iterdir()) == [f"{s}.json" for s in stems]
    assert sorted(path.name for path in (out / "traces").iterdir()) == [f"{s}.csv" for s in stems]
    sweep_out = tmp_path / "s"
    result = runner.invoke(
        main,
        ["sweep", "--config", str(cfg_path), "--models", str(out / "models"), "--out", str(sweep_out)],
    )
    assert result.exit_code == 0, result.output
    assert (sweep_out / "report_long.csv").read_bytes() == (out / "report_long.csv").read_bytes()
    assert json.loads((sweep_out / "manifest.json").read_text())["repetitions"] == 1


def test_cli_ablate_single_value(tmp_path):
    out = tmp_path / "ablate"
    text = TINY_CONFIG.format(out=out).replace("[method.common_baseline]\nkind = common_baseline\n", "")
    cfg_path = write_config(tmp_path, text)
    result = CliRunner().invoke(
        main, ["ablate-placeholder", "--config", str(cfg_path), "--values", "10"]
    )
    assert result.exit_code == 0, result.output
    report = (out / "report_long.csv").read_text()
    assert "knockout_ph10" in report


def test_cli_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KNOCKOUT_OUT_ROOT", str(tmp_path / "root"))
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out="nested/run"))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "root" / "nested" / "run" / "report_long.csv").exists()


def test_cli_seeds_and_kmax_overrides(tmp_path):
    out = tmp_path / "o"
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=out))
    result = CliRunner().invoke(
        main,
        ["run", "--config", str(cfg_path), "--seeds", "2", "--k-max", "0"],
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["repetitions"] == 2
    report = (out / "report_long.csv").read_text().splitlines()[1:]
    patterns = {line.split(",")[1] for line in report}
    assert patterns == {"000000000"}


def test_shipped_configs_parse():
    from pathlib import Path

    configs_dir = Path(__file__).resolve().parent.parent / "configs"
    names = sorted(p.name for p in configs_dir.glob("*.ini"))
    assert names == [
        "classification2d.ini",
        "fig1_complete.ini",
        "fig1_mcar.ini",
        "fig1_mnar.ini",
    ]
    for name in names:
        cfg = parse_config((configs_dir / name).read_text())
        assert cfg.methods
        assert parse_config(serialize_config(cfg)) == cfg


def test_readme_config_parses():
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert [m.name for m in cfg.methods] == ["common_baseline", "knockout", "knockout_star"]
    assert cfg.loss == "mse"


def test_cli_run_csv_world(tmp_path):
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=300)
    csv_path = tmp_path / "data.csv"
    lines = ["a,b,c,target"]
    lines += [
        ",".join(repr(float(v)) for v in (*r, t)) for r, t in zip(x, y)
    ]
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(
        f"""
[world]
kind = csv
path = {csv_path}
target = target
train_fraction = 0.5

[train]
steps = 60
batch_size = 32
hidden = 16
seed0 = 2

[sweep]
k_max = 1
repetitions = 2

[output]
dir = {out}

[method.knockout]
kind = knockout
"""
    )
    result = CliRunner().invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    report = (out / "report_long.csv").read_text().splitlines()
    metrics = {line.split(",")[3] for line in report[1:]}
    assert metrics == {"mse_obs"}  # no exact oracle without a generative world
    patterns = {line.split(",")[1] for line in report[1:]}
    assert len(patterns) == 4  # complete + one per feature


def test_cli_run_csv_world_sweeps_every_feature_when_fewer_than_three(tmp_path):
    """With no [sweep] k_max, a 2-feature csv world sweeps both features
    out at once: k_max is 3, or the header's feature count if fewer."""
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b,target\n" + "".join(f"{i % 7},{i % 5},{i % 3}\n" for i in range(40)))
    out = tmp_path / "run"
    cfg_path = write_config(
        tmp_path,
        f"[world]\nkind = csv\npath = {csv_path}\ntarget = target\ntrain_fraction = 0.5\n"
        "[train]\nsteps = 5\nbatch_size = 8\nhidden = 4\n"
        f"[sweep]\nrepetitions = 1\n[output]\ndir = {out}\n[method.knockout]\nkind = knockout\n",
    )
    result = CliRunner().invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    report = (out / "report_long.csv").read_text().splitlines()
    assert {line.split(",")[1] for line in report[1:]} == {"00", "10", "01", "11"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert parse_config(manifest["config"]).k_max == 2


@pytest.mark.parametrize(
    "rows, k_max, message",
    [
        (["a,b,target", "1,2,3", "4,,6"], 1, "data.csv, line 3, column 'b': not a number: ''"),
        (["a,b,target", "1,x1,3"], 1, "data.csv, line 2, column 'b': not a number: 'x1'"),
        (["a,b,target", "1,2,3", "1,2"], 1, "data.csv, line 3: 2 cells, the header has 3"),
        (["a,b,target"], 1, "data.csv: no data rows"),
        ([], 1, "data.csv: empty file"),
        (["a,b,target", "1,2,3"], 3, "section [sweep], key 'k_max': must be <= 2"),
        (["a,b,target", "1,2,3", "nan,2,3"], 1, "data.csv, line 3, column 'a': not finite: 'nan'"),
        (["a,b,target", "1,inf,3"], 1, "data.csv, line 2, column 'b': not finite: 'inf'"),
        (["a,b,target", "1,2,-inf"], 1, "data.csv, line 2, column 'target': not finite: '-inf'"),
        (["target", "1", "2"], 0, "data.csv: no feature column besides the target 'target'"),
        (["target", "1", "2"], None, "data.csv: no feature column besides the target 'target'"),
        (["x,target,target", "1,2,3"], 1, "data.csv: the header repeats column(s) ['target']"),
    ],
)
def test_cli_run_csv_world_rejects_bad_files(tmp_path, rows, k_max, message):
    """A bad data file fails the run with an error, not a traceback, that
    names the file; ``k_max`` None leaves the key out."""
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("".join(line + "\n" for line in rows))
    sweep = "" if k_max is None else f"[sweep]\nk_max = {k_max}\n"
    cfg_path = write_config(
        tmp_path,
        f"[world]\nkind = csv\npath = {csv_path}\ntarget = target\n"
        f"{sweep}[output]\ndir = {tmp_path / 'o'}\n"
        "[method.knockout]\nkind = knockout\n",
    )
    result = CliRunner().invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert message in result.output


@pytest.mark.parametrize("command", ["run", "ablate-placeholder"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_jobs_below_one_is_rejected(tmp_path, command, jobs):
    cfg_path = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "o"))
    result = CliRunner().invoke(main, [command, "--config", str(cfg_path), "--jobs", jobs])
    assert result.exit_code == 2
    assert "--jobs" in result.output and "x>=1" in result.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fraction, side", [("0.97", "test"), ("0.03", "training")])
def test_a_split_with_an_empty_side_is_rejected(tmp_path, fraction, side):
    """int(round(10 * 0.97)) = 10 leaves no test rows; int(round(10 * 0.03))
    = 0 leaves no training rows. Both fail before anything trains."""
    method = "[method.k]\nkind = knockout\n"
    match = rf"section \[world\], key 'train_fraction': {fraction} of n_total = 10 leaves no {side} rows"
    with pytest.raises(ConfigError, match=match):
        parse_config(f"[world]\nkind = gaussian\nn_total = 10\ntrain_fraction = {fraction}\n{method}")
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b,target\n" + "".join(f"{i},{2 * i},{i % 3}\n" for i in range(10)))
    cfg_path = write_config(
        tmp_path,
        f"[world]\nkind = csv\npath = {csv_path}\ntarget = target\ntrain_fraction = {fraction}\n"
        f"[sweep]\nk_max = 1\n[output]\ndir = {tmp_path / 'o'}\n{method}",
    )
    result = CliRunner().invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 1
    assert f"{fraction} of the 10 rows of {csv_path} leaves no {side} rows" in result.output
    assert not (tmp_path / "o").exists()


# A valid value for every key the property below may set; the method's
# placeholder stays derived, which reads every other knockout key.
ANY_VALUES = {
    **OTHER_VALUES,
    "placeholder": "derived",
    "steps": "3",
    "batch_size": "8",
    "learning_rate": "0.01",
    "hidden": "4,4",
    "seed0": "3",
    "k_max": "1",
    "repetitions": "2",
    "dir": "o",
}


@settings(max_examples=300, deadline=None)
@given(
    world=st.sampled_from(sorted(_WORLD_KEYS)),
    mechanism=st.sampled_from(sorted(_MECHANISM_KEYS)),
    kind=st.sampled_from(sorted(_KIND_KEYS)),
    data=st.data(),
)
def test_config_accepts_exactly_the_keys_the_tables_list(world, mechanism, kind, data):
    """Any subset of a section's keys parses exactly when its world kind,
    mechanism or method kind reads them all; the canonical text of what
    parses is a fixed point and holds only the keys the run reads."""
    reads = {
        "world": ("kind", *_WORLD_KEYS[world]),
        "missingness": ("mechanism", *_MECHANISM_KEYS[mechanism]),
        "train": ("steps", "batch_size", "learning_rate", "hidden", "seed0"),
        "sweep": ("k_max", "repetitions"),
        "output": ("dir",),
        "method.m": ("kind", *_KIND_KEYS[kind]),
    }
    sections = {
        "world": {"kind": world, **({"path": "d.csv", "target": "y"} if world == "csv" else {})},
        "missingness": {"mechanism": mechanism},
        "train": {},
        "sweep": {},
        "output": {},
        "method.m": {"kind": kind},
    }
    unread = {}
    for name, keys in sections.items():
        candidates = [
            key
            for section, key, *_ in _KEYS
            if section == name.split(".")[0] and key in ANY_VALUES
        ]
        chosen = data.draw(st.lists(st.sampled_from(candidates), unique=True), label=name)
        keys.update({key: ANY_VALUES[key] for key in chosen})
        unread[name] = sorted(set(keys) - set(reads[name]))
    text = ini(sections)
    rejected = [name for name in sections if unread[name]]
    if rejected:
        name = rejected[0]  # sections are read in this order
        message = f"section [{name}]: unknown key(s) {unread[name]}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        return
    method = sections["method.m"]
    categorical_rejects = [
        key
        for key, rejected in (
            ("kind", kind in _CONTINUOUS_KINDS),
            ("knockout_value", "knockout_value" in method),
            ("observed_value", "observed_value" in method),
        )
        if rejected
    ]
    if world == "mixed" and categorical_rejects:  # its x1 is categorical
        message = f"section [method.m], key '{categorical_rejects[0]}'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        return
    cfg = parse_config(text)
    canonical = serialize_config(cfg)
    assert parse_config(canonical) == cfg
    assert serialize_config(parse_config(canonical)) == canonical
    written = configparser.ConfigParser(interpolation=None)
    written.read_string(canonical)
    for name, keys in sections.items():
        assert set(keys) <= set(written.options(name)) <= set(reads[name]), name


def test_readme_key_reference_names_every_key_and_its_readers():
    """README's key table lists exactly the keys in `_KEYS`, each with the
    world kinds, mechanisms or method kinds that read it."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Config keys\n", 1)[1].split("\n#", 1)[0]
    variants = {"world": _WORLD_KEYS, "missingness": _MECHANISM_KEYS, "method": _KIND_KEYS}
    listed = {}
    for line in table.splitlines():
        if not line.startswith("| `["):
            continue
        section, key, read_by, _ = (cell.strip() for cell in line.strip("|").split("|"))
        section = section.strip("`[]").replace(".NAME", "")
        readers = set(re.findall(r"`([^`]+)`", read_by))
        listed[section, key.strip("`")] = readers if read_by != "all" else "all"
    assert set(listed) == {(section, key) for section, key, *_ in _KEYS}
    picks = {"world": "kind", "missingness": "mechanism", "method": "kind"}
    for (section, key), readers in listed.items():
        expected = "all"
        if section in variants and key != picks[section]:
            expected = {variant for variant, keys in variants[section].items() if key in keys}
            if expected == set(variants[section]):
                expected = "all"
        assert readers == expected, (section, key)
