import hashlib
import json

import pytest
from click.testing import CliRunner

from knockout.cli import main
from knockout.config import ConfigError, config_hash, parse_config, serialize_config

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


def test_config_validates_values():
    with pytest.raises(ConfigError, match="kind"):
        parse_config("[world]\nkind = marble\n")
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
    for world, loss in (("gaussian", "cross_entropy"), ("continuous2d", "mse"), ("mixed", "mse")):
        with pytest.raises(ConfigError, match=r"section \[train\], key 'loss'"):
            parse_config(f"[world]\nkind = {world}\n[train]\nloss = {loss}\n{method}")
    with pytest.raises(ConfigError, match=r"section \[train\], key 'loss'"):
        parse_config(f"[world]\nkind = csv\npath = d.csv\n[train]\nloss = cross_entropy\n{method}")
    with pytest.raises(ConfigError, match=r"section \[train\], key 'loss'"):
        parse_config(f"[world]\nkind = gaussian\n[train]\nloss = hinge\n{method}")
    bad_values = (
        ("train", "steps", "-1"),
        ("train", "batch_size", "0"),
        ("train", "learning_rate", "0"),
        ("train", "learning_rate", "-3e-3"),
        ("train", "learning_rate", "nan"),
        ("train", "learning_rate", "inf"),
        ("train", "mask_granularity", "per_row"),
        ("world", "dim", "0"),
        ("world", "dim", "1"),
        ("missingness", "p", "-0.1"),
        ("missingness", "p", "1.5"),
        ("missingness", "p", "nan"),
        ("missingness", "q", "0"),
        ("missingness", "q", "1"),
        ("missingness", "q", "nan"),
    )
    for section, key, value in bad_values:
        extra = "" if section == "world" else f"[{section}]\n"
        text = f"[world]\nkind = gaussian\n{extra}{key} = {value}\n{method}"
        with pytest.raises(ConfigError, match=rf"section \[{section}\], key '{key}'"):
            parse_config(text)
    # The edge values that are allowed.
    ok = parse_config(
        "[world]\nkind = gaussian\ndim = 2\n[missingness]\np = 0\nq = 0.5\n"
        f"[train]\nsteps = 0\nbatch_size = 1\nmask_granularity = per_sample\n{method}"
    )
    assert (ok.dim, ok.mcar_p, ok.steps, ok.batch_size) == (2, 0.0, 0, 1)
    assert parse_config(f"[world]\nkind = gaussian\n[missingness]\np = 1\n{method}").mcar_p == 1.0
    # Without the key the loss is the task's, with or without a [train] section.
    assert parse_config(f"[world]\nkind = gaussian\n{method}").loss == "mse"
    assert parse_config(f"[world]\nkind = mixed\n{method}").loss == "cross_entropy"
    assert parse_config(f"[world]\nkind = continuous2d\n[train]\nsteps = 5\n{method}").loss == "cross_entropy"


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
    assert (out_a / "report_long.csv").read_bytes() == (out_b / "report_long.csv").read_bytes()


def test_cli_run_invalid_placeholder_exits_nonzero(tmp_path):
    bad = TINY_CONFIG.format(out=tmp_path / "x") + "knockout_value = 3\nobserved_value = 3\n"
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
    assert "all 6 checks passed" in result.output


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


def test_cli_sweep_reproduces_every_report_of_all_six_kinds(tmp_path):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, ALL_KINDS_MNAR.format(out=out))
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    sweep_out = tmp_path / "sweep"
    result = runner.invoke(
        main,
        ["sweep", "--config", str(cfg_path), "--models", str(out / "models"), "--out", str(sweep_out)],
    )
    assert result.exit_code == 0, result.output
    methods = {line.split(",")[0] for line in (out / "report_long.csv").read_text().splitlines()[1:]}
    assert methods == {"knockout", "common_baseline", "dropout", "zero_indicator", "knn", "lin_reg"}
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
    assert result.exit_code != 0
    assert "missing model" in result.output


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
    assert cfg.loss == "mse" and cfg.mask_granularity == "per_batch"


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
