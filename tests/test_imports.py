"""Each command loads only the modules it runs.

Every check starts a fresh interpreter, runs one command there and reads
``sys.modules`` at its end, so no module imported by another test counts.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import knockout

SRC = Path(knockout.__file__).resolve().parent.parent

TINY_CONFIG = """\
[world]
kind = gaussian
dim = 3
n_total = 60
train_fraction = 0.5

[train]
steps = 2
batch_size = 8
hidden = 4

[sweep]
k_max = 1
repetitions = 1

[method.knockout]
kind = knockout
"""


def _modules_after(code: str) -> set[str]:
    """The names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    script = textwrap.dedent(code) + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _cli(argv: list[str]) -> str:
    return f"from knockout.cli import main\nmain({argv!r}, standalone_mode=False)\n"


def test_verify_loads_neither_the_runner_nor_a_pool():
    loaded = _modules_after(_cli(["verify", "--joints", "2"]))
    assert "knockout.verify" in loaded
    for name in (
        "knockout.runner",
        "knockout.methods",
        "knockout.evaluate",
        "multiprocessing",
        "concurrent.futures",
    ):
        assert name not in loaded, name


def test_serial_run_starts_no_pool(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    loaded = _modules_after(
        _cli(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"])
    )
    assert "knockout.runner" in loaded
    assert "concurrent.futures.process" not in loaded
    assert (tmp_path / "out" / "report_long.csv").exists()


def test_package_root_loads_no_numpy():
    loaded = _modules_after("import knockout\n")
    assert "knockout" in loaded
    assert "numpy" not in loaded
    assert not {name for name in loaded if name.startswith("knockout.")}
