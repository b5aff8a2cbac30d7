"""Every function in ``src/knockout`` is reached by the CLI, or is allowlisted.

The test runs ``run`` and ``sweep`` on a tiny config of every world kind
(the gaussian world under each missingness mechanism), ``ablate-placeholder``
once and ``verify --joints 5``, all in this process under
``sys.setprofile``, with both mask granularities. It then compares the
functions that were never called with ``UNREACHED``, which names each one
with the reason it stays. A new function that no command reaches, or an
allowlisted one that a command now reaches, fails the test; so does an
allowlist entry whose function is gone.
"""

import inspect
import sys
import types
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import knockout
from knockout.cli import main

SRC = Path(knockout.__file__).resolve().parent

UNREACHED = {
    "config._reject": "error path: raises the ConfigError that names a bad key",
    "config.MethodConfig._reject": "error path: names the method section of a bad key",
    "nn._last_traced": "error path: names the last traced loss of a diverged run",
    "nn._Scratch.__init__": "runs once, when knockout.nn is imported",
    "nn.NetworkSpec.n_params": "sizes loss_and_grad's result when no buffer is passed, "
    "as the gradient checks in tests/test_acceptance.py do",
    "nn.Parameters.from_flat": "used by the gradient checks in tests/test_acceptance.py",
    "evaluate.PatternResult.value": "read by the gates in tests/test_acceptance.py",
    "discrete.DiscreteJoint.__eq__": "value equality for callers and tests; no command "
    "compares two joints",
    "worlds.class_posterior": "oracle of the class-world tests in tests/test_worlds.py",
    "worlds._norm_logpdf": "helper of class_posterior",
}

# World section and missingness section of each world's config.
WORLDS = {
    "gaussian_none": ("kind = gaussian\ndim = 4\nn_total = 120\n", ""),
    "gaussian_mcar": ("kind = gaussian\ndim = 4\nn_total = 120\n", "mechanism = mcar\np = 0.2\n"),
    "gaussian_mnar": (
        "kind = gaussian\ndim = 4\nn_total = 120\n",
        "mechanism = mnar_self_censor\nq = 0.8\n",
    ),
    "continuous2d": ("kind = continuous2d\nn_total = 120\n", ""),
    "mixed": ("kind = mixed\nn_total = 120\n", "mechanism = mnar_self_censor\nq = 0.8\n"),
    "csv": ("kind = csv\npath = {csv}\ntarget = target\n", ""),
}

# Every method kind and placeholder variant; the classification worlds
# take only the kinds that accept categorical features.
ALL_WORLD_METHODS = """
[method.knockout]
kind = knockout
p_clean = 0.3

[method.knockout_star]
kind = knockout
placeholder = mean

[method.knockout_minus]
kind = knockout
dual_placeholder = false
knockout_value = 5
observed_value = -5

[method.common_baseline]
kind = common_baseline
"""

CONTINUOUS_METHODS = """
[method.dropout]
kind = dropout

[method.zero_indicator]
kind = zero_indicator

[method.knn]
kind = knn
k = 2

[method.lin_reg]
kind = lin_reg
"""


def _config(world: str, granularity: str, csv_path: Path) -> str:
    world_keys, missingness = WORLDS[world]
    return (
        "[world]\n" + world_keys.format(csv=csv_path) + "train_fraction = 0.5\n"
        + (f"[missingness]\n{missingness}" if missingness else "")
        + "[train]\nsteps = 3\nbatch_size = 16\nhidden = 4\nseed0 = 5\n"
        + f"mask_granularity = {granularity}\n"
        + "[sweep]\nk_max = 1\nrepetitions = 1\n"
        + ALL_WORLD_METHODS
        + ("" if world == "mixed" else CONTINUOUS_METHODS)
    )


def _write_csv(path: Path) -> None:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(120, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=120)
    rows = ["a,b,c,target"] + [",".join(repr(float(v)) for v in (*r, t)) for r, t in zip(x, y)]
    path.write_text("\n".join(rows) + "\n")


def _defined_functions() -> set[str]:
    """``module.qualname`` of every ``def`` in the package's source files."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    # Class bodies are not functions; lambdas and comprehensions are skipped.
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        names.add(f"{path.stem}.{const.co_qualname}")
    return names


def _called_functions(commands: list[list[str]]) -> set[str]:
    src = str(SRC)
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    runner = CliRunner()
    sys.setprofile(profile)
    try:
        results = [runner.invoke(main, args) for args in commands]
    finally:
        sys.setprofile(None)
    for args, result in zip(commands, results):
        assert result.exit_code == 0, (args, result.output, result.exception)
    return {f"{Path(filename).stem}.{qualname}" for filename, qualname in called}


def test_every_function_is_reached_or_allowlisted(tmp_path):
    csv_path = tmp_path / "data.csv"
    _write_csv(csv_path)
    commands = [["verify", "--joints", "5"]]
    for i, world in enumerate(sorted(WORLDS)):
        granularity = ("per_batch", "per_sample")[i % 2]
        config = tmp_path / f"{world}.ini"
        config.write_text(_config(world, granularity, csv_path))
        run_dir = tmp_path / world
        commands.append(["run", "--config", str(config), "--out", str(run_dir)])
        commands.append(
            ["sweep", "--config", str(config), "--models", str(run_dir / "models"),
             "--out", str(tmp_path / f"{world}_sweep")]
        )
    ablate_config = tmp_path / "gaussian_none.ini"
    commands.append(
        ["ablate-placeholder", "--config", str(ablate_config), "--values", "0,4",
         "--out", str(tmp_path / "ablate")]
    )
    defined = _defined_functions()
    never_called = defined - _called_functions(commands)
    allowed = set(UNREACHED)
    assert not allowed - defined, f"allowlisted but gone: {sorted(allowed - defined)}"
    assert not never_called - allowed, f"never called: {sorted(never_called - allowed)}"
    assert not allowed - never_called, f"allowlisted but called: {sorted(allowed - never_called)}"
