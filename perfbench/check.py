"""Correctness checks behind `fail_frac`.

An operation is one trained (method, repetition) model, one (method,
repetition, pattern, metric) report value, or one `verify` check. A
command that exits non-zero fails every operation it attempted. For the
default seed, report values are compared with the committed reference
within `REL_TOL`; other seeds get structural checks only (the report is
complete and every value finite).
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from workloads import VERIFY_CHECKS, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Report values are bitwise reproducible on one machine. Changing the BLAS
# thread count moves them by about 2e-15 (relative), so this tolerance
# admits rounding-order changes and rejects any change in what is computed.
REL_TOL = 1e-8
ABS_TOL = 1e-12

REPORT_FILES = ("report_long.csv", "plotdata.csv", "aggregates.json")
METRICS = ("mse_bayes", "mse_obs")
REPETITIONS = 1

_CHECK_NAMES = {
    "in-support counterexample": "counterexample",
    "out-of-support marginalization": "out_of_support",
    "approximate marginalization bound": "approximation_bound",
    "multi-task decomposition": "decomposition",
    "knockout-rate calibration": "rate_calibration",
    "pattern enumeration counts": "pattern_counts",
}
_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] ([^:]+): (.*)$")
_EQUALITIES = re.compile(r"(\d+) exact equalities")


@dataclass
class Outcome:
    attempted: int
    failed: int
    max_rel_diff: float = 0.0  # against the reference; 0 when there is none


def load_reference(workload: Workload) -> dict | None:
    path = REFERENCE_DIR / f"{workload.name}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def value_key(method: str, pattern: str, metric: str, rep: int) -> str:
    return f"{method}|{pattern}|{metric}|{rep}"


def expected_keys(workload: Workload) -> list[str]:
    return [
        value_key(method, pattern, metric, rep)
        for method in workload.methods
        for pattern in workload.patterns()
        for metric in METRICS
        for rep in range(REPETITIONS)
    ]


def read_report(out_dir: Path) -> dict[str, float]:
    with open(out_dir / "report_long.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["method", "pattern", "popcount", "metric", "rep", "value"]:
        raise ValueError(f"unexpected report header {rows[0]}")
    return {value_key(m, p, metric, int(r)): float(v) for m, p, _, metric, r, v in rows[1:]}


def _all_finite(nested) -> bool:
    if isinstance(nested, list):
        return all(_all_finite(v) for v in nested)
    return isinstance(nested, (int, float)) and math.isfinite(nested)


def _model_ok(path: Path) -> bool:
    """The model file exists and its weights and biases are finite."""
    try:
        with open(path) as fh:
            model = json.load(fh)
    except (OSError, ValueError):
        return False
    params = [model.get("weights"), model.get("biases")]
    return all(params) and _all_finite(params)


def check_run(workload: Workload, seed: int, out_dir: Path, exit_ok: bool,
              reference: dict | None) -> Outcome:
    keys = expected_keys(workload)
    models = [out_dir / "models" / f"{m}_rep{r}.json"
              for m in workload.methods for r in range(REPETITIONS)]
    attempted = len(keys) + len(models)
    if not exit_ok:
        return Outcome(attempted, attempted)
    try:
        values = read_report(out_dir)
    except (OSError, ValueError, IndexError):
        return Outcome(attempted, attempted)

    ref = reference["values"] if reference is not None and reference["seed"] == seed else None
    failed = sum(not _model_ok(path) for path in models)
    max_rel = 0.0
    for key in keys:
        value = values.get(key)
        if value is None or not math.isfinite(value):
            failed += 1
            continue
        if ref is not None:
            expected = ref[key]
            if expected != 0:
                max_rel = max(max_rel, abs(value - expected) / abs(expected))
            if not math.isclose(value, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                failed += 1
    extra = len(set(values) - set(keys))
    return Outcome(attempted + extra, failed + extra, max_rel)


def parse_verify(stdout: str) -> dict[str, tuple[bool, str]]:
    checks = {}
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        if match and match.group(2) in _CHECK_NAMES:
            checks[_CHECK_NAMES[match.group(2)]] = (match.group(1) == "PASS", match.group(3))
    return checks


def verify_equalities(stdout: str) -> int | None:
    passed, detail = parse_verify(stdout).get("out_of_support", (False, ""))
    match = _EQUALITIES.search(detail)
    return int(match.group(1)) if passed and match else None


def check_verify(workload: Workload, seed: int, iteration: int, stdout: str, exit_ok: bool,
                 reference: dict | None) -> Outcome:
    """Every check must pass; for the default seed the exact equality count
    of each iteration's joints must also match the reference."""
    attempted = len(VERIFY_CHECKS)
    if not exit_ok:
        return Outcome(attempted, attempted)
    checks = parse_verify(stdout)
    passed = {name: checks.get(name, (False, ""))[0] for name in VERIFY_CHECKS}
    if reference is not None and reference["seed"] == seed:
        expected = reference["equalities"].get(str(iteration))
        if expected is not None and verify_equalities(stdout) != expected:
            passed["out_of_support"] = False
    return Outcome(attempted, sum(not ok for ok in passed.values()))
