"""Write the reference outputs that check.py compares the default seed against.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload (all by default) with the default seed, under the same
process settings as the benchmark, and writes
perfbench/reference/<workload>.json. Regenerate a reference only in a
change that is meant to alter report values, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from check import REFERENCE_DIR, expected_keys, read_report, verify_equalities
from run import MAX_ITERATIONS, ROOT, WORK_ROOT, child_env
from workloads import DEFAULT_SEED, WORKLOADS, Workload


def _cli(workload: Workload, args: list[str]) -> str:
    out = subprocess.run(
        [sys.executable, "-m", "knockout.cli", *args],
        cwd=ROOT, env=child_env(workload), capture_output=True, text=True, check=True,
    )
    return out.stdout


def reference_for(workload: Workload, tmp: Path) -> dict:
    if workload.is_verify:
        counts = {}
        for i in range(MAX_ITERATIONS):
            stdout = _cli(workload, workload.cli_args(DEFAULT_SEED, i, "", "", workload.jobs))
            counts[str(i)] = verify_equalities(stdout)
        return {"seed": DEFAULT_SEED, "equalities": counts}
    config = tmp / "config.ini"
    config.write_text(workload.config_text(DEFAULT_SEED))
    out_dir = tmp / "out"
    _cli(workload, workload.cli_args(DEFAULT_SEED, 0, str(config), str(out_dir), workload.jobs))
    values = read_report(out_dir)
    keys = expected_keys(workload)
    if sorted(values) != sorted(keys):
        raise SystemExit(f"{workload.name}: report does not hold exactly the expected values")
    return {"seed": DEFAULT_SEED, "values": {key: values[key] for key in keys}}


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        WORK_ROOT.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        try:
            ref = reference_for(WORKLOADS[name], tmp)
        finally:
            shutil.rmtree(tmp)
            if not any(WORK_ROOT.iterdir()):
                WORK_ROOT.rmdir()
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
