"""Record a baseline: one untraced and one traced run of every workload.

Usage: python3 perfbench/record_baseline.py OUT.json [SEED]

Runs `run.py` for each workload with `--trace 0` and `--trace 1` for the
run length in BENCHMARK.json (default seed unless given), prints the
end-to-end metrics and `fail_frac` of every workload, and writes every
run's JSON lines (machine, samples, layer shares and result) to OUT.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT
from workloads import DEFAULT_SEED, WORKLOADS


def main(argv: list[str]) -> int:
    out_path = argv[0]
    seed = int(argv[1]) if len(argv) > 1 else DEFAULT_SEED
    with open(ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
            runs.append({"workload": name, "seed": seed, "trace": trace,
                         "machine": lines[0]["machine"], "run": lines[1], "result": lines[-1]})
            result = lines[-1]
            if trace == 0:
                for metric, value in result["metrics"].items():
                    print(f"{name} {metric} = {value['value']:.6g} {value['unit']}")
                print(f"{name} fail_frac = {result['failed'] / result['attempted']:.6g} ratio",
                      flush=True)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({"run_seconds": seconds, "runs": runs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
