"""Benchmark for the `knockout` reproduction harness.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each iteration is one `knockout`
CLI call (`run` or `verify`) in a fresh process, driven one at a time
(a closed loop with one client). A run repeats the workload for about S
seconds and reports medians.

`--trace 0` prints the end-to-end metrics: `run_s` (process start to
exit), `setup_s` (process start until `knockout` is imported and the
config parsed), `cpu_s` (user+sys of the command and its workers) and
`peak_rss_mb` (the largest resident set of the command or a worker).
`--trace 1` alternates untraced and traced `--jobs 1` calls and prints the
per-layer metrics from the traced spans plus `trace.overhead_s`.

Every iteration's output is checked (see check.py); the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import REPORT_FILES, Outcome, check_run, check_verify, load_reference
from spans import PER_LAYER_UNITS, layer_metrics, layer_shares, spans_from_json
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

SETUP_PROBES = 8  # set-up-only processes per untraced run, besides the iterations
MIN_ITERATIONS = 3
MAX_ITERATIONS = 16
RUN_LIMIT_S = 170.0  # a run must end well inside the 180 s the benchmark promises


@dataclass
class Iteration:
    index: int
    exit_code: int
    run_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    stdout: str
    reports: dict[str, bytes] = field(default_factory=dict)
    spans: list | None = None
    numpy_build: dict | None = None
    outcome: Outcome | None = None


def child_env(workload: Workload) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(workload.blas_threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("KNOCKOUT_OUT_ROOT", None)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs one workload's iterations for a seed and checks each result."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, deadline: float):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.reference = load_reference(workload)
        self.config = None
        if not workload.is_verify:
            self.config = workdir / "config.ini"
            self.config.write_text(workload.config_text(seed))

    def spawn(self, index: int, *, traced: bool, jobs: int, setup_only: bool = False) -> Iteration:
        tag = f"{index}{'t' if traced else ''}{'s' if setup_only else ''}"
        out_dir = self.workdir / f"out{tag}"
        spec = {
            "argv": self.w.cli_args(self.seed, index, str(self.config), str(out_dir), jobs),
            "config": None if self.config is None else str(self.config),
            "trace": traced,
            "setup_only": setup_only,
            "result": str(self.workdir / f"result{tag}.json"),
        }
        spec_path = self.workdir / f"spec{tag}.json"
        spec_path.write_text(json.dumps(spec))
        stdout_path = self.workdir / f"stdout{tag}.txt"
        timeout = max(5.0, self.deadline - time.monotonic())
        with open(stdout_path, "w") as out, open(self.workdir / f"stderr{tag}.txt", "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                cwd=ROOT, env=child_env(self.w), stdout=out, stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the command, then re-raise
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing the command started may outlive it

        result = {}
        if os.path.exists(spec["result"]):
            with open(spec["result"]) as fh:
                result = json.load(fh)
        it = Iteration(
            index=index,
            exit_code=proc.returncode,
            run_s=t1 - t0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            setup_s=result["setup_at"] - t0 if "setup_at" in result else None,
            stdout=stdout_path.read_text(),
            spans=result.get("spans"),
            numpy_build=result.get("numpy_build"),
        )
        if not setup_only:
            self._check(it, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return it

    def _check(self, it: Iteration, out_dir: Path) -> None:
        exit_ok = it.exit_code == 0
        if self.w.is_verify:
            it.outcome = check_verify(self.w, self.seed, it.index, it.stdout, exit_ok,
                                      self.reference)
            it.reports = {"stdout": it.stdout.encode()}
            return
        it.outcome = check_run(self.w, self.seed, out_dir, exit_ok, self.reference)
        for name in REPORT_FILES:
            path = out_dir / name
            it.reports[name] = path.read_bytes() if path.exists() else b""

    def time_left(self, needed: float) -> bool:
        return time.monotonic() + needed <= self.deadline


def machine_info(workload: Workload, jobs: int, numpy_build: dict | None) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **(numpy_build or {}),
        "blas_threads": workload.blas_threads,
        "thread_env": {k: v for k, v in child_env(workload).items() if k.endswith("_NUM_THREADS")},
        "jobs": jobs,
    }


def run_untraced(runner: Runner, seconds: float, start: float) -> tuple[dict, list[Iteration]]:
    """Iterations of the workload, with set-up-only probes in between so
    that set-up samples spread over the whole run. Every metric is the
    median over its samples."""
    w = runner.w
    # Warm-up: the first process in a fresh checkout compiles bytecode and
    # fills the page cache; users pay neither on every call.
    warm = runner.spawn(0, traced=False, jobs=w.jobs, setup_only=True)
    probes: list[Iteration] = []
    iterations: list[Iteration] = []
    while len(iterations) < MAX_ITERATIONS:
        iterations.append(runner.spawn(len(iterations), traced=False, jobs=w.jobs))
        if len(probes) < SETUP_PROBES:
            probes.append(runner.spawn(len(probes), traced=False, jobs=w.jobs, setup_only=True))
        typical = statistics.median(it.run_s for it in iterations)
        if len(iterations) >= MIN_ITERATIONS and time.monotonic() + typical > start + seconds:
            break
        if not runner.time_left(typical):
            break
    setups = [it.setup_s for it in probes + iterations if it.setup_s is not None]
    metrics = {
        "run_s": statistics.median(it.run_s for it in iterations),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "cpu_s": statistics.median(it.cpu_s for it in iterations),
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in iterations),
    }
    return {"metrics": metrics, "numpy_build": warm.numpy_build,
            "run_s_samples": [it.run_s for it in iterations],
            "setup_s_samples": setups}, iterations


def run_traced(runner: Runner, seconds: float, start: float) -> tuple[dict, list[Iteration]]:
    warm = runner.spawn(0, traced=False, jobs=1, setup_only=True)
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    identical = True
    while len(traced) < MAX_ITERATIONS:
        i = len(traced)
        plain.append(runner.spawn(i, traced=False, jobs=1))
        traced.append(runner.spawn(i, traced=True, jobs=1))
        if traced[-1].reports != plain[-1].reports:
            identical = False
            traced[-1].outcome.failed = traced[-1].outcome.attempted
        pair = plain[-1].run_s + traced[-1].run_s
        if time.monotonic() + pair > start + seconds or not runner.time_left(pair):
            break

    # A traced command that crashed leaves no spans; its layers report 0.
    measured = [(spans_from_json(it.spans), it.run_s) for it in traced if it.spans] or [([], 1.0)]
    per_iteration = [layer_metrics(spans) for spans, _ in measured]
    shares = [layer_shares(spans, wall) for spans, wall in measured]
    metrics = {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
    share = {k: statistics.median(s[k] for s in shares) for k in shares[0]}
    metrics["trace.overhead_s"] = (statistics.median(it.run_s for it in traced)
                                   - statistics.median(it.run_s for it in plain))
    metrics["evaluate.report_max_rel_diff"] = max(
        it.outcome.max_rel_diff for it in plain + traced)
    return {"metrics": metrics, "numpy_build": warm.numpy_build,
            "run_s_samples": [it.run_s for it in plain],
            "traced_run_s_samples": [it.run_s for it in traced],
            "shares": share, "reports_identical": identical}, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "knockout" / "__init__.py").is_file():
        print(f"no knockout sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, workdir, start + RUN_LIMIT_S)
        if args.trace:
            summary, iterations = run_traced(runner, args.seconds, start)
            units = PER_LAYER_UNITS
        else:
            summary, iterations = run_untraced(runner, args.seconds, start)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    jobs = 1 if args.trace else workload.jobs
    attempted = sum(it.outcome.attempted for it in iterations)
    failed = sum(it.outcome.failed for it in iterations)
    print(json.dumps({"machine": machine_info(workload, jobs, summary.pop("numpy_build"))}))
    metrics = summary.pop("metrics")
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      **summary}))
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value!r} {units[name]}")
    print(f"{workload.name} fail_frac = {failed / attempted!r} ratio "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
