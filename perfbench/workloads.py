"""Workload definitions: what each benchmark workload runs, built from a seed.

A workload is a list of `knockout` CLI invocations (one per iteration of a
benchmark run) plus the process settings they run under. Everything here
is a pure function of the workload name, the seed and the iteration
index, so the same seed always yields the same inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

DEFAULT_SEED = 17

# Method sections shared by the regression workloads, in the layout of
# configs/fig1_*.ini.
_METHODS = {
    "knockout": ("knockout", ""),
    "knockout_star": ("knockout", "placeholder = mean\n"),
    "common_baseline": ("common_baseline", ""),
    "dropout": ("dropout", ""),
    "zero_indicator": ("zero_indicator", ""),
    "knn": ("knn", "k = 5\n"),
    "lin_reg": ("lin_reg", ""),
    "knockout_minus": ("knockout", "dual_placeholder = false\n"),
}

METHOD_KINDS = ("knockout", "common_baseline", "dropout", "zero_indicator", "knn", "lin_reg")

VERIFY_CHECKS = (
    "counterexample",
    "out_of_support",
    "approximation_bound",
    "decomposition",
    "rate_calibration",
    "pattern_counts",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int
    blas_threads: int
    # Regression workloads: a config and its CLI overrides.
    world: dict | None = None
    mechanism: str = "none"
    mechanism_param: tuple[str, float] | None = None
    steps: int = 0
    k_max: int = 0
    methods: tuple[str, ...] = ()
    # The verify workload: joints per `knockout verify` call.
    joints: int = 0

    @property
    def is_verify(self) -> bool:
        return self.joints > 0

    def config_text(self, seed: int) -> str:
        """The experiment config for a seed; the seed becomes `seed0`."""
        if self.is_verify:
            raise ValueError(f"workload {self.name!r} runs `knockout verify`, not a config")
        lines = ["[world]", "kind = gaussian", "dim = 10"]
        lines += [f"{key} = {value}" for key, value in self.world.items()]
        lines += ["", "[missingness]", f"mechanism = {self.mechanism}"]
        if self.mechanism_param is not None:
            key, value = self.mechanism_param
            lines.append(f"{key} = {value}")
        lines += [
            "",
            "[train]",
            f"steps = {self.steps}",
            "batch_size = 128",
            "learning_rate = 3e-3",
            "hidden = 100,100",
            f"seed0 = {seed}",
            "mask_granularity = per_sample",
            "",
            "[sweep]",
            f"k_max = {self.k_max}",
            "repetitions = 1",
            "",
            "[output]",
            "dir = out",
        ]
        text = "\n".join(lines) + "\n"
        for name in self.methods:
            kind, extra = _METHODS[name]
            text += f"\n[method.{name}]\nkind = {kind}\n{extra}"
        return text

    def verify_seed(self, seed: int, iteration: int) -> int:
        """Each iteration draws its own joints: exact-arithmetic cost varies a
        lot between joint sets, and a run's median over several sets keeps
        the run-to-run spread small."""
        return seed * 1000 + iteration

    def cli_args(self, seed: int, iteration: int, config_path: str, out_dir: str,
                 jobs: int) -> list[str]:
        if self.is_verify:
            return ["verify", "--joints", str(self.joints),
                    "--seed", str(self.verify_seed(seed, iteration))]
        return ["run", "--config", config_path, "--out", out_dir, "--jobs", str(jobs)]

    def method_kinds(self) -> dict[str, str]:
        return {name: _METHODS[name][0] for name in self.methods}

    def patterns(self) -> list[str]:
        """Bit strings of every swept pattern (9 features, up to k_max missing)."""
        d = 9
        return [
            "".join("1" if i in ones else "0" for i in range(d))
            for k in range(self.k_max + 1)
            for ones in itertools.combinations(range(d), k)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_mcar",
            why="NN training of the five network methods on MCAR data; no imputer, "
            "so a baselines change must leave it unchanged",
            jobs=1,
            blas_threads=1,
            world={"n_total": 2000, "train_fraction": 0.5},
            mechanism="mcar",
            mechanism_param=("p", 0.1),
            steps=300,
            k_max=1,
            methods=("knockout", "knockout_star", "common_baseline", "dropout",
                     "zero_indicator"),
        ),
        Workload(
            name="impute_mnar",
            why="all eight fig1_mnar methods; KNN and lin-reg imputation dominate, "
            "and it is the only workload with a worker pool",
            jobs=2,
            blas_threads=1,
            world={"n_total": 1000, "train_fraction": 0.3},
            mechanism="mnar_self_censor",
            mechanism_param=("q", 0.9),
            steps=300,
            k_max=1,
            methods=tuple(_METHODS),
        ),
        Workload(
            name="oracle_sweep",
            why="all 512 patterns on complete data: forward-only nn passes over the "
            "test set, the Bayes oracle and apply_knockout once per pattern",
            jobs=1,
            blas_threads=1,
            world={"n_total": 1000, "train_fraction": 0.6},
            steps=300,
            k_max=9,
            methods=("knockout", "knockout_star", "common_baseline"),
        ),
        Workload(
            name="verify_exact",
            why="`knockout verify`: the only workload that reaches the exact "
            "rational arithmetic in discrete",
            jobs=1,
            blas_threads=1,
            joints=300,
        ),
    )
}
