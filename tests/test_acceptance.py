"""Release-gate acceptance suite.

Each criterion prints one PASS/FAIL line. The training-based criteria run
real experiments at desk scale through the same runner the CLI uses;
seeds are fixed so the whole module is deterministic.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner
from fractions import Fraction

from knockout.cli import main as cli_main
from knockout.config import parse_config
from knockout.discrete import induced_conditional_discrete
from knockout.evaluate import marginal_fidelity_binned
from knockout.missingness import calibrate_rate, enumerate_patterns
from knockout.nn import NetworkSpec, Parameters, TrainConfig, init_params, loss_and_grad, predict, train
from knockout.runner import ablate_placeholder, build_repetition, run_experiment
from knockout.verify import (
    check_decomposition,
    check_out_of_support,
    counterexample_joint,
)
from knockout.worlds import empirical_conditional

pytestmark = pytest.mark.acceptance


def criterion(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {description} -- {detail}")
    assert passed, f"criterion {number}: {description} -- {detail}"


# --------------------------------------------------------------------
# Shared experiment runs (module scope: each trains once, asserts many)
# --------------------------------------------------------------------

COMPLETE_CONFIG = """
[world]
kind = gaussian
dim = 10
n_total = 30000
train_fraction = 0.1

[train]
steps = 5000
batch_size = 128
learning_rate = 3e-3
hidden = 100,100
seed0 = 17
mask_granularity = per_sample

[sweep]
k_max = 3
repetitions = 3

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

MNAR_CONFIG = """
[world]
kind = gaussian
dim = 10
n_total = 30000
train_fraction = 0.1

[missingness]
mechanism = mnar_self_censor
q = 0.9

[train]
steps = 15000
batch_size = 128
learning_rate = 3e-3
hidden = 100,100
seed0 = 17
mask_granularity = per_sample

[sweep]
k_max = 1
repetitions = 3

[output]
dir = {out}

[method.knockout]
kind = knockout

[method.knockout_minus]
kind = knockout
dual_placeholder = false
"""

CLASS_CONFIG = """
[world]
kind = continuous2d
n_total = 30000
train_fraction = 0.1

[train]
steps = 5000
batch_size = 128
learning_rate = 3e-3
hidden = 100,100
seed0 = 17
mask_granularity = per_sample

[sweep]
k_max = 2
repetitions = 3

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


@pytest.fixture(scope="module")
def complete_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("complete")
    t0 = time.time()
    artifacts = run_experiment(parse_config(COMPLETE_CONFIG.format(out=out)), out_dir=out)
    return artifacts, time.time() - t0


@pytest.fixture(scope="module")
def mnar_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mnar")
    t0 = time.time()
    artifacts = run_experiment(parse_config(MNAR_CONFIG.format(out=out)), out_dir=out)
    return artifacts, time.time() - t0


@pytest.fixture(scope="module")
def ablation_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ablate")
    t0 = time.time()
    cfg = parse_config(COMPLETE_CONFIG.format(out=out))
    artifacts = ablate_placeholder(cfg, [0.0, 10.0], out_dir=out)
    return artifacts, time.time() - t0


@pytest.fixture(scope="module")
def class_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("classification")
    t0 = time.time()
    artifacts = run_experiment(parse_config(CLASS_CONFIG.format(out=out)), out_dir=out)
    return artifacts, time.time() - t0


def popcount_means(report, metric):
    return {pc: v["mean"] for (m, pc), v in report.by_popcount().items() if m == metric}


# --------------------------------------------------------------------
# Criterion 1: exact in-support counterexample
# --------------------------------------------------------------------


def test_criterion_1_counterexample():
    t0 = time.time()
    joint = counterexample_joint()
    induced = induced_conditional_discrete(joint, Fraction(1, 2), (1,), (1,))
    exact = induced[0] == Fraction(6, 13)
    elapsed = time.time() - t0
    criterion(
        1,
        "in-support counterexample is exactly 0.6/1.3",
        exact and elapsed < 1.0,
        f"P(Y=0 | augmented=1) = {induced[0]} = {float(induced[0]):.6f}, {elapsed:.3f}s",
    )


# --------------------------------------------------------------------
# Criterion 2: out-of-support placeholders marginalize exactly
# --------------------------------------------------------------------


def test_criterion_2_out_of_support_theorem():
    t0 = time.time()
    result = check_out_of_support(n_joints=200, seed=20240)
    elapsed = time.time() - t0
    criterion(
        2,
        "induced conditional equals marginal on 200 random joints",
        result.passed and elapsed < 30.0,
        f"{result.detail}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------
# Criterion 3: rate calibration and pattern counts
# --------------------------------------------------------------------


def test_criterion_3_rate_and_patterns():
    t0 = time.time()
    rate = calibrate_rate(9, 0.5)
    n_patterns = len(enumerate_patterns(9, 3))
    elapsed = time.time() - t0
    criterion(
        3,
        "rate(9, 0.5) = 0.0741 and 130 patterns for (9, 3)",
        abs(rate - 0.0741) <= 5e-4 and n_patterns == 130 and elapsed < 1.0,
        f"rate = {rate:.6f}, patterns = {n_patterns}, {elapsed:.3f}s",
    )


# --------------------------------------------------------------------
# Criterion 4: multi-task decomposition identity
# --------------------------------------------------------------------


def test_criterion_4_decomposition():
    t0 = time.time()
    result = check_decomposition()
    elapsed = time.time() - t0
    criterion(
        4,
        "Monte Carlo loss matches the pattern-weighted sum within 3 SE",
        result.passed and elapsed < 10.0,
        f"{result.detail}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------
# Criterion 5: gradient correctness on 20 random configurations
# --------------------------------------------------------------------


def _finite_difference_max_rel_error(spec, loss, rng):
    params = init_params(spec, rng)
    batch = rng.normal(size=(4, spec.widths[0]))
    if loss == "mse":
        targets = rng.normal(size=(4, spec.widths[-1]))
    else:
        targets = rng.integers(0, spec.widths[-1], size=4)
    _, analytic = loss_and_grad(spec, params, batch, targets, loss)
    theta = params.flat()
    h = 1e-5
    worst = 0.0
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        lu, _ = loss_and_grad(spec, Parameters.from_flat(spec, up), batch, targets, loss)
        ld, _ = loss_and_grad(spec, Parameters.from_flat(spec, down), batch, targets, loss)
        fd = (lu - ld) / (2 * h)
        denom = max(abs(analytic[i]), abs(fd), 1e-8)
        worst = max(worst, abs(analytic[i] - fd) / denom)
    return worst


def test_criterion_5_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(515)
    worst = 0.0
    for k in range(20):
        n_hidden = int(rng.integers(0, 3))
        widths = (int(rng.integers(1, 6)),) + tuple(
            int(rng.integers(2, 10)) for _ in range(n_hidden)
        )
        if k % 2 == 0:
            spec = NetworkSpec(widths + (int(rng.integers(1, 4)),))
            loss = "mse"
        else:
            spec = NetworkSpec(widths + (int(rng.integers(2, 5)),), head="logits")
            loss = "cross_entropy"
        worst = max(worst, _finite_difference_max_rel_error(spec, loss, rng))
    elapsed = time.time() - t0
    criterion(
        5,
        "analytic gradients match central differences on 20 random nets",
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error = {worst:.2e}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------
# Criterion 6: complete-data regime ordering at desk scale
# --------------------------------------------------------------------


def test_criterion_6_complete_regime_ordering(complete_run):
    artifacts, elapsed = complete_run
    knock = popcount_means(artifacts.reports["knockout"], "mse_bayes")
    cb = popcount_means(artifacts.reports["common_baseline"], "mse_bayes")
    star = popcount_means(artifacts.reports["knockout_star"], "mse_bayes")
    below_cb = all(knock[pc] < cb[pc] for pc in (1, 2, 3))
    at_most_star = all(knock[pc] <= star[pc] for pc in (1, 2, 3))
    criterion(
        6,
        "knockout beats mean imputation and its mean-placeholder variant",
        below_cb and at_most_star and elapsed < 900.0,
        "mse_bayes by popcount: knockout "
        + str({pc: round(v, 4) for pc, v in sorted(knock.items())})
        + ", common baseline "
        + str({pc: round(v, 4) for pc, v in sorted(cb.items())})
        + ", mean-placeholder variant "
        + str({pc: round(v, 4) for pc, v in sorted(star.items())})
        + f", {elapsed:.0f}s",
    )


def test_complete_regime_popcount0_matches_unaugmented(complete_run):
    """Sweep-harness invariant: with nothing masked, knockout training and
    plain training land within each other's seed-dispersion intervals."""
    artifacts, _ = complete_run
    knock = artifacts.reports["knockout"].by_popcount()[("mse_bayes", 0)]
    cb = artifacts.reports["common_baseline"].by_popcount()[("mse_bayes", 0)]
    lo_k, hi_k = knock["mean"] - knock["std"], knock["mean"] + knock["std"]
    lo_c, hi_c = cb["mean"] - cb["std"], cb["mean"] + cb["std"]
    assert max(lo_k, lo_c) <= min(hi_k, hi_c), (knock, cb)


# --------------------------------------------------------------------
# Criterion 7: MNAR dual-placeholder ablation ordering
# --------------------------------------------------------------------


def test_criterion_7_mnar_ablation(mnar_run):
    artifacts, elapsed = mnar_run
    knock = artifacts.reports["knockout"].by_popcount()[("mse_bayes", 0)]
    minus = artifacts.reports["knockout_minus"].by_popcount()[("mse_bayes", 0)]
    criterion(
        7,
        "dual-placeholder knockout at most the single-placeholder ablation (popcount 0)",
        knock["mean"] <= minus["mean"] and elapsed < 900.0,
        f"mse_bayes: knockout {knock['mean']:.4f} (per rep "
        f"{[round(v, 4) for v in knock['per_rep']]}) vs ablated "
        f"{minus['mean']:.4f} (per rep {[round(v, 4) for v in minus['per_rep']]}), "
        f"{elapsed:.0f}s",
    )


# --------------------------------------------------------------------
# Criterion 8: placeholder-value ablation trend
# --------------------------------------------------------------------


def test_criterion_8_placeholder_ablation(ablation_run):
    artifacts, elapsed = ablation_run
    means = {}
    for name in ("knockout_ph0", "knockout_ph10"):
        report = artifacts.reports[name]
        means[name] = {
            metric: float(np.mean(list(popcount_means(report, metric).values())))
            for metric in ("mse_obs", "mse_bayes")
        }
    obs_ordered = means["knockout_ph0"]["mse_obs"] > means["knockout_ph10"]["mse_obs"]
    bayes_ordered = means["knockout_ph0"]["mse_bayes"] > means["knockout_ph10"]["mse_bayes"]
    criterion(
        8,
        "placeholder at the mean is worse than placeholder far from it",
        obs_ordered and bayes_ordered and elapsed < 1200.0,
        f"value 0: {means['knockout_ph0']}, value 10: {means['knockout_ph10']}, {elapsed:.0f}s",
    )


def test_placeholder_trend_from_report_csv(ablation_run):
    """Post-hoc check independent of the in-memory reports: recompute the
    per-value means straight from the long-format CSV."""
    import csv as csv_module

    artifacts, _ = ablation_run
    sums, counts = {}, {}
    with open(artifacts.out_dir / "report_long.csv", newline="") as fh:
        for row in csv_module.DictReader(fh):
            key = (row["method"], row["metric"])
            sums[key] = sums.get(key, 0.0) + float(row["value"])
            counts[key] = counts.get(key, 0) + 1
    for metric in ("mse_obs", "mse_bayes"):
        at_zero = sums[("knockout_ph0", metric)] / counts[("knockout_ph0", metric)]
        at_ten = sums[("knockout_ph10", metric)] / counts[("knockout_ph10", metric)]
        assert at_zero > at_ten, (metric, at_zero, at_ten)


# --------------------------------------------------------------------
# Criterion 9: classification marginal fidelity and error ordering
# --------------------------------------------------------------------


def test_criterion_9_classification(class_run):
    artifacts, elapsed = class_run
    jsd_means = {}
    for name in ("knockout", "knockout_star"):
        jsd_means[name] = {
            r.pattern: r.value for r in artifacts.jsd_reports[name].results
        }
    err_means = {}
    for name in ("knockout", "common_baseline"):
        err_means[name] = {
            r.pattern: r.value
            for r in artifacts.reports[name].results
            if r.metric == "error" and r.popcount == 1
        }
    jsd_ok = all(
        jsd_means["knockout"][p] < jsd_means["knockout_star"][p] for p in ("01", "10")
    )
    err_ok = all(
        err_means["knockout"][p] < err_means["common_baseline"][p] for p in ("01", "10")
    )
    criterion(
        9,
        "knockout beats the mean-placeholder variant on marginal JSD and "
        "the common baseline on missing-feature error",
        jsd_ok and err_ok and elapsed < 600.0,
        f"jsd knockout {dict((k, round(v, 5)) for k, v in jsd_means['knockout'].items())} vs "
        f"variant {dict((k, round(v, 5)) for k, v in jsd_means['knockout_star'].items())}; "
        f"error knockout {dict((k, round(v, 4)) for k, v in err_means['knockout'].items())} vs "
        f"baseline {dict((k, round(v, 4)) for k, v in err_means['common_baseline'].items())}, "
        f"{elapsed:.0f}s",
    )


def test_classification_fitted_marginal_reference(class_run):
    """A model trained on just one feature is the fidelity floor; the
    knockout model must come close to it."""
    artifacts, _ = class_run
    run_cfg = parse_config(CLASS_CONFIG.format(out=artifacts.out_dir))
    reps = [build_repetition(run_cfg, rep) for rep in range(run_cfg.repetitions)]
    for feature, pattern_bits in ((0, "01"), (1, "10")):
        knock_jsd = next(
            r
            for r in artifacts.jsd_reports["knockout"].results
            if r.pattern == pattern_bits
        )
        fitted_vals = []
        for data in reps:
            spec = NetworkSpec((1, 100, 100, 2), head="logits")
            cfg = TrainConfig(
                learning_rate=3e-3,
                steps=2000,
                batch_size=128,
                seed=9000 + data.rep,
                loss="cross_entropy",
            )
            result = train(spec, cfg, data.z_train[:, [feature]], data.y_train.astype(int))
            y_all = np.concatenate([data.y_train, data.y_test]).astype(int)
            z_all = np.vstack([data.z_train, data.z_test])
            est = empirical_conditional(z_all[:, feature], y_all, bins=50)
            proba = predict(spec, result.params, est.positions[:, None])
            fitted_vals.append(marginal_fidelity_binned(proba[:, 1], est))
        assert knock_jsd.value <= float(np.mean(fitted_vals)) + 0.01, (
            feature,
            knock_jsd.value,
            fitted_vals,
        )


# --------------------------------------------------------------------
# Criterion 10: byte-identical reports from identical invocations
# --------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    config_text = COMPLETE_CONFIG.format(out=tmp_path / "unused").replace(
        "steps = 5000", "steps = 500"
    )
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(config_text)
    runner = CliRunner()
    outputs = []
    for label in ("first", "second"):
        out_dir = tmp_path / label
        result = runner.invoke(
            cli_main,
            ["run", "--config", str(cfg_path), "--out", str(out_dir), "--seeds", "1"],
        )
        assert result.exit_code == 0, result.output
        outputs.append(out_dir)
    identical = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("report_long.csv", "plotdata.csv", "aggregates.json")
    )
    elapsed = time.time() - t0
    criterion(
        10,
        "two identical runs produce byte-identical reports",
        identical and elapsed < 1800.0,
        f"compared report_long.csv, plotdata.csv, aggregates.json; {elapsed:.0f}s",
    )
