"""Self-contained verification suite for the exact identities.

Every check here is an oracle-style test that needs no training: exact
rational enumeration for the placeholder theorems, a Monte Carlo
cross-check of the multi-task decomposition, and closed-form constants.
The CLI surfaces these as ``verify`` with one pass/fail line per check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .augment import apply_knockout
from .discrete import (
    DiscreteJoint,
    induced_conditional_discrete,
    insupport_deviation,
    marginal_discrete,
    random_discrete_joint,
    tv_distance,
    verify_out_of_support,
)
from .missingness import calibrate_rate, enumerate_patterns
from .nn import NetworkSpec, forward, init_params
from .schema import PlaceholderPolicy

__all__ = ["CheckResult", "verify_all", "counterexample_joint"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def counterexample_joint() -> DiscreteJoint:
    """Two-point world where an in-support placeholder provably misleads.

    X takes value 1 with probability 0.3 and value 2 otherwise; Y is 0
    exactly when X is 1. With knockout probability 1/2 and the in-support
    placeholder 1, conditioning on the augmented input equal to 1 gives
    P(Y=0) = 6/13, which matches neither the prior 3/10 nor the true
    conditional 1.
    """
    numerators = np.array([[3, 0], [0, 7]], dtype=object)  # [x, y]
    return DiscreteJoint(((1, 2),), (0, 1), numerators, 10)


def check_counterexample() -> CheckResult:
    joint = counterexample_joint()
    q = Fraction(1, 2)
    induced = induced_conditional_discrete(joint, q, placeholders=(1,), evidence=(1,))
    expected = Fraction(6, 13)
    ok = induced[0] == expected and induced[1] == Fraction(7, 13)

    # Out-of-support placeholder recovers the prior exactly.
    prior = induced_conditional_discrete(joint, q, placeholders=(3,), evidence=(3,))
    ok = ok and prior[0] == Fraction(3, 10)
    # No knockout recovers the true conditional exactly.
    cond = induced_conditional_discrete(joint, Fraction(0), placeholders=(3,), evidence=(1,))
    ok = ok and cond[0] == Fraction(1)
    # The closed-form deviation ratio links marginal and induced.
    ratio = insupport_deviation(joint, q, feature=0, placeholder=1)
    marg = marginal_discrete(joint, (1,))[()]
    ok = ok and marg[0] * ratio[((), 0)] == expected
    return CheckResult(
        "in-support counterexample",
        ok,
        f"P(Y=0 | augmented=1) = {induced[0]} = {float(induced[0]):.6f} "
        f"(prior 0.3, conditional 1.0)",
    )


def check_out_of_support(n_joints: int = 200, seed: int = 20240) -> CheckResult:
    rng = np.random.default_rng(seed)
    checks = 0
    for _ in range(n_joints):
        joint = random_discrete_joint(rng)
        q = Fraction(int(rng.integers(1, 20)), 20)
        try:
            checks += verify_out_of_support(joint, q)
        except ValueError as exc:
            return CheckResult("out-of-support marginalization", False, str(exc))
    return CheckResult(
        "out-of-support marginalization",
        True,
        f"{n_joints} random joints, {checks} exact equalities",
    )


def _near_support_joint(eps: Fraction) -> DiscreteJoint:
    # Rare value 3 of feature 0 carries mass eps, concentrated on y=1; the
    # common values share 1 - eps in percent. Both are indexed [x_1, x_2, y].
    percent = np.array([[[20, 5], [10, 15]], [[5, 20], [15, 10]], [[0, 0], [0, 0]]], dtype=object)
    rare = np.zeros_like(percent)
    rare[2] = [[0, 70], [0, 30]]
    numerators = percent * (eps.denominator - eps.numerator) + rare * eps.numerator
    return DiscreteJoint(((1, 2, 3), (1, 2)), (0, 1), numerators, 100 * eps.denominator)


def check_approximation_bound() -> CheckResult:
    """In-support placeholder with vanishing mass approaches the marginal.

    Total-variation distance between the induced conditional and the true
    marginal must shrink monotonically as the placeholder mass eps drops,
    staying below C * eps / q for a measured constant C.
    """
    q = Fraction(1, 2)
    eps_values = tuple(Fraction(1, 10**k) for k in (2, 4, 6))
    tvs = []
    for eps in eps_values:
        joint = _near_support_joint(eps)
        worst = 0.0
        for ctx in (1, 2):
            marg = marginal_discrete(joint, (1, 0))[(ctx,)]
            induced = induced_conditional_discrete(
                joint, q, placeholders=(3, 99), evidence=(3, ctx)
            )
            worst = max(worst, tv_distance(induced, marg))
        tvs.append(worst)
    monotone = tvs[0] > tvs[1] > tvs[2]
    vanishing = tvs[2] < 1e-4
    c_measured = max(tv * q / eps for tv, eps in zip(tvs, eps_values))
    ok = monotone and vanishing
    return CheckResult(
        "approximate marginalization bound",
        ok,
        "TV(eps) = " + ", ".join(f"{tv:.3e}" for tv in tvs) + f"; C = {c_measured:.3f}",
    )


def _decomposition_estimates(seed: int, n_draws: int) -> tuple[float, float, float]:
    """The exact pattern-weighted loss, and its Monte Carlo mean and SE.

    A draw picks a pattern and a row, so it can take only 4 x 400 values:
    four 400-row forward passes give each one's squared residual, and one
    multinomial draw gives how many of n_draws i.i.d. draws fall on each.
    """
    if n_draws < 2:
        raise ValueError(f"n_draws must be at least 2 for a standard error, got {n_draws}")
    rng = np.random.default_rng(seed)
    n, d = 400, 2
    x = rng.standard_normal((n, d))
    w_true = np.array([1.5, -2.0])
    y = x @ w_true + 0.1 * rng.standard_normal(n)
    policy = PlaceholderPolicy(np.array([10.0, 10.0]), np.array([-10.0, -10.0]))
    patterns = np.array(((0, 0), (0, 1), (1, 0), (1, 1)), dtype=np.uint8)
    probs = (0.4, 0.3, 0.2, 0.1)

    spec = NetworkSpec(widths=(2, 16, 1))
    params = init_params(spec, rng)
    losses = np.stack(
        [(forward(spec, params, apply_knockout(x, m, policy)).ravel() - y) ** 2 for m in patterns]
    )
    exact = sum(p * float(np.mean(loss)) for p, loss in zip(probs, losses))

    counts = rng.multinomial(n_draws, np.outer(probs, np.full(n, 1.0 / n)).ravel())
    mean = counts @ losses.ravel() / n_draws
    var = counts @ (losses.ravel() - mean) ** 2 / (n_draws - 1)
    return exact, float(mean), float(np.sqrt(var / n_draws))


def check_decomposition(seed: int = 11, n_draws: int = 100_000) -> CheckResult:
    """Training loss equals the pattern-weighted sum of per-pattern losses.

    For a fixed network and a fixed dataset over two features, the Monte
    Carlo estimate of the augmented loss (masks and rows both resampled)
    must agree with the exact weighted sum within 3 standard errors.
    """
    exact, mc, se = _decomposition_estimates(seed, n_draws)
    ok = abs(mc - exact) <= 3.0 * se
    return CheckResult(
        "multi-task decomposition",
        ok,
        f"MC {mc:.6f} vs exact {exact:.6f} (3 SE = {3 * se:.6f})",
    )


def check_rate_calibration() -> CheckResult:
    r = calibrate_rate(9, 0.5)
    ok = abs(r - 0.0741) <= 5e-4
    clean = (1.0 - r) ** 9
    ok = ok and abs(clean - 0.5) < 1e-12
    return CheckResult(
        "knockout-rate calibration",
        ok,
        f"rate(d=9, p_clean=0.5) = {r:.6f} (expected 0.0741); (1-r)^9 = {clean:.12f}",
    )


def check_pattern_counts() -> CheckResult:
    n930 = len(enumerate_patterns(9, 3))
    n33 = len(enumerate_patterns(3, 3))
    n50 = len(enumerate_patterns(5, 0))
    ok = n930 == 130 and n33 == 8 and n50 == 1
    return CheckResult(
        "pattern enumeration counts",
        ok,
        f"(9,3) -> {n930} patterns (expected 130); (3,3) -> {n33}; (5,0) -> {n50}",
    )


def verify_all(n_joints: int = 200, seed: int = 20240) -> list[CheckResult]:
    return [
        check_counterexample(),
        check_out_of_support(n_joints=n_joints, seed=seed),
        check_approximation_bound(),
        check_decomposition(),
        check_rate_calibration(),
        check_pattern_counts(),
    ]
