"""Exact discrete-enumeration oracles for the knockout identities.

A :class:`DiscreteJoint` is a finite p(X, Y) table held as one dense
array of Python-int numerators over a common denominator, checked when
the joint is built, and the knockout probability q is rational too.
Every computation here stays in exact arithmetic (integer sums with one
Fraction at the end), which is what makes the placeholder theorems
checkable as equalities rather than approximations:

* out-of-support placeholders: conditioning the knockout-augmented input
  on a placeholder pattern yields exactly the marginal p(Y | observed);
* in-support placeholders: the induced conditional deviates from the
  marginal by a closed-form ratio, computed by ``insupport_deviation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "DiscreteJoint",
    "UnreachableEvidenceError",
    "marginal_discrete",
    "induced_conditional_discrete",
    "insupport_deviation",
    "out_of_support_placeholders",
    "verify_out_of_support",
    "tv_distance",
    "random_discrete_joint",
]

class UnreachableEvidenceError(ValueError):
    """Conditioning event has probability zero."""


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Finite joint distribution over feature tuples and labels.

    ``numerators`` is indexed [x_1, ..., x_d, y]: axis i runs over
    ``alphabets[i]`` and the last axis over ``y_values``, in their declared
    order. It holds Python ints (``dtype=object``), and p(x, y) is
    ``numerators[x, y] / denominator``. The joint keeps a read-only copy of
    the table, checked when the joint is built.
    """

    alphabets: tuple[tuple[int, ...], ...]
    y_values: tuple[int, ...]
    numerators: np.ndarray
    denominator: int

    def __post_init__(self):
        table = self.numerators
        if not isinstance(table, np.ndarray) or table.dtype != object:
            kind = getattr(table, "dtype", type(table).__name__)
            raise ValueError(f"numerators must be Python ints (dtype=object), got {kind}")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "numerators", table)
        shape = (*(len(alph) for alph in self.alphabets), len(self.y_values))
        if table.shape != shape:
            raise ValueError(f"numerators have shape {table.shape}, the alphabets need {shape}")
        for cell, n in np.ndenumerate(table):
            if not isinstance(n, int) or n < 0:
                raise ValueError(
                    f"numerator at index {cell} must be a non-negative int, got {n!r}"
                )
        if not isinstance(self.denominator, int) or self.denominator < 1:
            raise ValueError(f"denominator must be a positive int, got {self.denominator!r}")
        if table.sum() != self.denominator:
            raise ValueError(
                f"numerators sum to {table.sum()}, not the denominator {self.denominator}"
            )

    @property
    def d(self) -> int:
        return len(self.alphabets)


def marginal_discrete(
    joint: DiscreteJoint, pattern: np.ndarray | Iterable[int]
) -> dict[tuple[int, ...], dict[int, Fraction]]:
    """Exact p(Y | observed coordinates) for one missingness pattern.

    ``pattern`` marks missing coordinates with 1. Returns a table keyed by
    the observed-coordinate values (a tuple over the unmasked positions,
    in index order); only reachable evidence appears.
    """
    pattern = tuple(int(b) for b in pattern)
    if len(pattern) != joint.d:
        raise ValueError(f"pattern length {len(pattern)} != d {joint.d}")
    sums = joint.numerators.sum(axis=tuple(i for i, b in enumerate(pattern) if b))
    obs_alphabets = [alph for alph, b in zip(joint.alphabets, pattern) if not b]
    out = {}
    for cell in np.ndindex(sums.shape[:-1]):
        row = sums[cell]
        total = row.sum()
        if total == 0:
            continue
        key = tuple(alph[j] for alph, j in zip(obs_alphabets, cell))
        out[key] = {y: Fraction(n, total) for y, n in zip(joint.y_values, row)}
    return out


def _rational_q(q: Fraction) -> Fraction:
    if not isinstance(q, (int, Fraction)):
        raise ValueError(f"q must be an int or a Fraction, got {q!r}")
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return q


def _numeric_table(joint: DiscreteJoint, q: Fraction) -> tuple[np.ndarray, int, int]:
    """The joint's numerators and q = qn / qd, all integers.

    The numerators are int64 when a bound proves that no value the oracles
    form can overflow it, Python ints (``dtype=object``) otherwise.
    """
    q = _rational_q(q)
    # Every weight is at most qd, so an induced numerator is at most
    # qd**d times the table's total mass, its denominator; the equality
    # test multiplies it by a marginal total, which is at most that mass
    # again. The extended grid of verify_out_of_support forms nothing
    # larger: each induced entry is one a single-pattern evidence grid
    # would form, and each marginal entry is a sum of table entries over
    # some axes, so at most the mass. The denominator is the one the joint
    # was built with, not reduced, so the bound can only pick Python ints
    # more often than a reduced one would, never int64 wrongly.
    table = joint.numerators
    mass = joint.denominator
    if q.denominator**joint.d * mass * mass < 2**63:
        table = table.astype(np.int64)
    return table, q.numerator, q.denominator


def _induced_numerators(
    table: np.ndarray,
    alphabets: tuple[tuple[int, ...], ...],
    placeholders: tuple[int, ...],
    evidence: Iterable[Iterable[int]],
    qn: int,
    qd: int,
) -> np.ndarray:
    """Unnormalized p(Y | X' = e) for every evidence e in a grid.

    ``evidence[i]`` lists the values feature i may show, and the result is
    indexed [e_1, ..., e_d, y] over that grid. Under i.i.d. knockout with
    q = qn / qd, feature i shows e with weight

        w_i(e, x_i) = qn * [e == placeholder_i] + (qd - qn) * [x_i == e]

    (mask bit 1 forces the placeholder; bit 0 keeps the true value), so the
    numerators are the table contracted with one (values x alphabet) weight
    matrix per feature.
    """
    out = table
    for alph, ph, values in zip(alphabets, placeholders, evidence):
        e = np.asarray(values)[:, None]
        shows_ph = (e == ph).astype(table.dtype)
        keeps_x = (e == np.asarray(alph)).astype(table.dtype)
        w = shows_ph * qn + keeps_x * (qd - qn)
        # Contract the leading x_i axis; the e_i axis goes last, so after d
        # steps the axes are (y, e_1, ..., e_d).
        out = (out.reshape(len(alph), -1).T @ w.T).reshape(*out.shape[1:], len(w))
    return np.moveaxis(out, 0, -1)


def induced_conditional_discrete(
    joint: DiscreteJoint,
    q: Fraction,
    placeholders: tuple[int, ...],
    evidence: tuple[int, ...],
) -> dict[int, Fraction]:
    """Exact p(Y | X' = evidence) under i.i.d. Bernoulli(q) knockout.

    For each feature, a mask bit of 1 forces the augmented value to the
    placeholder and a bit of 0 keeps the true value, so the total weight
    of (mask, x) pairs consistent with the evidence factorizes per
    feature: q if the evidence shows the placeholder, plus (1 - q) if the
    true value equals the evidence. Works for in-support placeholders
    too, which is what the suboptimal-placeholder counterexample uses.
    """
    if len(evidence) != joint.d or len(placeholders) != joint.d:
        raise ValueError("evidence and placeholders must have length d")
    table, qn, qd = _numeric_table(joint, q)
    num = _induced_numerators(
        table, joint.alphabets, placeholders, [(e,) for e in evidence], qn, qd
    ).reshape(-1)
    total = num.sum()
    if total == 0:
        raise UnreachableEvidenceError(f"unreachable evidence {evidence}")
    return {y: Fraction(int(n), int(total)) for y, n in zip(joint.y_values, num)}


def insupport_deviation(
    joint: DiscreteJoint,
    q: Fraction,
    feature: int,
    placeholder: int,
) -> dict[tuple[tuple[int, ...], int], Fraction]:
    """Deviation ratio of the induced conditional from the true marginal.

    For an in-support placeholder on one feature, with r = P(mask bit is
    0) = 1 - q, the induced conditional equals the marginal times

        (1 - r + r * P(X_i = placeholder | Y, rest))
        -----------------------------------------------
        (1 - r + r * P(X_i = placeholder | rest))

    Returned keyed by (rest-of-row values, y); only contexts with positive
    probability and labels with positive conditional mass appear.
    """
    if placeholder not in joint.alphabets[feature]:
        raise ValueError(f"placeholder {placeholder} is not in the support of feature {feature}")
    r = 1 - _rational_q(q)
    dense = joint.numerators
    # Numerators over (rest..., y): the whole mass, and the mass at the placeholder.
    mass = dense.sum(axis=feature)
    at_ph = np.take(dense, joint.alphabets[feature].index(placeholder), axis=feature)
    ctx_mass, ctx_ph = mass.sum(axis=-1, keepdims=True), at_ph.sum(axis=-1, keepdims=True)
    rest = [alph for i, alph in enumerate(joint.alphabets) if i != feature]
    out = {}
    for cell in np.ndindex(mass.shape):
        if mass[cell] == 0:
            continue
        ctx_cell = (*cell[:-1], 0)
        ctx = tuple(alph[k] for alph, k in zip(rest, cell[:-1]))
        den = 1 - r + r * Fraction(ctx_ph[ctx_cell], ctx_mass[ctx_cell])
        if den == 0:
            raise UnreachableEvidenceError(f"unreachable evidence at context {ctx}")
        ratio = (1 - r + r * Fraction(at_ph[cell], mass[cell])) / den
        out[(ctx, joint.y_values[cell[-1]])] = ratio
    return out


def out_of_support_placeholders(joint: DiscreteJoint) -> tuple[int, ...]:
    """One placeholder per feature guaranteed outside its alphabet."""
    return tuple(max(alph) + 1 for alph in joint.alphabets)


def verify_out_of_support(joint: DiscreteJoint, q: Fraction) -> int:
    """Check the induced conditional equals the marginal for every pattern.

    Uses out-of-support placeholders and requires exact equality. Returns
    the number of (pattern, evidence, label) comparisons made: every label
    of every observed-value tuple with positive probability.

    All 2**d patterns are checked in one contraction over an extended
    grid: axis i runs over feature i's alphabet and then its placeholder,
    so a pattern is the block whose masked axes sit at the placeholder
    index. The marginal table gets one extra index per axis holding that
    axis's total, which is the marginal with the feature masked.
    """
    placeholders = out_of_support_placeholders(joint)
    table, qn, qd = _numeric_table(joint, q)
    evidence = [(*alph, ph) for alph, ph in zip(joint.alphabets, placeholders)]
    induced = _induced_numerators(table, joint.alphabets, placeholders, evidence, qn, qd)
    marg = table
    for axis in range(joint.d):
        marg = np.concatenate([marg, marg.sum(axis=axis, keepdims=True)], axis=axis)
    induced_total = induced.sum(axis=-1, keepdims=True)
    marg_total = marg.sum(axis=-1, keepdims=True)
    wrong = induced * marg_total != marg * induced_total
    reachable = marg_total > 0
    wrong = reachable & (wrong | (induced_total == 0))
    if wrong.any():
        # Report what a pattern-by-pattern check meets first: the first
        # failing pattern in itertools.product order (its bits read as a
        # binary number), then its first failing cell in C order.
        failing = np.argwhere(wrong)
        masked = failing[:, :-1] == [len(alph) for alph in joint.alphabets]
        first = np.argmin(masked @ (1 << np.arange(joint.d)[::-1]))
        *cell, j = failing[first]
        bits = tuple(int(b) for b in masked[first])
        shown = tuple(values[k] for values, k in zip(evidence, cell))
        got, want = induced[tuple(cell)], marg[tuple(cell)]
        if got.sum() == 0:
            raise UnreachableEvidenceError(f"unreachable evidence {shown} at pattern {bits}")
        got = Fraction(int(got[j]), int(got.sum()))
        want = Fraction(int(want[j]), int(want.sum()))
        raise ValueError(
            f"induced != marginal at pattern {bits}, evidence {shown}, "
            f"y={joint.y_values[j]}: {got} vs {want}"
        )
    return int(np.count_nonzero(reachable)) * len(joint.y_values)


def tv_distance(p: Mapping[int, Fraction], q: Mapping[int, Fraction]) -> float:
    """Total-variation distance, summed exactly and returned as a float."""
    keys = set(p) | set(q)
    return float(sum(abs(p.get(k, 0) - q.get(k, 0)) for k in keys) / 2)


def random_discrete_joint(
    rng: np.random.Generator,
    d_max: int = 3,
    alphabet_max: int = 4,
    y_max: int = 3,
    zero_fraction: float = 0.2,
) -> DiscreteJoint:
    """Random small joint with integer-weight (hence rational) probabilities."""
    d = int(rng.integers(1, d_max + 1))
    alphabets = tuple(
        tuple(range(1, int(rng.integers(2, alphabet_max + 1)) + 1)) for _ in range(d)
    )
    y_values = tuple(range(int(rng.integers(2, y_max + 1))))
    shape = (*(len(alph) for alph in alphabets), len(y_values))
    # The draws fill the table in C order: y varies fastest, then x_d, ...
    weights = rng.integers(1, 10, size=shape)
    weights[rng.random(shape) < zero_fraction] = 0
    if weights.sum() == 0:
        weights.flat[int(rng.integers(weights.size))] = 1
    return DiscreteJoint(alphabets, y_values, weights.astype(object), int(weights.sum()))
