"""Exact-oracle tests: every value is checked in rational arithmetic."""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knockout import discrete
from knockout.discrete import (
    DiscreteJoint,
    UnreachableEvidenceError,
    _induced_numerators,
    _numeric_table,
    induced_conditional_discrete,
    insupport_deviation,
    marginal_discrete,
    out_of_support_placeholders,
    random_discrete_joint,
    verify_out_of_support,
)
from knockout.verify import check_out_of_support, counterexample_joint


def cells(joint):
    """((x, y), p) for every cell of the joint's table, p as a Fraction."""
    for index, n in np.ndenumerate(joint.numerators):
        x = tuple(alph[k] for alph, k in zip(joint.alphabets, index[:-1]))
        yield (x, joint.y_values[index[-1]]), Fraction(n, joint.denominator)


def make_evidence(pattern, x, placeholders):
    """Augmented-input evidence: placeholder where masked, x elsewhere."""
    return tuple(placeholders[i] if int(b) else x[i] for i, b in enumerate(pattern))


def reachable_evidence(joint, pattern, placeholders):
    """(observed values, full evidence) pairs with positive probability."""
    obs_idx = [i for i, b in enumerate(pattern) if int(b) == 0]
    seen = set()
    out = []
    for (x, _), p in cells(joint):
        if p == 0:
            continue
        key = tuple(x[i] for i in obs_idx)
        if key in seen:
            continue
        seen.add(key)
        out.append((key, make_evidence(pattern, x, placeholders)))
    out.sort()
    return out


def reference_numerators(joint, q, placeholders, evidence):
    """Per-evidence loop over the table: sum of p * prod_i w_i for each label.

    w_i = qn * [e_i = placeholder_i] + (qd - qn) * [x_i = e_i] for q = qn / qd,
    in Fractions.
    """
    q = Fraction(q)
    qn, qd = q.numerator, q.denominator
    num = {y: Fraction(0) for y in joint.y_values}
    for (x, y), p in cells(joint):
        w = 1
        for i in range(joint.d):
            w *= (qn if evidence[i] == placeholders[i] else 0) + (
                (qd - qn) if x[i] == evidence[i] else 0
            )
        num[y] += w * p
    return num


def reference_verify_out_of_support(joint, q):
    """The per-evidence check: normalize the reference numerators of every
    reachable evidence and compare them with the marginal, label by label."""
    placeholders = out_of_support_placeholders(joint)
    checks = 0
    for bits in itertools.product((0, 1), repeat=joint.d):
        marg = marginal_discrete(joint, bits)
        for obs_values, evidence in reachable_evidence(joint, bits, placeholders):
            num = reference_numerators(joint, q, placeholders, evidence)
            total = sum(num.values())
            if total == 0:
                raise UnreachableEvidenceError(f"unreachable evidence {evidence}")
            for y in joint.y_values:
                if num[y] / total != marg[obs_values][y]:
                    raise ValueError(f"induced != marginal at pattern {bits}, evidence {evidence}")
                checks += 1
    return checks


def per_pattern_verify_out_of_support(joint, q):
    """The check one pattern at a time: one contraction over the pattern's
    evidence grid (its placeholder where masked, the alphabet elsewhere),
    compared with the marginal summed over the masked axes."""
    placeholders = discrete.out_of_support_placeholders(joint)
    table, qn, qd = _numeric_table(joint, q)
    checks = 0
    for bits in itertools.product((0, 1), repeat=joint.d):
        evidence = [
            (ph,) if b else alph for b, ph, alph in zip(bits, placeholders, joint.alphabets)
        ]
        induced = _induced_numerators(table, joint.alphabets, placeholders, evidence, qn, qd)
        marg = table.sum(axis=tuple(i for i, b in enumerate(bits) if b), keepdims=True)
        induced_total = induced.sum(axis=-1, keepdims=True)
        marg_total = marg.sum(axis=-1, keepdims=True)
        wrong = induced * marg_total != marg * induced_total
        reachable = marg_total > 0
        wrong = reachable & (wrong | (induced_total == 0))
        if wrong.any():
            *cell, j = np.argwhere(wrong)[0]
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
        checks += int(np.count_nonzero(reachable)) * len(joint.y_values)
    return checks


def outcome(check, joint, q):
    """A check's count, or the type and message of what it raised."""
    try:
        return check(joint, q)
    except ValueError as exc:
        return type(exc), str(exc)


def test_counterexample_exact_value():
    joint = counterexample_joint()
    induced = induced_conditional_discrete(joint, Fraction(1, 2), (1,), (1,))
    assert induced[0] == Fraction(6, 13)
    assert induced[1] == Fraction(7, 13)
    assert induced[0] != Fraction(3, 10)  # not the prior
    assert induced[0] != 1  # not the conditional


def test_counterexample_out_of_support_recovers_prior():
    joint = counterexample_joint()
    induced = induced_conditional_discrete(joint, Fraction(1, 2), (3,), (3,))
    assert induced[0] == Fraction(3, 10)
    assert induced[1] == Fraction(7, 10)


def test_no_knockout_recovers_conditional():
    joint = counterexample_joint()
    induced = induced_conditional_discrete(joint, Fraction(0), (3,), (1,))
    assert induced[0] == Fraction(1)


def test_marginal_extremes():
    joint = random_discrete_joint(np.random.default_rng(0), d_max=2)
    d = joint.d
    prior = marginal_discrete(joint, (1,) * d)[()]
    total = {y: Fraction(0) for y in joint.y_values}
    mass = {}
    for (x, y), p in cells(joint):
        total[y] += p
        mass.setdefault(x, {})[y] = p
    for y in joint.y_values:
        assert prior[y] == total[y]

    full = marginal_discrete(joint, (0,) * d)
    for x, row in mass.items():
        denom = sum(row.values())
        if denom == 0:
            assert x not in full
            continue
        for y in joint.y_values:
            assert full[x][y] == row[y] / denom


def test_marginal_matches_brute_force_two_features():
    rng = np.random.default_rng(1)
    for _ in range(20):
        joint = random_discrete_joint(rng, d_max=2)
        if joint.d != 2:
            continue
        marg = marginal_discrete(joint, (1, 0))
        p = dict(cells(joint))
        # Independent brute force: sum the full table over feature 0.
        for x2 in joint.alphabets[1]:
            num = {y: Fraction(0) for y in joint.y_values}
            for x1 in joint.alphabets[0]:
                for y in joint.y_values:
                    num[y] += p[(x1, x2), y]
            denom = sum(num.values())
            if denom == 0:
                assert (x2,) not in marg
                continue
            for y in joint.y_values:
                assert marg[(x2,)][y] == num[y] / denom


def test_out_of_support_theorem_small_batch():
    rng = np.random.default_rng(2)
    for _ in range(20):
        joint = random_discrete_joint(rng)
        q = Fraction(int(rng.integers(1, 10)), 10)
        assert verify_out_of_support(joint, q) > 0


def test_insupport_deviation_counterexample_ratio():
    joint = counterexample_joint()
    ratio = insupport_deviation(joint, Fraction(1, 2), feature=0, placeholder=1)
    assert ratio[((), 0)] == Fraction(6, 13) / Fraction(3, 10)  # 20/13
    assert ratio[((), 1)] == Fraction(7, 13) / Fraction(7, 10)


def test_insupport_deviation_conditional_independence_gives_one():
    # Y independent of X: every ratio must be exactly 1.
    joint = DiscreteJoint(((1, 2),), (0, 1), np.array([[3, 3], [7, 7]], dtype=object), 20)
    ratio = insupport_deviation(joint, Fraction(1, 3), feature=0, placeholder=1)
    assert all(v == 1 for v in ratio.values())


def test_insupport_product_identity_random_joints():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(40):
        joint = random_discrete_joint(rng)
        q = Fraction(int(rng.integers(1, 10)), 10)
        feature = int(rng.integers(joint.d))
        placeholder = joint.alphabets[feature][0]
        ratios = insupport_deviation(joint, q, feature, placeholder)
        others = out_of_support_placeholders(joint)
        placeholders = tuple(
            placeholder if i == feature else others[i] for i in range(joint.d)
        )
        pattern = tuple(1 if i == feature else 0 for i in range(joint.d))
        marg = marginal_discrete(joint, pattern)
        for ctx, evidence_ctx in _contexts(joint, feature):
            evidence = tuple(
                placeholder if i == feature else evidence_ctx[i] for i in range(joint.d)
            )
            try:
                induced = induced_conditional_discrete(joint, q, placeholders, evidence)
            except UnreachableEvidenceError:
                continue
            for y in joint.y_values:
                expected = marg[ctx][y] * ratios.get((ctx, y), Fraction(0))
                if marg[ctx][y] == 0:
                    assert induced[y] == 0
                else:
                    assert induced[y] == expected
                checked += 1
    assert checked > 50


def _contexts(joint, feature):
    rest_idx = [i for i in range(joint.d) if i != feature]
    seen = set()
    out = []
    for (x, _), p in cells(joint):
        if p == 0:
            continue
        ctx = tuple(x[i] for i in rest_idx)
        if ctx in seen:
            continue
        seen.add(ctx)
        full = list(x)
        out.append((ctx, tuple(full)))
    return out


def test_unreachable_evidence_raises():
    joint = counterexample_joint()
    with pytest.raises(UnreachableEvidenceError, match="unreachable"):
        # Evidence value 2 for Y... feature can't co-occur with placeholder 3 and q=0.
        induced_conditional_discrete(joint, Fraction(0), (3,), (3,))


def test_make_evidence_and_reachability():
    joint = counterexample_joint()
    placeholders = out_of_support_placeholders(joint)
    assert make_evidence((1,), (1,), placeholders) == placeholders
    assert make_evidence((0,), (2,), placeholders) == (2,)
    pairs = reachable_evidence(joint, (0,), placeholders)
    assert ((1,), (1,)) in pairs and ((2,), (2,)) in pairs


def test_joint_validation_rejects_bad_tables():
    # Every bad table is rejected when the joint is built.
    def table(*rows):
        return np.array(rows, dtype=object)

    with pytest.raises(ValueError, match=r"shape \(3, 1\), the alphabets need \(2, 1\)"):
        DiscreteJoint(((1, 2),), (0,), table([1], [1], [0]), 2)
    with pytest.raises(ValueError, match="sum to 1, not the denominator 2"):
        DiscreteJoint(((1, 2),), (0,), table([1], [0]), 2)
    with pytest.raises(ValueError, match=r"index \(1, 0\) must be a non-negative int, got -1"):
        DiscreteJoint(((1, 2),), (0,), table([3], [-1]), 2)
    # A float is rejected by name, not taken as an approximation.
    with pytest.raises(ValueError, match=r"index \(1, 0\) must be a non-negative int, got 0\.5"):
        DiscreteJoint(((1, 2),), (0,), table([1], [0.5]), 2)
    with pytest.raises(ValueError, match=r"Python ints \(dtype=object\), got float64"):
        DiscreteJoint(((1, 2),), (0,), np.array([[0.5], [0.5]]), 1)
    # A float q is rejected rather than read as its exact binary fraction.
    joint = counterexample_joint()
    with pytest.raises(ValueError, match=r"q must be an int or a Fraction, got 0\.37"):
        verify_out_of_support(joint, 0.37)
    with pytest.raises(ValueError, match=r"q must be an int or a Fraction, got 0\.5"):
        induced_conditional_discrete(joint, 0.5, (3,), (3,))
    with pytest.raises(ValueError, match=r"q must be an int or a Fraction, got 0\.5"):
        insupport_deviation(joint, 0.5, feature=0, placeholder=1)
    with pytest.raises(ValueError, match=r"q must be in \[0, 1\], got 3/2"):
        verify_out_of_support(joint, Fraction(3, 2))


def test_joint_table_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        counterexample_joint().numerators[0, 0] = 99
    # The joint holds its own copy: the caller's array stays writable and
    # a later edit of it does not reach the checked table.
    table = np.array([[1], [1]], dtype=object)
    joint = DiscreteJoint(((1, 2),), (0,), table, 2)
    table[0, 0] = 99
    assert joint.numerators[0, 0] == 1


@st.composite
def knockout_cases(draw):
    """A random joint, q, placeholders and an evidence grid for the kernel."""
    joint = random_discrete_joint(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    # 0 and 1 are the edges; the large denominator forces Python ints.
    k = draw(st.integers(1, 19))
    q = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(k, 20), Fraction(k, 2**61 - 1)]))
    placeholders = tuple(
        draw(st.sampled_from([*alph, max(alph) + 1])) for alph in joint.alphabets
    )
    # Every value of the alphabet, the placeholder and one value neither shows.
    evidence = [
        sorted({*alph, ph, max(alph) + 7}) for alph, ph in zip(joint.alphabets, placeholders)
    ]
    return joint, q, placeholders, evidence


@settings(max_examples=150, deadline=None)
@given(knockout_cases())
def test_batched_numerators_match_per_evidence_oracle(case):
    joint, q, placeholders, evidence = case
    table, qn, qd = _numeric_table(joint, q)
    batched = _induced_numerators(table, joint.alphabets, placeholders, evidence, qn, qd)
    assert batched.shape == (*(len(v) for v in evidence), len(joint.y_values))
    den = joint.denominator
    for cell in itertools.product(*(range(len(v)) for v in evidence)):
        shown = tuple(v[k] for v, k in zip(evidence, cell))
        expected = reference_numerators(joint, q, placeholders, shown)
        for j, y in enumerate(joint.y_values):
            assert Fraction(int(batched[(*cell, j)]), den) == expected[y]


def test_verify_count_matches_per_evidence_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        joint = random_discrete_joint(rng)
        q = Fraction(int(rng.integers(1, 20)), 20)
        assert verify_out_of_support(joint, q) == reference_verify_out_of_support(joint, q)
    # qd**d * total**2 passes 2**63 here, so the check runs on Python ints.
    joint = random_discrete_joint(rng)
    while joint.d < 3:
        joint = random_discrete_joint(rng)
    q = Fraction(5, 2**31 - 1)
    assert _numeric_table(joint, q)[0].dtype == object
    assert _numeric_table(joint, Fraction(5, 20))[0].dtype == np.int64
    assert verify_out_of_support(joint, q) == reference_verify_out_of_support(joint, q)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 19))
def test_extended_grid_check_matches_per_pattern_oracle(seed, k):
    joint = random_discrete_joint(np.random.default_rng(seed))
    # k/20 keeps int64; a denominator near 2**31 passes the overflow bound
    # at d >= 2, so the check runs on Python ints.
    big = Fraction(k, 2**31 - 1)
    assert _numeric_table(joint, Fraction(k, 20))[0].dtype == np.int64
    assert _numeric_table(joint, big)[0].dtype == (object if joint.d >= 2 else np.int64)
    for q in (Fraction(k, 20), big):
        count = verify_out_of_support(joint, q)
        assert count == per_pattern_verify_out_of_support(joint, q)
        assert count == reference_verify_out_of_support(joint, q)
    # q = 0 and q = 1 leave some evidence unreachable: the same error.
    for q in (Fraction(0), Fraction(1)):
        got = outcome(verify_out_of_support, joint, q)
        assert got[0] is UnreachableEvidenceError
        assert got == outcome(per_pattern_verify_out_of_support, joint, q)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 19), data=st.data())
def test_in_support_placeholders_fail_as_the_per_pattern_oracle(seed, k, data):
    joint = random_discrete_joint(np.random.default_rng(seed))
    placeholders = tuple(data.draw(st.sampled_from([*a, max(a) + 1])) for a in joint.alphabets)
    q = data.draw(st.sampled_from([Fraction(k, 20), Fraction(k, 2**31 - 1)]))
    with mock.patch.object(discrete, "out_of_support_placeholders", lambda j: placeholders):
        got = outcome(verify_out_of_support, joint, q)
        assert got == outcome(per_pattern_verify_out_of_support, joint, q)


@pytest.mark.parametrize(
    "n_joints, seed, equalities",
    [(200, 20240, 13188), (300, 17000, 19355), (300, 17001, 20445), (300, 17002, 21371)],
)
def test_out_of_support_equality_counts_are_pinned(n_joints, seed, equalities):
    result = check_out_of_support(n_joints=n_joints, seed=seed)
    assert result.passed, result.detail
    assert result.detail == f"{n_joints} random joints, {equalities} exact equalities"


def test_in_support_placeholders_fail_the_check(monkeypatch):
    joint = counterexample_joint()
    monkeypatch.setattr(
        discrete, "out_of_support_placeholders", lambda j: tuple(a[0] for a in j.alphabets)
    )
    with pytest.raises(ValueError, match=r"pattern \(0,\), evidence \(1,\), y=0: 6/13 vs 1"):
        verify_out_of_support(joint, Fraction(1, 2))
    rng = np.random.default_rng(8)
    failed = 0
    for _ in range(20):
        joint = random_discrete_joint(rng, d_max=2)
        try:
            verify_out_of_support(joint, Fraction(1, 3))
        except ValueError as exc:
            assert "pattern (" in str(exc) and "evidence (" in str(exc)
            failed += 1
    assert failed > 10


def test_out_of_support_check_rejects_unreachable_evidence():
    # q = 0 never shows a placeholder and q = 1 never shows a true value.
    joint = counterexample_joint()
    with pytest.raises(UnreachableEvidenceError, match=r"evidence \(3,\) at pattern \(1,\)"):
        verify_out_of_support(joint, Fraction(0))
    with pytest.raises(UnreachableEvidenceError, match=r"evidence \(1,\) at pattern \(0,\)"):
        verify_out_of_support(joint, Fraction(1))
