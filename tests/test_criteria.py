import itertools
import operator
import random

import pytest

from zerosum import (
    Criterion,
    GroupSpec,
    Sequence,
    has_zero_sum_of_length,
    lacks,
    parse_sequence,
    shift,
    sum_of,
    verify_shift_lemma,
    witness,
)
from zerosum import _bits, criteria
from zerosum.criteria import _knapsack_stages, _stepper
from conftest import ORACLE_GROUPS_16, grow_lacking, oracle_lacks, random_sequence, subset_reach

ORACLE_GROUPS = [GroupSpec(2, 2), GroupSpec(1, 5), GroupSpec(2, 4), GroupSpec(3, 3), GroupSpec(1, 12)]


def _unpack(packed: int, size: int, rows: int) -> list[int]:
    """The rows of a packed table; nothing may lie above row rows-1."""
    assert packed >> (rows * size) == 0
    return [(packed >> (l * size)) & ((1 << size) - 1) for l in range(rows)]


def _reach_rows(reach: set, n2: int, rows: int) -> list[int]:
    """Bitmask of sums per length 0..rows-1 from (length, a, b) triples."""
    out = [0] * rows
    for l, a, b in reach:
        if l < rows:
            out[l] |= 1 << (a * n2 + b)
    return out


def _negate(mask: int, neg) -> int:
    """The set of -x for x in mask: bit i moves to bit neg[i]."""
    return sum(1 << neg[i] for i in range(len(neg)) if (mask >> i) & 1)


def _add_term(reach: set, e, n1: int, n2: int) -> set:
    return reach | {(l + 1, (a + e.a) % n1, (b + e.b) % n2) for l, a, b in reach}


@pytest.mark.parametrize("n1,n2", [(1, 1), *ORACLE_GROUPS_16, (1, 36)])
def test_packed_rows_match_subset_reach(n1, n2):
    """Every stepper state and knapsack stage unpacks to the brute-force
    (length, sum) sets of its prefix, while the repeated-row table grows.
    Both tables hold negated sums and blocked sets hold elements, so the
    brute-force sets go through neg_table before those comparisons.  eta's
    row l holds the lengths at most l, and the mod-k rows the empty sum."""
    group = GroupSpec(n1, n2)
    size, exp = group.order, group.exponent
    neg = _bits.neg_table(group)
    rng = random.Random(97 * n1 + n2)
    terms = [group.element_at(rng.randrange(size)) for _ in range(2 * exp + 3)]
    _bits._ROW_PARTS.pop(group, None)
    steppers = {c: _stepper(group, c) for c in Criterion}
    states = {c: start for c, (start, _, _) in steppers.items()}
    rows_at_start = _bits._ROW_PARTS[group][0]
    blocks = {  # does a forbidden length end one term after length l?
        Criterion.ANY: lambda l: True,
        Criterion.SHORT: lambda l: l + 1 <= exp,
        Criterion.EXACT_EXP: lambda l: l + 1 == exp,
        Criterion.EXP_MULTIPLE: lambda l: (l + 1) % exp == 0,
    }

    reach = {(0, 0, 0)}
    for k in range(len(terms) + 1):
        if k:
            e = terms[k - 1]
            reach = _add_term(reach, e, n1, n2)
            states = {c: steppers[c][1](states[c], e.index) for c in Criterion}
        by_len = _reach_rows(reach, n2, k + 1)
        neg_by_len = [_negate(x, neg) for x in by_len]
        for c in Criterion:
            blocked = 0
            for l, x in enumerate(neg_by_len):
                if blocks[c](l):
                    blocked |= x
            assert states[c] >> steppers[c][2] == blocked, (k, c)
        # ANY's one row: every sum, the empty one included (lengths mod 1,
        # as EXP_MULTIPLE's mod exp).
        every = 0
        for x in neg_by_len:
            every |= x
        assert _unpack(states[Criterion.ANY], size, 1) == [every]
        exact = (neg_by_len + [0] * exp)[:exp]
        assert _unpack(states[Criterion.EXACT_EXP], size, exp) == exact
        at_most = list(itertools.accumulate(exact, operator.or_))
        assert _unpack(states[Criterion.SHORT], size, exp) == at_most
        mod = [0] * exp
        for l, x in enumerate(neg_by_len):
            mod[l % exp] |= x
        assert _unpack(states[Criterion.EXP_MULTIPLE], size, exp) == mod
        # The last knapsack stage of each prefix; limit k grows the table.
        seq = Sequence.from_items(group, [(t, 1) for t in terms[:k]])
        for limit in {0, min(exp, k), k}:
            *_, last = _knapsack_stages(seq, limit)
            assert _unpack(last, size, limit + 1) == neg_by_len[:limit + 1], (k, limit)
    assert _bits._ROW_PARTS[group][0] > rows_at_start

    # Every stage of the whole sequence: support elements in index order.
    stages = list(_knapsack_stages(seq, len(seq)))
    items = list(seq.items())
    assert len(stages) == len(items) + 1
    stage_reach = {(0, 0, 0)}

    def neg_rows(reach):
        return [_negate(x, neg) for x in _reach_rows(reach, n2, len(seq) + 1)]

    assert _unpack(stages[0], size, len(seq) + 1) == neg_rows(stage_reach)
    for (e, mult), stage in zip(items, stages[1:]):
        for _ in range(mult):
            stage_reach = _add_term(stage_reach, e, n1, n2)
        assert _unpack(stage, size, len(seq) + 1) == neg_rows(stage_reach)

    # witness: None exactly when no forbidden length is reachable at sum 0,
    # otherwise a zero-sum sub-multiset of the least reachable such length.
    for c in Criterion:
        lengths = c.forbidden_lengths(exp, len(seq))
        least = next((l for l in lengths if (l, 0, 0) in reach), None)
        w = witness(seq, c)
        if least is None:
            assert w is None
        else:
            assert all(a >= b for a, b in zip(seq.counts, w.counts))
            assert sum_of(w) == group.zero and len(w) == least


@pytest.mark.parametrize("n1,n2", [(1, 1), *ORACLE_GROUPS_16, (1, 36)])
def test_exact_rows_up_to_the_cap_match_subset_reach(n1, n2):
    """EXACT_EXP's stepper with rows up to R, the depth cap of the s walk
    (formula + 2): row l, for every l <= R, holds the negated sums of
    length exactly l, so bit 0 is a zero-sum of that length, and nothing
    lies above row R; the blocked set reads row exp-1 as the stepper with
    rows up to exp-1 does.  The runs go past R terms, and half of them take
    the terms the blocked set leaves free, as the s walk does."""
    group = GroupSpec(n1, n2)
    size, exp = group.order, group.exponent
    neg = _bits.neg_table(group)
    last = criteria.formula_value(group, Criterion.EXACT_EXP) + 2
    (r0, push_rows, top), (b0, push_base, _) = (
        _stepper(group, Criterion.EXACT_EXP, last), _stepper(group, Criterion.EXACT_EXP))
    rng = random.Random(89 * n1 + n2)
    for run in range(6):
        state, base, reach = r0, b0, {(0, 0, 0)}
        for _ in range(last + 2):
            free = [e for e in range(size) if not (base >> (top + e)) & 1]
            e = rng.choice(free) if run % 2 and free else rng.randrange(size)
            state, base = push_rows(state, e), push_base(base, e)
            reach = _add_term(reach, group.element_at(e), n1, n2)
            rows = _unpack(state, size, last + 1)
            assert rows == [_negate(x, neg) for x in _reach_rows(reach, n2, last + 1)]
            assert [row & 1 for row in rows] == [(l, 0, 0) in reach for l in range(last + 1)]
            assert (state >> top) & ((1 << size) - 1) == base >> top


@pytest.mark.parametrize("n1,n2", [(1, 1), *ORACLE_GROUPS_16, (1, 36)])
def test_paired_push_matches_the_single_pushes(n1, n2):
    """The one walk's push (EXACT_EXP with rows up to the cap) stands for
    both pairs, s with s_exp_mult and, below 0^(exp-1), eta with D: term by
    term its blocked set is the outer single push's, and a clear bit 0 in
    rows exp, 2*exp, ... says that the inner single push has blocked no
    term yet.  Half the runs take the terms inner leaves free where it can,
    so the inner criterion stays lacking long."""
    group = GroupSpec(n1, n2)
    size, exp = group.order, group.exponent
    low = (1 << size) - 1
    last = criteria.formula_value(group, Criterion.EXACT_EXP) + 2
    r0, push, top = _stepper(group, Criterion.EXACT_EXP, last)
    zeros = sum(1 << (l * size) for l in range(exp, last + 1, exp))
    padded = r0
    for _ in range(exp - 1):
        padded = push(padded, group.zero.index)
    pairs = [(Criterion.EXACT_EXP, Criterion.EXP_MULTIPLE, r0, last),
             (Criterion.SHORT, Criterion.ANY, padded, last - (exp - 1))]
    rng = random.Random(89 * n1 + n2)
    for outer, inner, start, terms in pairs:
        (o0, push_outer, o_top), (i0, push_inner, i_top) = (
            _stepper(group, outer), _stepper(group, inner))
        for run in range(6):
            state, o, i, alive = start, o0, i0, True
            for _ in range(terms):
                free = [e for e in range(size) if not (i >> (i_top + e)) & 1]
                e = rng.choice(free) if run % 2 and free else rng.randrange(size)
                alive = alive and not (i >> (i_top + e)) & 1
                state, o, i = push(state, e), push_outer(o, e), push_inner(i, e)
                assert (state >> top) & low == o >> o_top, (outer, e)
                assert (not state & zeros) == alive, (inner, e)


def test_lacks_examples():
    g = GroupSpec(2, 2)
    s = parse_sequence(g, "(1,0) (0,1) (1,1)")
    assert lacks(s, Criterion.SHORT)
    assert not lacks(s, Criterion.ANY)

    c5 = GroupSpec.cyclic(5)
    assert lacks(parse_sequence(c5, "(0,1)^4"), Criterion.ANY)

    c3 = GroupSpec.cyclic(3)
    assert lacks(parse_sequence(c3, "(0,0)^2 (0,1)^2"), Criterion.EXACT_EXP)

    # a zero term settles ANY and SHORT immediately
    g24 = GroupSpec(2, 4)
    with_zero = parse_sequence(g24, "(0,0) (1,1)")
    assert not lacks(with_zero, Criterion.ANY)
    assert not lacks(with_zero, Criterion.SHORT)


def test_lacks_against_oracle_randomized():
    rng = random.Random(29)
    for _ in range(400):
        g = rng.choice(ORACLE_GROUPS)
        s = random_sequence(rng, g, 10)
        for crit in Criterion:
            assert lacks(s, crit) == oracle_lacks(s, crit), (s, crit)


def test_heredity_under_deletion():
    rng = random.Random(31)
    for _ in range(60):
        g = rng.choice(ORACLE_GROUPS)
        for crit in Criterion:
            s = grow_lacking(rng, g, crit, 8)
            while len(s) > 0:
                assert lacks(s, crit)
                e = g.element_at(rng.choice([i for i, c in enumerate(s.counts) if c]))
                s = s.with_term(e, -1)
            assert lacks(s, crit)


def test_shift_invariance_of_exp_length_criteria():
    rng = random.Random(37)
    for _ in range(80):
        g = rng.choice(ORACLE_GROUPS)
        s = random_sequence(rng, g, 9)
        for h in g.elements():
            moved = shift(h, s)
            assert lacks(s, Criterion.EXACT_EXP) == lacks(moved, Criterion.EXACT_EXP)
            assert lacks(s, Criterion.EXP_MULTIPLE) == lacks(moved, Criterion.EXP_MULTIPLE)


def test_forbidden_set_containment():
    # ANY forbids the most, then SHORT, then each exp-length criterion
    rng = random.Random(41)
    for _ in range(150):
        g = rng.choice(ORACLE_GROUPS)
        s = random_sequence(rng, g, 9)
        if lacks(s, Criterion.ANY):
            assert lacks(s, Criterion.SHORT)
        if lacks(s, Criterion.SHORT):
            assert lacks(s, Criterion.EXACT_EXP)
            assert lacks(s, Criterion.EXP_MULTIPLE)


def test_witness_examples():
    c3 = GroupSpec.cyclic(3)
    w = witness(parse_sequence(c3, "(0,1)^3"), Criterion.ANY)
    assert w == parse_sequence(c3, "(0,1)^3")

    g = GroupSpec(2, 4)
    w = witness(parse_sequence(g, "(1,0)^2 (0,1)"), Criterion.SHORT)
    assert w == parse_sequence(g, "(1,0)^2")

    assert witness(parse_sequence(g, "(1,0) (0,1)"), Criterion.ANY) is None


def _full_table_witness(seq, criterion):
    """The reference backtrack: the whole table with every stage kept, and
    a walk back over every support element."""
    lengths = criterion.forbidden_lengths(seq.group.exponent, len(seq))
    stages = list(_knapsack_stages(seq, lengths[-1] if lengths else 0))
    size = seq.group.order
    target = next((l for l in lengths if (stages[-1] >> (l * size)) & 1), None)
    if target is None:
        return None

    add = _bits.add_table(seq.group)
    support = [i for i, mult in enumerate(seq.counts) if mult]
    need_l, need_idx = target, 0
    taken = [0] * size
    for j in range(len(support) - 1, -1, -1):
        i = support[j]
        prev = stages[j]
        back = need_idx
        for c in range(min(seq.counts[i], need_l) + 1):
            if (prev >> ((need_l - c) * size + back)) & 1:
                taken[i] = c
                need_l -= c
                need_idx = back
                break
            back = add[back][i]
        else:
            raise RuntimeError("witness reconstruction lost the trail")
    if need_l != 0 or need_idx != 0:
        raise RuntimeError("witness reconstruction did not reach the empty state")
    return Sequence(seq.group, tuple(taken))


def test_witness_matches_the_full_table_backtrack():
    """witness() stops at the first stage in which the least forbidden length
    sums to zero; it must return exactly what the full table gives.  The
    random part must take both exits: a stop before the last support
    element, and a witness read off the last stage."""
    stopped_early = read_last = 0
    for n1, n2 in [*ORACLE_GROUPS_16, (1, 36), (2, 18), (4, 8)]:
        group = GroupSpec(n1, n2)
        exp = group.exponent
        rng = random.Random(61 * n1 + n2)
        for _ in range(60):
            seq = random_sequence(rng, group, exp + 8)
            n_support = sum(1 for c in seq.counts if c)
            stages = list(_knapsack_stages(seq, len(seq)))
            for c in Criterion:
                expected = _full_table_witness(seq, c)
                assert witness(seq, c) == expected, (seq, c)
                lengths = c.forbidden_lengths(exp, len(seq))
                if expected is not None:
                    first = lengths[0] * group.order
                    stop = next((k for k, st in enumerate(stages) if (st >> first) & 1), None)
                    if stop is not None and stop < n_support:
                        stopped_early += 1
                    elif stop is None:
                        read_last += 1
    assert stopped_early > 100 and read_last > 100, (stopped_early, read_last)

    # Edge cases: the empty sequence, EXACT_EXP below exp terms, the zero
    # element alone as the witness, and the trivial group.
    for n1, n2 in [(1, 1), (1, 5), (2, 4), (3, 3), (1, 36)]:
        group = GroupSpec(n1, n2)
        exp = group.exponent
        zero_alone = Sequence(group, (1,) + (0,) * (group.order - 1))
        empty = Sequence(group, (0,) * group.order)
        for c in Criterion:
            assert witness(empty, c) is None and _full_table_witness(empty, c) is None
        if exp > 1:
            short = Sequence(group, (exp - 1,) + (0,) * (group.order - 1))
            assert witness(short, Criterion.EXACT_EXP) is None
            assert _full_table_witness(short, Criterion.EXACT_EXP) is None
        rng = random.Random(67 * n1 + n2)
        for _ in range(20):
            seq = random_sequence(rng, group, exp + 4).with_term(group.zero)
            for c in (Criterion.ANY, Criterion.SHORT):
                assert witness(seq, c) == zero_alone == _full_table_witness(seq, c), (seq, c)
    trivial = GroupSpec(1, 1)
    for k in range(1, 4):
        seq = Sequence(trivial, (k,))
        for c in Criterion:
            assert witness(seq, c) == Sequence(trivial, (1,)) == _full_table_witness(seq, c)


def test_witness_self_validates():
    rng = random.Random(43)
    checked = 0
    for _ in range(2500):
        g = rng.choice(ORACLE_GROUPS)
        s = random_sequence(rng, g, 10)
        for crit in Criterion:
            w = witness(s, crit)
            if w is None:
                assert lacks(s, crit)
                continue
            checked += 1
            assert all(a >= b for a, b in zip(s.counts, w.counts))
            assert sum_of(w) == g.zero
            exp = g.exponent
            n = len(w)
            if crit is Criterion.ANY:
                assert n >= 1
            elif crit is Criterion.SHORT:
                assert 1 <= n <= exp
            elif crit is Criterion.EXACT_EXP:
                assert n == exp
            else:
                assert n > 0 and n % exp == 0
    assert checked > 1000


def test_has_zero_sum_of_length():
    c3 = GroupSpec.cyclic(3)
    s = parse_sequence(c3, "(0,1)^3 (0,2)^3")
    assert has_zero_sum_of_length(s, 3)
    assert has_zero_sum_of_length(s, 6)
    assert has_zero_sum_of_length(s, 0)
    assert not has_zero_sum_of_length(s, 7)
    with pytest.raises(ValueError):
        has_zero_sum_of_length(s, -1)


@pytest.mark.parametrize("n1,n2", [(1, 1), *ORACLE_GROUPS_16])
def test_has_zero_sum_of_length_against_subset_reach(n1, n2):
    """Every length from 0 to len + 1, random sequences of up to 10 terms."""
    group = GroupSpec(n1, n2)
    rng = random.Random(53 * n1 + n2)
    for _ in range(40):
        seq = random_sequence(rng, group, 10)
        reach = subset_reach(seq)
        for length in range(len(seq) + 2):
            assert has_zero_sum_of_length(seq, length) == ((length, 0, 0) in reach), (seq, length)


def test_shift_lemma_case1():
    rng = random.Random(47)
    for _ in range(200):
        g = rng.choice(ORACLE_GROUPS)
        s = random_sequence(rng, g, 10)
        h = rng.choice(list(g.elements()))
        n = g.exponent * rng.randint(1, 2)
        assert verify_shift_lemma(s, h, 1, n=n)
    with pytest.raises(ValueError):
        verify_shift_lemma(s, h, 1, n=g.exponent + 1 if g.exponent > 1 else None)


def test_shift_lemma_case2():
    g = GroupSpec(2, 2)
    s = parse_sequence(g, "(1,0) (0,1) (1,1)")
    assert verify_shift_lemma(s, g.element(1, 0), 2)
    with pytest.raises(ValueError):
        verify_shift_lemma(parse_sequence(g, "(1,0)^2"), g.element(1, 0), 2)


def test_shift_lemma_case2_single_call_by_heredity():
    # Case 2 asks whether g^v (g+S) lacks length-exp zero-sums for every
    # v < exp; verify_shift_lemma asks only at v = exp - 1.  Each g^v (g+S) is
    # a subsequence of g^(exp-1) (g+S), so the two agree on every S and g.
    # Under the case's hypothesis both are always True, so the identity is
    # checked here on unconstrained S, where both outcomes occur.
    rng = random.Random(61)
    outcomes = set()
    for n1, n2 in ORACLE_GROUPS_16:
        grp = GroupSpec(n1, n2)
        exp = grp.exponent
        for _ in range(25):
            s = random_sequence(rng, grp, exp)
            h = rng.choice(list(grp.elements()))
            moved = shift(h, s)
            every_v = all(lacks(moved.with_term(h, v), Criterion.EXACT_EXP) for v in range(exp))
            one_call = lacks(moved.with_term(h, exp - 1), Criterion.EXACT_EXP)
            assert every_v == one_call, (s, h)
            if lacks(s, Criterion.SHORT):
                assert verify_shift_lemma(s, h, 2) == every_v
            outcomes.add(every_v)
    assert outcomes == {True, False}


def test_shift_lemma_case2_decides_on_the_longest_power(monkeypatch):
    # On inputs that meet the hypothesis case 2 is always True, so only the
    # argument of its lacks() call shows an off-by-one in exp - 1.
    calls = []
    real = criteria.lacks
    monkeypatch.setattr(criteria, "lacks", lambda seq, crit: calls.append((seq, crit)) or real(seq, crit))
    g = GroupSpec(2, 4)
    s = parse_sequence(g, "(1,0) (0,1)")
    h = g.element(1, 1)
    assert verify_shift_lemma(s, h, 2)
    assert calls[-1] == (shift(h, s).with_term(h, g.exponent - 1), Criterion.EXACT_EXP)


def test_shift_lemma_case3():
    c3 = GroupSpec.cyclic(3)
    s = parse_sequence(c3, "(0,0)^2 (0,1)^2")
    assert verify_shift_lemma(s, c3.zero, 3)
    with pytest.raises(ValueError):
        verify_shift_lemma(parse_sequence(c3, "(0,1)^2"), c3.zero, 3)


def test_shift_lemma_unknown_case():
    g = GroupSpec(2, 2)
    with pytest.raises(ValueError):
        verify_shift_lemma(Sequence(g, (0,) * g.order), g.zero, 4)
