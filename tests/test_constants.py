import random
from functools import partial
from itertools import product

import pytest
from conftest import ORACLE_GROUPS_16, oracle_lacks, random_sequence

from zerosum import (
    Criterion,
    GroupSpec,
    SearchOptions,
    Sequence,
    check_direct_formulas,
    exists_lacking_subsequence,
    formula_value,
    lacks,
    longest_lacking,
    parse_sequence,
)
from zerosum.search import longest_lacking_search


def test_formula_examples():
    assert formula_value(GroupSpec(3, 6), Criterion.ANY) == 8
    assert formula_value(GroupSpec.cyclic(9), Criterion.EXACT_EXP) == 17  # 2n - 1
    assert formula_value(GroupSpec(2, 2), Criterion.SHORT) == 4
    assert formula_value(GroupSpec(2, 4), Criterion.EXP_MULTIPLE) == 8


def _all_extremals(group, crit, options=None):
    """(constant, every extremal sequence) of one search."""
    out = longest_lacking_search(group, crit, options)
    return out.max_length + 1, [Sequence(group, c) for c in out.sequences]


def test_longest_lacking_c2c2_short():
    constant, extremals = _all_extremals(GroupSpec(2, 2), Criterion.SHORT)
    assert constant == 4
    assert extremals == [parse_sequence(GroupSpec(2, 2), "(1,0) (0,1) (1,1)")]


def test_longest_lacking_c2c2_exact():
    constant, extremals = _all_extremals(GroupSpec(2, 2), Criterion.EXACT_EXP)
    assert constant == 5
    assert extremals == [parse_sequence(GroupSpec(2, 2), "(0,0) (1,0) (0,1) (1,1)")]


def test_longest_lacking_cyclic5_any():
    c5 = GroupSpec.cyclic(5)
    constant, extremals = _all_extremals(c5, Criterion.ANY)
    assert constant == 5
    expected = {parse_sequence(c5, f"(0,{e})^4") for e in range(1, 5)}
    assert set(extremals) == expected


def test_check_direct_formulas_examples():
    ok, reports = check_direct_formulas(GroupSpec(2, 4))
    assert ok
    assert {r.criterion: r.computed_constant for r in reports} == {
        Criterion.ANY: 5, Criterion.SHORT: 6, Criterion.EXACT_EXP: 9, Criterion.EXP_MULTIPLE: 8,
    }
    ok, reports = check_direct_formulas(GroupSpec(3, 3))
    assert ok
    assert len({r.elapsed_ms for r in reports}) == 1  # one walk: all four carry its time
    assert {r.criterion: r.computed_constant for r in reports} == {
        Criterion.ANY: 5, Criterion.SHORT: 7, Criterion.EXACT_EXP: 9, Criterion.EXP_MULTIPLE: 7,
    }


def test_results_independent_of_options():
    for group in [GroupSpec(2, 4), GroupSpec(3, 3)]:
        for crit in Criterion:
            reports = [
                _all_extremals(group, crit, SearchOptions(**kw))
                for kw in (
                    {},
                    {"aut_pruning": False},
                    {"shift_normalize": False} if crit in (Criterion.EXACT_EXP, Criterion.EXP_MULTIPLE) else {},
                    {"workers": 2},
                )
            ]
            base = reports[0]
            for r in reports[1:]:
                assert r[0] == base[0]
                assert r[1] == base[1]


def test_unreduced_search_visits_exactly_the_lacking_downset():
    # with both reductions off, visited nodes = number of lacking multisets,
    # counted independently by subset enumeration (lacks() shares the DFS's
    # stepper, so it would not be an independent count)
    from itertools import combinations_with_replacement

    cases = [(GroupSpec(2, 4), Criterion.SHORT), (GroupSpec.cyclic(5), Criterion.EXACT_EXP)]
    for group, crit in cases:
        target = formula_value(group, crit) - 1
        elems = list(group.elements())
        downset = [
            seq
            for size in range(target + 1)
            for combo in combinations_with_replacement(elems, size)
            if oracle_lacks(seq := Sequence.from_items(group, [(e, 1) for e in combo]), crit)
        ]
        out = longest_lacking_search(
            group, crit, SearchOptions(aut_pruning=False, shift_normalize=False)
        )
        assert out.nodes == len(downset)
        assert out.max_length == max(len(s) for s in downset) == target
        expected_extremals = sorted(s.counts for s in downset if len(s) == target)
        assert out.sequences == expected_extremals


def _same_report(r):
    return r.to_json(include_volatile=False), r.nodes_visited


@pytest.mark.parametrize("n1,n2", [(1, 1), *ORACLE_GROUPS_16, (3, 6)])
def test_paired_walks_report_what_single_searches_do(n1, n2):
    # check_direct_formulas walks s and reads s_exp_mult off its rows and
    # eta and D off its slice below 0^(exp-1); every report must be
    # longest_lacking's, nodes included, under every setting (unpruned ones
    # on ORACLE_GROUPS_16 only) and budget.  The budgets: 0; exp - 1, which
    # cuts the s walk just before the slice (the nodes 0^j, j < exp - 1,
    # come first); exp - 1 + eta's nodes, which cuts it just after; half
    # D's nodes, which cuts every walk; D's nodes, which cuts the s walk
    # and, where eta has more nodes, eta's own walk but not D's; and a cap
    # that cuts nothing where the setting's walks fit in it.  The cap is 62,000 nodes on the
    # default settings of the noncyclic groups, so C3+C6 and C2+C8 (s:
    # 7,924 and 61,464 nodes) walk in full, and 2,000 elsewhere.  Forked
    # workers walk every subtree up to the budget left before they fall
    # back to one process, so two workers run only where the walks fit in
    # the cap, and only on D's nodes (a cut that sends the split walk back
    # to one process) and the cap.  Their reports must be the one-worker
    # searches' (outputs do not depend on workers).
    group = GroupSpec(n1, n2)
    pad = group.exponent - 1
    pruning = (True, False) if (n1, n2) in ORACLE_GROUPS_16 else (True,)
    for prune, shiftn in product(pruning, (True, False)):
        opts = partial(SearchOptions, aut_pruning=prune, shift_normalize=shiftn)
        cap = 62_000 if prune and shiftn and n1 > 1 else 2_000
        capped = [longest_lacking(group, c, opts(node_budget=cap)) for c in Criterion]
        d_nodes, eta_nodes = capped[0].nodes_visited, capped[1].nodes_visited
        for budget in sorted({0, pad, pad + eta_nodes, d_nodes // 2, d_nodes, cap}):
            single = capped if budget == cap else [
                longest_lacking(group, c, opts(node_budget=budget)) for c in Criterion]
            forks = budget >= d_nodes and all(r.complete for r in capped)
            for workers in ((1, 2) if forks else (1,)):
                ok, reports = check_direct_formulas(group, opts(node_budget=budget, workers=workers))
                key = (prune, shiftn, workers, budget)
                assert [_same_report(r) for r in reports] == [_same_report(r) for r in single], key
                assert ok == all(r.matches_formula for r in single), key


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_between_the_s_walks_cuts_s_only(workers):
    # C3+C6 s visits 7,924 nodes and s_exp_mult 7,823: a budget of 7,850
    # cuts the one walk, so D, eta and s_exp_mult are walked again alone,
    # each in full.
    group = GroupSpec(3, 6)
    ok, reports = check_direct_formulas(group, SearchOptions(workers=workers, node_budget=7_850))
    d, eta, s, s_mult = reports
    assert not ok
    assert (s.nodes_visited, s.complete) == (7_850, False)
    assert (d.nodes_visited, d.complete, d.computed_constant) == (252, True, 8)
    assert (eta.nodes_visited, eta.complete, eta.computed_constant) == (277, True, 10)
    assert (s_mult.nodes_visited, s_mult.complete, s_mult.computed_constant) == (7_823, True, 13)


def test_exists_lacking_subsequence_matches_brute_force():
    rng = random.Random(41)
    for n1, n2 in ORACLE_GROUPS_16:
        group = GroupSpec(n1, n2)
        for _ in range(6):
            seq = random_sequence(rng, group, 9)
            subs = [Sequence(group, c) for c in product(*(range(k + 1) for k in seq.counts))]
            for crit in Criterion:
                lacking_lengths = {len(t) for t in subs if oracle_lacks(t, crit)}
                for target in range(len(seq) + 2):
                    got = exists_lacking_subsequence(seq, crit, target)
                    assert got == (target in lacking_lengths), (str(seq), crit, target)


def test_extremal_maximality():
    for group in [GroupSpec(2, 2), GroupSpec(2, 4)]:
        for crit in Criterion:
            _, extremals = _all_extremals(group, crit)
            assert extremals
            for ex in extremals:
                assert lacks(ex, crit)
                for g in group.elements():
                    assert not lacks(ex.with_term(g), crit)


def test_single_example_is_least_of_full_set():
    group = GroupSpec(2, 6)
    _, full = _all_extremals(group, Criterion.EXACT_EXP)
    one = longest_lacking(group, Criterion.EXACT_EXP)
    assert one.extremal_examples == full[:1]


@pytest.mark.parametrize("n1,n2", [(3, 3), (2, 6), (4, 4)])
def test_single_example_never_builds_the_orbit(monkeypatch, n1, n2):
    # The reduced search's whole sorted orbit equals the unreduced search's
    # maximal set; the report holds the first of those and must not build
    # the orbit at all.
    from zerosum.search import SearchOutcome

    group = GroupSpec(n1, n2)
    full = {}
    for crit in Criterion:
        constant, extremals = _all_extremals(group, crit)
        full[crit] = {
            "group": str(group), "criterion": crit.value, "computed": constant,
            "formula": formula_value(group, crit), "complete": True,
            "extremals": [s.text() for s in extremals],
        }
        unreduced = longest_lacking_search(
            group, crit, SearchOptions(aut_pruning=False, shift_normalize=False)
        )
        assert full[crit]["extremals"] == [Sequence(group, c).text() for c in unreduced.sequences]

    def no_orbit(self):
        raise AssertionError("the full orbit was built")

    monkeypatch.setattr(SearchOutcome, "sequences", property(no_orbit))
    for crit in Criterion:
        one = longest_lacking(group, crit).to_json(include_volatile=False)
        assert one == {**full[crit], "extremals": full[crit]["extremals"][:1]}, crit


def test_budget_exhaustion_flags_incomplete():
    r = longest_lacking(GroupSpec(3, 6), Criterion.EXACT_EXP, SearchOptions(node_budget=50))
    assert not r.complete


def test_budget_validation():
    with pytest.raises(ValueError):
        longest_lacking(GroupSpec(2, 2), Criterion.ANY, SearchOptions(node_budget=-1))
    with pytest.raises(ValueError):
        longest_lacking(GroupSpec(2, 2), Criterion.ANY, SearchOptions(workers=0))


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 4)])
def test_shift_normalize_never_applies_where_unsound(n1, n2):
    # D and eta are not translation invariant, so shift_normalize=True leaves
    # their search exactly as it is with False.
    for crit in (Criterion.ANY, Criterion.SHORT):
        on, off = (longest_lacking_search(GroupSpec(n1, n2), crit, SearchOptions(shift_normalize=b))
                   for b in (True, False))
        assert on.shifts == off.shifts == (), crit
        assert (on.nodes, on.representatives) == (off.nodes, off.representatives), crit


def test_report_json_shape():
    r = longest_lacking(GroupSpec(2, 2), Criterion.SHORT)
    d = r.to_json()
    assert d["group"] == "2,2" and d["criterion"] == "eta"
    assert d["computed"] == d["formula"] == 4
    assert "nodes" in d and "ms" in d
    slim = r.to_json(include_volatile=False)
    assert "nodes" not in slim and "ms" not in slim
    # extremal text round-trips through the parser
    assert parse_sequence(r.group, d["extremals"][0]) == r.extremal_examples[0]
