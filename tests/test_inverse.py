import random
from collections import defaultdict
from dataclasses import replace

import pytest

import zerosum.inverse as inverse
from zerosum import (
    CheckResult,
    Criterion,
    ExtremalForm,
    FormTag,
    GroupSpec,
    LemmaName,
    SearchOptions,
    Sequence,
    check_property,
    classify,
    construct,
    enumerate_extremal,
    formula_value,
    lacks,
    order_of,
    parse_sequence,
    reproduce_exp_minus_1,
    verify_lemma,
)
from zerosum.inverse import _form_items, _generating_pairs, _ordered_bases, _units


def test_construct_eta_a_example():
    g = GroupSpec(2, 4)
    form = ExtremalForm(FormTag.ETA_A, g.element(1, 0), g.element(0, 1), x=1, s=1)
    assert construct(form) == parse_sequence(g, "(1,0) (0,1) (1,1)^3")


def test_construct_s_a_example():
    g = GroupSpec(2, 6)
    form = ExtremalForm(
        FormTag.S_A, g.element(1, 0), g.element(0, 1), x=1, s=2, t=2, g=g.zero
    )
    assert construct(form) == parse_sequence(g, "(0,0)^3 (1,0)^3 (0,1)^3 (1,1)^3")


def test_construct_s_b_example():
    g = GroupSpec(2, 2)
    form = ExtremalForm(FormTag.S_B, g.element(1, 0), g.element(0, 1), g=g.zero)
    assert construct(form) == parse_sequence(g, "(0,0) (1,0) (0,1) (1,1)")


def test_construct_validation_errors():
    g = GroupSpec(2, 4)
    e1, e2 = g.element(1, 0), g.element(0, 1)
    with pytest.raises(ValueError, match="basis"):
        construct(ExtremalForm(FormTag.ETA_A, g.element(1, 1), e2, x=1, s=1))
    with pytest.raises(ValueError, match="gcd"):
        construct(ExtremalForm(FormTag.ETA_A, e1, e2, x=2, s=1))
    with pytest.raises(ValueError, match="s ="):
        construct(ExtremalForm(FormTag.ETA_A, e1, e2, x=1, s=3))
    with pytest.raises(ValueError, match="ord"):
        construct(ExtremalForm(FormTag.ETA_B, e2, e1))
    with pytest.raises(ValueError, match="t ="):
        construct(ExtremalForm(FormTag.S_A, e1, e2, x=1, s=1, t=0, g=g.zero))
    with pytest.raises(ValueError, match="translation"):
        construct(ExtremalForm(FormTag.S_B, e1, e2))
    # Parameters a family does not use: x and s on the B tags, t on all but
    # S_A, g on the eta tags.
    with pytest.raises(ValueError, match="eta_a takes no t, g"):
        construct(ExtremalForm(FormTag.ETA_A, e1, e2, x=1, s=1, t=1, g=g.element(1, 1)))
    with pytest.raises(ValueError, match="s_b takes no t"):
        construct(ExtremalForm(FormTag.S_B, e1, e2, t=1, g=g.zero))
    with pytest.raises(ValueError, match="eta_b takes no x, s"):
        construct(ExtremalForm(FormTag.ETA_B, e1, e2, x=1, s=2))
    with pytest.raises(ValueError, match="rank"):
        c5 = GroupSpec.cyclic(5)
        construct(ExtremalForm(FormTag.ETA_A, c5.element(0, 1), c5.element(0, 2), x=1, s=1))


def _random_valid_form(rng, group):
    tag = rng.choice(list(FormTag))
    n = group.n
    if tag in (FormTag.ETA_A, FormTag.S_A):
        e1, e2 = rng.choice(_ordered_bases(group))
        x = rng.choice(_units(group.m))
        s = rng.randint(1, n)
        if tag is FormTag.ETA_A:
            return ExtremalForm(tag, e1, e2, x=x, s=s)
        return ExtremalForm(tag, e1, e2, x=x, s=s, t=rng.randint(1, n),
                            g=rng.choice(list(group.elements())))
    g1, g2 = rng.choice(_generating_pairs(group))
    if tag is FormTag.ETA_B:
        return ExtremalForm(tag, g1, g2)
    return ExtremalForm(tag, g1, g2, g=rng.choice(list(group.elements())))


def test_classify_roundtrip():
    rng = random.Random(53)
    for group in [GroupSpec(2, 4), GroupSpec(3, 6)]:
        for _ in range(100):
            form = _random_valid_form(rng, group)
            matches = classify(construct(form))
            assert form in matches


ORACLE_FORM_GROUPS = [(2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (3, 6), (2, 8)]


def _literal_items(form):
    """The four families, each formula written out in full, one branch per
    tag, independently of _form_items' shapes and padding."""
    grp = form.group
    m, n, mn = grp.m, grp.n, grp.exponent
    e1, e2 = form.e1, form.e2
    if form.tag is FormTag.ETA_A:
        return [
            (e1, m - 1),
            (e2, form.s * m - 1),
            (-form.x * e1 + e2, (n + 1 - form.s) * m - 1),
        ]
    if form.tag is FormTag.ETA_B:
        return [(e1, m - 1), (e2, mn - 1), (e2 - e1, m - 1)]
    g = form.g
    if form.tag is FormTag.S_A:
        return [
            (g, form.t * m - 1),
            (e1 + g, (n + 1 - form.t) * m - 1),
            (e2 + g, form.s * m - 1),
            (-form.x * e1 + e2 + g, (n + 1 - form.s) * m - 1),
        ]
    return [(g, mn - 1), (e1 + g, m - 1), (e2 + g, mn - 1), (e2 - e1 + g, m - 1)]


def _all_forms(group):
    """Every valid form: every basis, unit, s, t and translation g."""
    n = group.n
    elems = list(group.elements())
    forms = []
    for e1, e2 in _ordered_bases(group):
        for x in _units(group.m):
            for s in range(1, n + 1):
                forms.append(ExtremalForm(FormTag.ETA_A, e1, e2, x=x, s=s))
                for t in range(1, n + 1):
                    for g in elems:
                        forms.append(ExtremalForm(FormTag.S_A, e1, e2, x=x, s=s, t=t, g=g))
    for g1, g2 in _generating_pairs(group):
        forms.append(ExtremalForm(FormTag.ETA_B, g1, g2))
        for g in elems:
            forms.append(ExtremalForm(FormTag.S_B, g1, g2, g=g))
    return forms


def _forms_by_counts(group):
    """Every valid form, keyed by the counts of the sequence it states.

    Built forward from the literal family formulas (_literal_items),
    independently of classify's support scan and of _form_items.
    """
    out = defaultdict(list)
    for form in _all_forms(group):
        out[Sequence.from_items(group, _literal_items(form)).counts].append(form)
    return {c: sorted(fs, key=ExtremalForm.sort_key) for c, fs in out.items()}


@pytest.mark.parametrize("gspec", ORACLE_FORM_GROUPS, ids=lambda g: f"{g[0]}-{g[1]}")
def test_form_items_match_the_literal_formulas(gspec):
    # _form_items builds two shapes and pads and translates them for the
    # s-families; it must state the same sequence as the four formulas.
    group = GroupSpec(*gspec)
    for form in _all_forms(group):
        got = Sequence.from_items(group, _form_items(form))
        assert got == Sequence.from_items(group, _literal_items(form)), form


@pytest.mark.parametrize("gspec", ORACLE_FORM_GROUPS, ids=lambda g: f"{g[0]}-{g[1]}")
def test_classify_matches_forward_form_oracle(gspec):
    group = GroupSpec(*gspec)
    oracle = _forms_by_counts(group)
    for crit in (Criterion.SHORT, Criterion.EXACT_EXP):
        seqs, complete = enumerate_extremal(group, crit)
        assert complete and seqs
        for seq in seqs:
            assert classify(seq) == oracle.get(seq.counts, [])

    rng = random.Random(sum(gspec))
    form_counts = sorted(oracle)
    for crit in (Criterion.SHORT, Criterion.EXACT_EXP):
        length = formula_value(group, crit) - 1
        for _ in range(40):
            # random sequences of extremal length with a small support
            support = rng.sample(range(group.order), rng.randint(1, min(5, group.order)))
            counts = [0] * group.order
            for i in support:
                counts[i] += 1
            for _ in range(length - len(support)):
                counts[rng.choice(support)] += 1
            seq = Sequence(group, tuple(counts))
            assert classify(seq) == oracle.get(seq.counts, [])
    for _ in range(80):
        # a stated sequence, and the same with one term moved
        counts = list(rng.choice(form_counts))
        assert classify(Sequence(group, tuple(counts))) == oracle[tuple(counts)]
        counts[rng.choice([i for i, c in enumerate(counts) if c])] -= 1
        counts[rng.randrange(group.order)] += 1
        assert classify(Sequence(group, tuple(counts))) == oracle.get(tuple(counts), [])


def test_classify_example_s_window():
    g = GroupSpec(2, 6)
    matches = classify(parse_sequence(g, "(0,0)^3 (1,0)^3 (0,1)^3 (1,1)^3"))
    assert matches
    s_a = [m for m in matches if m.tag is FormTag.S_A]
    assert s_a and all(m.s == 2 and m.t == 2 for m in s_a)


def test_classify_right_length_no_match_is_empty_not_error():
    g = GroupSpec(2, 2)
    s = parse_sequence(g, "(1,0)^2 (0,1)")
    assert len(s) == 3  # eta - 1
    assert classify(s) == []
    assert not lacks(s, Criterion.SHORT)


def test_classify_wrong_length_errors():
    g = GroupSpec(2, 4)
    with pytest.raises(ValueError, match="extremal-length"):
        classify(parse_sequence(g, "(1,0)"))


def test_classify_match_metadata():
    g = GroupSpec(2, 4)
    matches = classify(parse_sequence(g, "(1,0) (0,1) (1,1)^3"))
    jsons = [m.to_json() for m in matches]
    assert {"form": "eta_a", "e1": [1, 0], "e2": [0, 1], "x": 1, "s": 1} in jsons


def test_enumerate_extremal_c2c2():
    g = GroupSpec(2, 2)
    eta = enumerate_extremal(g, Criterion.SHORT)
    assert eta == ([parse_sequence(g, "(1,0) (0,1) (1,1)")], True)
    s = enumerate_extremal(g, Criterion.EXACT_EXP)
    assert s == ([parse_sequence(g, "(0,0) (1,0) (0,1) (1,1)")], True)
    assert enumerate_extremal(g, Criterion.SHORT, up_to_aut=True) == eta


def test_enumerate_extremal_c3c3_eta_shape():
    g = GroupSpec(3, 3)
    seqs, _ = enumerate_extremal(g, Criterion.SHORT)
    assert seqs
    for seq in seqs:
        assert all(c % 2 == 0 for c in seq.counts)  # shape T^2
        assert len(seq) == 6


def test_enumerate_up_to_aut_counts_orbits():
    g = GroupSpec(2, 4)
    full, _ = enumerate_extremal(g, Criterion.SHORT)
    reps, _ = enumerate_extremal(g, Criterion.SHORT, up_to_aut=True)
    assert len(reps) < len(full)
    from zerosum.groups import least_image

    assert sorted({Sequence(g, least_image(s.counts, g)) for s in full}) == reps


@pytest.mark.parametrize("crit", list(Criterion))
@pytest.mark.parametrize("n1,n2", [(2, 4), (3, 3)])
def test_enumerate_extremal_every_criterion(n1, n2, crit):
    from zerosum.groups import least_image

    g = GroupSpec(n1, n2)
    full, complete = enumerate_extremal(g, crit)
    assert complete and full
    for seq in full:
        assert len(seq) == formula_value(g, crit) - 1 and lacks(seq, crit)
    reps, _ = enumerate_extremal(g, crit, up_to_aut=True)
    assert [s.counts for s in reps] == sorted({least_image(s.counts, g) for s in full})


@pytest.mark.parametrize("n", [5, 6])
def test_enumerate_extremal_zero_sum_free_cyclic(n):
    # The longest zero-sum free sequences over C_n are e^(n-1) with ord(e) = n.
    g = GroupSpec.cyclic(n)
    seqs, complete = enumerate_extremal(g, Criterion.ANY)
    gens = [e for e in g.elements() if order_of(e) == n]
    assert complete and len(seqs) == len(gens)
    assert set(seqs) == {Sequence.from_items(g, [(e, n - 1)]) for e in gens}


def test_check_property_examples():
    assert check_property(3, "C").ok
    assert check_property(2, "D").ok
    assert check_property(3, "D").ok
    with pytest.raises(ValueError, match=r"^property checks need m >= 2$"):
        check_property(1, "C")
    with pytest.raises(ValueError, match=r"^property must be 'C' or 'D', got 'E'$"):
        check_property(3, "E")


@pytest.mark.parametrize("complete,bad,status", [
    (True, [], "verified"),
    (True, ["(1,0)"], "falsified"),
    (False, [], "unverified"),
])
def test_check_result_derives_its_status(complete, bad, status):
    g = GroupSpec(2, 2)
    res = CheckResult("t", {}, [parse_sequence(g, t) for t in bad], {}, complete=complete)
    assert res.status == res.to_json()["status"] == status
    assert res.ok == (status == "verified")
    assert sorted(res.to_json()) == [
        "check", "counterexamples", "details", "nodes", "params", "status"]
    with pytest.raises(AttributeError):
        res.status = "verified"


def test_cut_check_result_refuses_counterexamples():
    # A run cut short proves nothing, so it cannot carry a counterexample.
    with pytest.raises(RuntimeError):
        CheckResult("t", {}, [parse_sequence(GroupSpec(2, 2), "(1,0)")], {}, complete=False)


def _without_nodes(res) -> dict:
    out = res.to_json()
    del out["nodes"]
    return out


@pytest.mark.parametrize("which,m,budget,count,length", [
    ("C", 2, None, 1, 3), ("C", 3, None, 24, 6), ("C", 4, None, 48, 9), ("C", 5, None, 720, 12),
    ("C", 2, 50, 1, 3), ("C", 3, 50, 24, 6), ("C", 4, 50, None, 9), ("C", 5, 50, None, 12),
    ("D", 2, None, 1, 4), ("D", 3, None, 54, 8), ("D", 4, None, 192, 12), ("D", 5, None, 4500, 16),
    ("D", 2, 50, 1, 4), ("D", 3, 50, 54, 8), ("D", 4, 50, None, 12), ("D", 5, 50, None, 16),
])
def test_property_json_pinned(which, m, budget, count, length):
    # Nodes are pinned elsewhere; a budget of 50 cuts m = 4 and 5 short.
    options = SearchOptions(node_budget=budget) if budget else None
    assert _without_nodes(check_property(m, which, options)) == {
        "check": f"property-{which}",
        "params": {"m": m},
        "status": "unverified" if count is None else "verified",
        "counterexamples": [],
        "details": {"extremal_count": count, "length": length},
    }


def test_check_property_c_at_m7_by_default():
    # Property C over C7+C7 (|Aut| = 2016) needs orbit pruning to finish.
    # Its packed table is above _PACKED_MAX_BITS, so the DFS walks the trie.
    res = check_property(7, "C", SearchOptions(node_budget=100_000))
    assert res.status == "verified"
    assert res.details == {"extremal_count": 5040, "length": 18}
    assert res.nodes == 48_029


def test_check_property_unverified_on_tiny_budget():
    from zerosum import SearchOptions

    res = check_property(4, "D", SearchOptions(node_budget=10))
    assert res.status == "unverified"


def test_check_property_lists_the_orbit_of_a_failing_representative(monkeypatch):
    # No real input fails the shape, so the search is doctored: one of the
    # three representatives of property D over C3+C3 (without translation
    # normalization) gets a copy moved to another support index, which
    # leaves two odd counts.  The count still comes from the
    # representatives, and the counterexamples are its whole orbit.
    real = inverse.longest_lacking_search
    outcomes = []

    def doctored(*args, **kwargs):
        out = real(*args, **kwargs)
        reps = list(out.representatives)
        counts = list(reps[1])
        i, j = [v for v, c in enumerate(counts) if c][:2]
        counts[i] -= 1
        counts[j] += 1
        reps[1] = tuple(counts)
        outcomes.append(replace(out, representatives=sorted(reps)))
        return outcomes[-1]

    monkeypatch.setattr(inverse, "longest_lacking_search", doctored)
    g, m = GroupSpec(3, 3), 3
    res = check_property(m, "D", SearchOptions(shift_normalize=False))
    (out,) = outcomes
    assert len(out.representatives) == 3
    bad = [Sequence(g, s) for s in out.sequences if any(c % (m - 1) for c in s)]
    assert bad and len(bad) < len(out.sequences)
    assert res.status == "falsified"
    assert res.counterexamples == bad
    assert res.details == {"extremal_count": len(out.sequences), "length": 8}


def test_incomplete_checks_report_no_counterexamples():
    tiny = SearchOptions(node_budget=5)
    res = check_property(5, "D", tiny)
    assert res.status == "unverified"
    assert res.counterexamples == []
    assert res.details == {"extremal_count": None, "length": 16}
    res = verify_lemma(LemmaName.INVCYC, n=6, options=tiny)
    assert res.status == "unverified"
    assert res.counterexamples == []
    assert res.details["zero_sum_free_count"] is None
    assert res.details["length_n_free_count"] is None
    assert res.details["expected_zero_sum_free"] == 2


def test_incomplete_enumeration_keeps_only_extremal_length():
    group = GroupSpec(3, 6)
    target = formula_value(group, Criterion.EXACT_EXP) - 1
    partial, complete = enumerate_extremal(
        group, Criterion.EXACT_EXP, options=SearchOptions(node_budget=400))
    assert not complete and partial
    for seq in partial:
        assert len(seq) == target and lacks(seq, Criterion.EXACT_EXP)
        assert classify(seq)
    short = enumerate_extremal(group, Criterion.EXACT_EXP, options=SearchOptions(node_budget=5))
    assert short == ([], False)


def test_verify_lemma_noshort():
    res = verify_lemma(LemmaName.NOSHORT, m=3)
    assert res.ok
    assert res.details["x_values"] == [1]  # x <= 3/2 and gcd(x,3)=1 force x=1
    assert verify_lemma(LemmaName.NOSHORT, m=2).ok


def test_verify_lemma_two_m():
    assert verify_lemma(LemmaName.TWO_M, m=2).ok
    assert verify_lemma(LemmaName.TWO_M, m=3).ok


@pytest.mark.parametrize("m,powers,x_values", [
    (2, 1, [1]), (3, 24, [1]), (4, 48, [1]), (5, 720, [1, 2]), (6, 144, [1]),
])
def test_noshort_results_pinned(m, powers, x_values):
    assert _without_nodes(verify_lemma(LemmaName.NOSHORT, m=m)) == {
        "check": "noshort",
        "params": {"m": m},
        "status": "verified",
        "counterexamples": [],
        "details": {"powers_checked": powers, "x_values": x_values},
    }


@pytest.mark.parametrize("m,powers", [(2, 1), (3, 54), (4, 192), (5, 4500)])
def test_two_m_results_pinned(m, powers):
    assert _without_nodes(verify_lemma(LemmaName.TWO_M, m=m)) == {
        "check": "two-m",
        "params": {"m": m},
        "status": "verified",
        "counterexamples": [],
        "details": {"powers_checked": powers},
    }


# n: (phi(n) generators e^(n-1), length-n-free extremals g^(n-1) (g+e)^(n-1))
INVCYC_EXPECTED = {1: (1, 1), 2: (1, 1), 3: (2, 3), 4: (2, 4), 5: (4, 10),
                   6: (2, 6), 7: (6, 21), 8: (4, 16), 9: (6, 27), 10: (4, 20)}


@pytest.mark.parametrize("n,budget", [(n, None) for n in range(1, 11)] + [(4, 7), (6, 7), (9, 7)])
def test_invcyc_json_pinned(n, budget):
    # A budget of 7 cuts one of the two searches short: no counts then.
    options = SearchOptions(node_budget=budget) if budget else None
    free, n_free = INVCYC_EXPECTED[n]
    done = budget is None
    assert _without_nodes(verify_lemma(LemmaName.INVCYC, n=n, options=options)) == {
        "check": "invcyc",
        "params": {"n": n},
        "status": "verified" if done else "unverified",
        "counterexamples": [],
        "details": {
            "zero_sum_free_count": free if done else None,
            "expected_zero_sum_free": free,
            "length_n_free_count": n_free if done else None,
            "expected_length_n_free": n_free,
        },
    }


def test_verify_lemma_invcyc():
    res = verify_lemma(LemmaName.INVCYC, n=5)
    assert res.ok
    assert res.details["zero_sum_free_count"] == 4  # phi(5) generators
    assert verify_lemma(LemmaName.INVCYC, n=1).ok


def test_verify_lemma_param_validation():
    for name, kwargs, message in (
        (LemmaName.NOSHORT, {}, "noshort needs m"),
        (LemmaName.TWO_M, {"n": 3}, "two-m needs m"),
        (LemmaName.INVCYC, {"m": 3}, "invcyc needs n"),
        (LemmaName.NOSHORT, {"m": 1}, "noshort needs m >= 2"),
        (LemmaName.TWO_M, {"m": 0}, "two-m needs m >= 2"),
        (LemmaName.INVCYC, {"n": 0}, "invcyc needs n >= 1"),
        ("noshort", {"m": 3}, "unknown lemma 'noshort'"),
    ):
        with pytest.raises(ValueError) as exc:
            verify_lemma(name, **kwargs)
        assert str(exc.value) == message


def test_reproduce_exp_minus_1():
    seq, report = reproduce_exp_minus_1(2, 3)
    assert seq == parse_sequence(GroupSpec(2, 6), "(0,0)^3 (1,0)^3 (0,1)^3 (1,1)^3")
    assert report["ok"]
    assert report["length"] == 12 and report["expected_length"] == 12
    assert report["max_multiplicity"] == 3 and report["exp_minus_1"] == 5

    seq, report = reproduce_exp_minus_1(2, 4)
    assert report["ok"]
    assert report["length"] == len(seq) == 16  # s(C_2 + C_8) - 1
    assert sorted(set(seq.counts) - {0}) == [3, 5]
    assert report["max_multiplicity"] == 5 < 7

    seq, report = reproduce_exp_minus_1(3, 3)
    assert report["ok"]
    assert sorted(set(seq.counts) - {0}) == [5]
    assert report["max_multiplicity"] == 5 < 8

    with pytest.raises(ValueError):
        reproduce_exp_minus_1(2, 2)
    with pytest.raises(ValueError):
        reproduce_exp_minus_1(1, 3)


def test_extremality_is_aut_invariant():
    from zerosum import automorphisms

    g = GroupSpec(2, 4)
    for crit in (Criterion.SHORT, Criterion.EXACT_EXP):
        seqs = set(enumerate_extremal(g, crit)[0])
        for p in automorphisms(g):
            for s in seqs:
                items = [(g.element_at(p[e.index]), k) for e, k in s.items()]
                img = Sequence.from_items(g, items)
                assert img in seqs
                assert bool(classify(img)) == bool(classify(s))


def test_s_extremals_shift_covariant():
    # covariance under translation holds for the s-kind only; for the
    # eta-kind short-zero-sum freeness is not translation invariant
    from zerosum import shift

    g = GroupSpec(2, 4)
    seqs = set(enumerate_extremal(g, Criterion.EXACT_EXP)[0])
    for s in seqs:
        for h in g.elements():
            assert shift(h, s) in seqs


def test_direct_half_on_small_grid():
    # every valid parameterization yields the right length and lacking pattern;
    # construct() asserts both, so it just must not raise
    group = GroupSpec(2, 4)
    n = group.n
    for e1, e2 in _ordered_bases(group):
        for x in _units(group.m):
            for s in range(1, n + 1):
                construct(ExtremalForm(FormTag.ETA_A, e1, e2, x=x, s=s))
    for g1, g2 in _generating_pairs(group):
        construct(ExtremalForm(FormTag.ETA_B, g1, g2))
