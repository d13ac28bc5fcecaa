"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are exact throughout (integer equality, exact set
equality, byte-identical JSON); there is nothing to calibrate.
"""

import json
import os
import random
import time
from itertools import combinations_with_replacement

from conftest import ORACLE_GROUPS_16, grow_lacking, oracle_lacks, random_sequence

from zerosum import (
    Criterion,
    ExtremalForm,
    FormTag,
    GroupSpec,
    LemmaName,
    SearchOptions,
    Sequence,
    check_direct_formulas,
    check_property,
    classify,
    construct,
    enumerate_extremal,
    lacks,
    order_of,
    reproduce_exp_minus_1,
    verify_lemma,
    verify_shift_lemma,
)
from zerosum.inverse import _generating_pairs, _ordered_bases, _units
from zerosum.search import longest_lacking_search

RANK2_GROUPS = [(2, 2), (3, 3), (2, 4), (2, 6), (3, 6), (4, 4)]
CYCLIC_MAX = 7
CONVERSE_GROUPS = [(2, 4), (2, 6), (3, 6)]


def _report(num: int, ok: bool, message: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {verdict}: {message} ({time.perf_counter() - started:.1f}s)")
    assert ok, f"criterion {num}: {message}"


def test_criterion_1_direct_constants():
    t0 = time.perf_counter()
    groups = [GroupSpec(*g) for g in RANK2_GROUPS]
    groups += [GroupSpec.cyclic(n) for n in range(1, CYCLIC_MAX + 1)]
    mismatches = []
    for group in groups:
        ok, reports = check_direct_formulas(group)
        assert all(r.complete for r in reports)
        if not ok:
            mismatches += [(str(group), r.criterion.value) for r in reports if not r.matches_formula]
    _report(1, not mismatches,
            f"computed == formula for all four constants on {len(groups)} groups"
            + (f"; mismatches: {mismatches}" if mismatches else ""), t0)


def test_criterion_2_cyclic_inverse():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 9):
        group = GroupSpec.cyclic(n)
        generators = [e for e in group.elements() if order_of(e) == n]

        def extremals(crit):
            return {Sequence(group, c) for c in longest_lacking_search(group, crit).sequences}

        got_any = extremals(Criterion.ANY)
        want_any = {Sequence.from_items(group, [(e, n - 1)]) for e in generators}
        if got_any != want_any:
            bad.append((n, "zero-sum free"))
        if len(want_any) != len(generators):  # phi(n) many
            bad.append((n, "generator count"))

        got_s = extremals(Criterion.EXACT_EXP)
        want_s = {
            Sequence.from_items(group, [(g, n - 1), (g + e, n - 1)])
            for e in generators
            for g in group.elements()
        }
        if got_s != want_s:
            bad.append((n, "length-n free"))
    _report(2, not bad, "cyclic extremal sets for n <= 8 equal the predicted sets"
            + (f"; failures: {bad}" if bad else ""), t0)


def test_criterion_3_properties_c_and_d():
    t0 = time.perf_counter()
    bad = []
    for m in (2, 3, 4):
        for which in ("C", "D"):
            res = check_property(m, which)
            if not res.ok:
                bad.append((m, which, res.status))
    _report(3, not bad, "properties C and D verified exhaustively for m in {2,3,4}"
            + (f"; failures: {bad}" if bad else ""), t0)


def test_criterion_3_stretch_m5():
    # stretch goal behind a budget knob (m = 5 and 6): unverified (not failed)
    # if the budget hits; a verified check has its known extremal count
    t0 = time.perf_counter()
    budget = int(os.environ.get("ZEROSUM_STRETCH_BUDGET", "50000000"))
    counts = {(5, "C"): 720, (5, "D"): 4500, (6, "C"): 144, (6, "D"): 1296}
    results = {key: check_property(*key, SearchOptions(node_budget=budget)) for key in counts}
    statuses = {f"{which}{m}": r.status for (m, which), r in results.items()}
    ok = all(
        r.status == "unverified"
        or (r.status == "verified" and r.details["extremal_count"] == counts[key])
        for key, r in results.items()
    )
    _report(3, ok, f"stretch m=5,6 statuses {statuses} (budget {budget})", t0)


def test_criterion_4_direct_half_full_grid():
    t0 = time.perf_counter()
    failures = []
    built = 0
    for gspec in CONVERSE_GROUPS:
        group = GroupSpec(*gspec)
        n = group.n
        elems = list(group.elements())
        grid = []
        for e1, e2 in _ordered_bases(group):
            for x in _units(group.m):
                for s in range(1, n + 1):
                    grid.append(ExtremalForm(FormTag.ETA_A, e1, e2, x=x, s=s))
                    for t in range(1, n + 1):
                        for g in elems:
                            grid.append(ExtremalForm(FormTag.S_A, e1, e2, x=x, s=s, t=t, g=g))
        for g1, g2 in _generating_pairs(group):
            grid.append(ExtremalForm(FormTag.ETA_B, g1, g2))
            for g in elems:
                grid.append(ExtremalForm(FormTag.S_B, g1, g2, g=g))
        for form in grid:
            built += 1
            try:
                construct(form)  # asserts length and lacking internally
            except Exception as exc:  # noqa: BLE001 - any failure counts
                failures.append((str(group), form, str(exc)))
    _report(4, not failures,
            f"all {built} parameterizations construct to the right length and lacking pattern"
            + (f"; failures: {failures[:3]}" if failures else ""), t0)


def test_criterion_5_converse_half_classification():
    t0 = time.perf_counter()
    unmatched = []
    total = 0
    for gspec in CONVERSE_GROUPS:
        group = GroupSpec(*gspec)
        for crit in (Criterion.SHORT, Criterion.EXACT_EXP):
            seqs, complete = enumerate_extremal(group, crit)
            assert complete
            for seq in seqs:
                total += 1
                if not classify(seq):
                    unmatched.append((str(group), crit.value, seq.text()))
    _report(5, not unmatched,
            f"all {total} extremal sequences over {CONVERSE_GROUPS} classified non-empty"
            + (f"; unmatched: {unmatched[:3]}" if unmatched else ""), t0)


def test_criterion_6_exp_minus_1_example():
    t0 = time.perf_counter()
    seq, report = reproduce_exp_minus_1(2, 3)
    ok = (
        report["ok"]
        and len(seq) == 12
        and lacks(seq, Criterion.EXACT_EXP)
        and seq.max_multiplicity() == 3
        and report["exp_minus_1"] == 5
    )
    _report(6, ok, f"length-12 sequence over C_2+C_6, max multiplicity 3 < 5: {seq}", t0)


SHIFT_LEMMA_GROUPS = [
    (2, 2), (1, 5), (2, 4), (3, 3), (1, 7), (2, 6), (1, 12), (2, 8),
    (4, 4), (3, 6), (1, 16), (5, 5), (2, 10), (1, 25), (3, 9), (6, 6),
    (2, 18), (3, 12), (1, 36), (4, 8),
]


def test_criterion_7_lemma_suite():
    t0 = time.perf_counter()
    bad = []
    for m in (2, 3, 4, 5):
        if not verify_lemma(LemmaName.NOSHORT, m=m).ok:
            bad.append(("noshort", m))
    for m in (2, 3, 4):
        if not verify_lemma(LemmaName.TWO_M, m=m).ok:
            bad.append(("two-m", m))

    rng = random.Random(20260810)
    groups = [GroupSpec(*g) for g in SHIFT_LEMMA_GROUPS]
    assert all(g.order <= 36 for g in groups)
    failures = 0
    for _ in range(4000):  # case 1
        group = rng.choice(groups)
        seq = random_sequence(rng, group, 12)
        g = rng.choice(list(group.elements()))
        if not verify_shift_lemma(seq, g, 1, n=group.exponent * rng.randint(1, 2)):
            failures += 1
    for _ in range(3000):  # case 2
        group = rng.choice(groups)
        cap = min(2 * group.m + group.exponent - 3, 12)
        seq = grow_lacking(rng, group, Criterion.SHORT, rng.randint(0, cap))
        g = rng.choice(list(group.elements()))
        if not verify_shift_lemma(seq, g, 2):
            failures += 1
    for _ in range(3000):  # case 3
        group = rng.choice(groups)
        g = rng.choice(list(group.elements()))
        start = Sequence.from_items(group, [(g, (group.exponent - 1) // 2)])
        cap = max(len(start), min(2 * group.m + 2 * group.exponent - 4, 14))
        seq = grow_lacking(rng, group, Criterion.EXACT_EXP, rng.randint(len(start), cap), start=start)
        if not verify_shift_lemma(seq, g, 3):
            failures += 1
    if failures:
        bad.append(("shift-lemma", failures))
    _report(7, not bad, "noshort m<=5, two-m m<=4, and 10^4 randomized shift-lemma "
            "instances with zero failures" + (f"; failures: {bad}" if bad else ""), t0)


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(97)
    groups = [GroupSpec(*g) for g in ORACLE_GROUPS_16]
    assert all(g.order <= 16 for g in groups)
    disagreements = 0
    for _ in range(10_000):
        group = rng.choice(groups)
        seq = random_sequence(rng, group, 12)
        for crit in Criterion:
            if lacks(seq, crit) != oracle_lacks(seq, crit):
                disagreements += 1

    group = GroupSpec(2, 4)
    elems = list(group.elements())
    exhaustive = 0
    for size in range(6):
        for combo in combinations_with_replacement(elems, size):
            seq = Sequence.from_items(group, [(e, 1) for e in combo])
            exhaustive += 1
            for crit in Criterion:
                if lacks(seq, crit) != oracle_lacks(seq, crit):
                    disagreements += 1
    _report(8, disagreements == 0,
            f"lacks() matches 2^|S| subset enumeration on 10^4 random sequences and "
            f"all {exhaustive} sequences of length <= 5 over C_2+C_4", t0)


def _criteria_1_2_payload(workers: int, pruning: bool) -> bytes:
    opts = SearchOptions(workers=workers, aut_pruning=pruning)
    payload = []
    for gspec in RANK2_GROUPS:
        _, reports = check_direct_formulas(GroupSpec(*gspec), opts)
        payload.append([r.to_json(include_volatile=False) for r in reports])
    for n in range(1, CYCLIC_MAX + 1):
        _, reports = check_direct_formulas(GroupSpec.cyclic(n), opts)
        payload.append([r.to_json(include_volatile=False) for r in reports])
    for n in range(1, 9):
        for crit in (Criterion.ANY, Criterion.EXACT_EXP):
            out = longest_lacking_search(GroupSpec.cyclic(n), crit, opts)
            payload.append([out.max_length, out.complete, out.sequences])
    return json.dumps(payload, sort_keys=True).encode()


def test_criterion_9_determinism():
    # node and timing counters are configuration-dependent by design and are
    # excluded; everything mathematical must agree byte for byte
    t0 = time.perf_counter()
    configs = [(1, True), (4, True), (1, False), (4, False)]
    payloads = {cfg: _criteria_1_2_payload(*cfg) for cfg in configs}
    baseline = payloads[configs[0]]
    diverging = [cfg for cfg in configs if payloads[cfg] != baseline]
    _report(9, not diverging,
            f"byte-identical reports across workers x pruning {configs}"
            + (f"; diverging: {diverging}" if diverging else ""), t0)
