"""The search's symmetry kernels against their definitions, and the search's
reductions against the unreduced search.

The oracles here apply permutations and translations plainly, with their own
modular arithmetic, never through the getters, the packed table or the prefix
table under test.  The DFS tests orbit-minimality on the packed table where
it is small and on the prefix table above that size: both are checked
against the definition, and the searches on both sides against each other
and against pinned node counts.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

import zerosum.search as search
from zerosum import Criterion, GroupSpec, Sequence, SearchOptions
from zerosum._bits import shift_getters
from zerosum.criteria import _shared_stepper
from zerosum.groups import aut_getters, aut_permutations, least_image
from zerosum.search import (
    _PACKED_MAX_BITS,
    _digit_width,
    _is_orbit_minimal,
    _orbit_table,
    _packed_bits,
    _packed_table,
    _packed_value,
    longest_lacking_search,
)

from conftest import ORACLE_GROUPS_16, oracle_lacks

KERNEL_GROUPS = [(1, 1), *ORACLE_GROUPS_16, (5, 5), (6, 6)]


def image(counts, perm) -> tuple[int, ...]:
    """The multiset image: the count at index i moves to index perm[i]."""
    out = [0] * len(counts)
    for i, c in enumerate(counts):
        out[perm[i]] += c
    return tuple(out)


def translate(group: GroupSpec, counts, h: int) -> tuple[int, ...]:
    n1, n2 = group.n1, group.n2
    ha, hb = divmod(h, n2)
    out = [0] * len(counts)
    for i, c in enumerate(counts):
        a, b = divmod(i, n2)
        out[((a + ha) % n1) * n2 + (b + hb) % n2] += c
    return tuple(out)


def random_tables(rng: random.Random, group: GroupSpec, count: int) -> list[tuple[int, ...]]:
    """Random tables, plus for each one its orbit's largest table (orbit-minimal)
    and its sum with one image (tied with that image far into the comparison)."""
    perms = aut_permutations(group)
    out = []
    for _ in range(count):
        counts = [0] * group.order
        for _ in range(rng.randint(0, 8)):
            counts[rng.randrange(group.order)] += rng.randint(1, 3)
        t = tuple(counts)
        out.append(t)
        out.append(max([t, *(image(t, p) for p in perms)]))
        if perms:
            u = image(t, rng.choice(perms))
            out.append(tuple(a + b for a, b in zip(t, u)))
    return out


def packed_is_minimal(group: GroupSpec, t) -> bool:
    # The digit width must cover the counts given, not only the DFS's (< exp).
    width = max(group.exponent - 1, *t).bit_length()
    guards, deltas = _packed_table(group, width)
    return _packed_value(t, guards, deltas) & guards == guards


def small_tables(group: GroupSpec, total: int):
    for size in range(total + 1):
        for combo in combinations_with_replacement(range(group.order), size):
            counts = [0] * group.order
            for i in combo:
                counts[i] += 1
            yield tuple(counts)


@pytest.mark.parametrize("n1,n2", KERNEL_GROUPS)
def test_is_orbit_minimal_matches_definition(n1, n2):
    # definition: counts is the largest table in its orbit (in the sorted-tuple
    # order of multisets, the smallest multiset)
    group = GroupSpec(n1, n2)
    perms = aut_permutations(group)
    table = _orbit_table(group)
    rng = random.Random(n1 * 1000 + n2)
    for t in random_tables(rng, group, 40):
        want = all(image(t, p) <= t for p in perms)
        assert _is_orbit_minimal(list(t), table) == want, t
        assert packed_is_minimal(group, t) == want, t

    # every table of total <= 3: label whole orbits at once
    minimal: dict[tuple[int, ...], bool] = {}
    for t in small_tables(group, 3):
        if t not in minimal:
            orbit = {t, *(image(t, p) for p in perms)}
            top = max(orbit)
            minimal.update((u, u == top) for u in orbit)
        assert _is_orbit_minimal(list(t), table) == minimal[t], t
        assert packed_is_minimal(group, t) == minimal[t], t


@pytest.mark.parametrize("n1,n2", KERNEL_GROUPS)
def test_getters_and_canonical_form_match_plain_images(n1, n2):
    group = GroupSpec(n1, n2)
    perms = aut_permutations(group)
    rng = random.Random(7 * n1 + n2)
    for t in random_tables(rng, group, 20):
        aut_orbit = {t, *(image(t, p) for p in perms)}
        assert {t, *(g(t) for g in aut_getters(group))} == aut_orbit
        assert {t, *(g(t) for g in shift_getters(group))} == {
            translate(group, t, h) for h in range(group.order)
        }
        assert least_image(t, group) == min(aut_orbit)

    # least_image, and with a bound None exactly when the least image is >=
    # it: bounds equal to it, to the table, to the last table's least image,
    # and one below and one above it at the last position.
    last = (0,) * group.order
    for t in [*random_tables(rng, group, 20), *small_tables(group, 2)]:
        least = min([t, *(image(t, p) for p in perms)])
        assert least_image(t, group) == least, t
        head, tail = least[:-1], least[-1]
        for bound in (least, t, last, head + (tail + 1,), head + (tail - 1,)):
            assert least_image(t, group, bound) == (least if least < bound else None), (t, bound)
        last = least


REDUCTION_GROUPS = [(1, 1), *ORACLE_GROUPS_16]
# unreduced downsets above 2M nodes
TOO_BIG_FOR_EXP_LENGTH = {(1, 12), (1, 13), (1, 16), (2, 8)}


@pytest.mark.parametrize("n1,n2", REDUCTION_GROUPS)
def test_reduced_search_matches_unreduced(n1, n2):
    # Under every setting the least table, the orbit count, the automorphism
    # classes and the lazily built orbit match the unreduced search's sorted
    # list; C3+C3 also runs each setting through two forked workers.
    group = GroupSpec(n1, n2)
    for crit in Criterion:
        shift_sound = crit in (Criterion.EXACT_EXP, Criterion.EXP_MULTIPLE)
        if shift_sound and (n1, n2) in TOO_BIG_FOR_EXP_LENGTH:
            continue
        base = longest_lacking_search(group, crit, SearchOptions(aut_pruning=False, shift_normalize=False))
        assert base.least == base.sequences[0] == base.representatives[0], crit
        classes = sorted({least_image(s, group) for s in base.sequences})
        for prune in (False, True):
            for shiftn in ((False, True) if shift_sound else (False,)):
                for workers in ((1, 2) if (n1, n2) == (3, 3) else (1,)):
                    key = (crit, prune, shiftn, workers)
                    out = base if not (prune or shiftn or workers > 1) else longest_lacking_search(
                        group, crit, SearchOptions(aut_pruning=prune, shift_normalize=shiftn, workers=workers))
                    assert out.complete
                    assert out.max_length == base.max_length, key
                    assert out.least == base.sequences[0], key
                    assert out.orbit_count == len(base.sequences), key
                    assert out.classes == classes, key
                    assert out.sequences == base.sequences, key


SLICE_GROUPS = [(2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (3, 6), (2, 8), (5, 5)]


@pytest.mark.parametrize("n1,n2", SLICE_GROUPS)
def test_slice_identities(n1, n2):
    # T -> 0^(exp-1) T maps the eta-extremals onto the s-extremals with
    # exp - 1 zeros, and the D-extremals onto those s_exp_mult-extremals: a
    # zero-sum of T pads with zeros to a forbidden length, so T holds no 0,
    # and s - eta = s_exp_mult - D = exp - 1.  Automorphisms fix 0, so the
    # maps carry automorphism classes to classes.  The eta and D searches
    # take no translation reduction, so this pins the s searches to searches
    # that a change to that reduction leaves alone.  Default options, and
    # every setting on the groups of order <= 12.
    group = GroupSpec(n1, n2)
    exp = group.exponent
    settings = product((True, False), (True, False), (1, 2)) if group.order <= 12 else [(True, True, 1)]
    for prune, shiftn, workers in settings:
        opts = SearchOptions(aut_pruning=prune, shift_normalize=shiftn, workers=workers)
        for short, padded in ((Criterion.SHORT, Criterion.EXACT_EXP), (Criterion.ANY, Criterion.EXP_MULTIPLE)):
            a, b = (longest_lacking_search(group, c, opts) for c in (short, padded))
            sliced = sorted((0,) + c[1:] for c in b.classes if c[0] == exp - 1)
            assert a.classes == sliced, (short, prune, shiftn, workers)


SLICE_SUBTREE_GROUPS = [
    (1, 5), (1, 7), (2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (3, 6), (2, 8), (5, 5), (2, 10),
    (6, 6), (3, 9), (7, 7),
]


@pytest.mark.parametrize("n1,n2", SLICE_SUBTREE_GROUPS)
def test_slice_subtrees(n1, n2):
    # The slice identities at node level: the s walk's stepper, started from
    # the node 0^(exp-1), walks a copy of the eta walk, and s_exp_mult's one
    # of the D walk.  T lacks a short zero-sum iff 0^(exp-1) T lacks one of
    # length exp (the zeros pad any short zero-sum to length exp), and
    # likewise for zero-sums of any length and of a length divisible by exp;
    # automorphisms fix 0, so the pruned walks keep the same nodes.  Same
    # node count, same best length less exp - 1, same representatives with
    # exp - 1 taken off the count at index 0.  C7+C7 is on the trie side.
    group = GroupSpec(n1, n2)
    exp = group.exponent
    pad = exp - 1
    for short, padded in ((Criterion.SHORT, Criterion.EXACT_EXP), (Criterion.ANY, Criterion.EXP_MULTIPLE)):
        base = longest_lacking_search(group, short)
        assert base.complete
        state, push, _ = _shared_stepper(group, padded)
        for _ in range(pad):
            state = push(state, 0)
        top = ((pad,) + (0,) * (group.order - 1), state, (1 << group.order) - 1)
        ctx = search._Ctx(group, (padded,), None, True, 10**7)
        complete, ((best, best_list, nodes),) = search._walk(ctx, top)
        assert complete
        assert nodes == base.nodes, short
        assert best - pad == base.max_length, short
        assert sorted({(c[0] - pad,) + c[1:] for c in best_list}) == base.representatives, short


@pytest.mark.parametrize("crit", list(Criterion))
def test_least_is_the_first_of_the_orbit_on_c5_c5(crit):
    # The orbit re-expansion shares no code with the running minimum, the
    # classes or their summed sizes (orbit_count); C5+C5 is too big to search
    # unreduced, so those are checked against the lazily built orbit, itself
    # checked against the plain images of the representatives under some
    # automorphisms and translations.
    group = GroupSpec(5, 5)
    out = longest_lacking_search(group, crit)
    count, classes = out.orbit_count, out.classes
    orbit = out.sequences
    assert out.least == orbit[0]
    assert count == len(orbit)
    assert classes == sorted({least_image(s, group) for s in orbit})
    members = set(orbit)
    assert orbit == sorted(members) and members.issuperset(out.representatives)
    shifts = range(group.order) if out.shifts else [0]
    rep = out.representatives[-1]
    for p in aut_permutations(group)[::37]:
        for h in shifts:
            assert translate(group, image(rep, p), h) in members


@pytest.mark.parametrize("n1,n2,crit,nodes", [
    (2, 4, Criterion.SHORT, 21),
    (2, 4, Criterion.EXACT_EXP, 111),
    (3, 3, Criterion.EXP_MULTIPLE, 19),
    (1, 5, Criterion.EXACT_EXP, 50),
    (2, 2, Criterion.ANY, 3),
    (1, 6, Criterion.EXACT_EXP, 355),
])
def test_default_search_visits_exactly_the_reduced_downset(n1, n2, crit, nodes):
    # With default options the search visits each multiset that lacks the
    # criterion, is the largest table in its orbit and, under translation
    # normalization (s and s_exp_mult), is empty or contains 0: no more, no less.
    group = GroupSpec(n1, n2)
    perms = aut_permutations(group)
    shiftn = crit in (Criterion.EXACT_EXP, Criterion.EXP_MULTIPLE)
    out = longest_lacking_search(group, crit)
    want = sum(
        oracle_lacks(Sequence(group, t), crit)
        for t in small_tables(group, out.max_length)
        if not (shiftn and any(t) and not t[0]) and all(image(t, p) <= t for p in perms)
    )
    assert out.nodes == want == nodes


@pytest.mark.parametrize("crit,nodes", [(Criterion.EXACT_EXP, 61_464), (Criterion.EXP_MULTIPLE, 61_454)])
def test_packed_side_node_counts_on_c2_c8(crit, nodes):
    # C2+C8 is far below _PACKED_MAX_BITS, so the DFS runs the packed test;
    # test_check_property_c_at_m7_by_default pins the trie side.
    group = GroupSpec(2, 8)
    assert _packed_bits(group, _digit_width(group)) <= _PACKED_MAX_BITS
    assert _packed_bits(GroupSpec(7, 7), _digit_width(GroupSpec(7, 7))) > _PACKED_MAX_BITS
    out = longest_lacking_search(group, crit)
    assert out.complete and out.nodes == nodes


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (3, 6)])
def test_packed_and_trie_searches_agree(n1, n2, monkeypatch):
    # The two orbit tests make the same decision at every child, so the
    # searches visit the same nodes and keep the same representatives.
    group = GroupSpec(n1, n2)
    packed = [longest_lacking_search(group, c) for c in Criterion]
    monkeypatch.setattr(search, "_PACKED_MAX_BITS", -1)
    for crit, a in zip(Criterion, packed):
        b = longest_lacking_search(group, crit)
        assert (b.nodes, b.max_length, b.representatives) == (
            a.nodes, a.max_length, a.representatives), crit


def _preorder_lacking(group, crit):
    """Every multiset that lacks crit, in the DFS pre-order by the subset
    oracle: a node's children append an element no smaller than its last,
    in index order."""
    order = []

    def visit(counts, start):
        order.append(tuple(counts))
        for e in range(start, group.order):
            counts[e] += 1
            if oracle_lacks(Sequence(group, tuple(counts)), crit):
                visit(counts, e)
            counts[e] -= 1

    visit([0] * group.order, 0)
    return order


@pytest.mark.parametrize("n1,n2,crit", [
    *((n1, n2, c) for n1, n2 in [(2, 2), (1, 5)] for c in Criterion),
    *((n1, n2, c) for n1, n2 in [(2, 4), (3, 3)] for c in (Criterion.ANY, Criterion.SHORT)),
])
def test_walk_cut_at_each_budget_visits_the_first_nodes_in_preorder(n1, n2, crit):
    # Unreduced, a walk cut at budget b has visited the first b lacking
    # multisets of the pre-order, so its deepest length and the tables of
    # that length are theirs.  Every b pins the order of the children, not
    # only their number.
    group = GroupSpec(n1, n2)
    order = _preorder_lacking(group, crit)
    for b in range(len(order) + 1):
        opts = SearchOptions(aut_pruning=False, shift_normalize=False, node_budget=b)
        out = longest_lacking_search(group, crit, opts)
        best = max((sum(t) for t in order[:b]), default=-1)
        assert (out.nodes, out.complete, out.max_length) == (b, b == len(order), best), b
        assert out.representatives == sorted({t for t in order[:b] if sum(t) == best}), b


@pytest.mark.parametrize("crit", [Criterion.ANY, Criterion.EXACT_EXP])
@pytest.mark.parametrize("budget", [0, 1, 2])
def test_tiny_budget_visits_the_root_and_one_child(crit, budget):
    # The walk stops at the first node past the budget, which is not
    # counted: budget 0 visits nothing, 1 only the root, 2 the root and its
    # first child.
    group = GroupSpec(2, 4)
    out = longest_lacking_search(group, crit, SearchOptions(node_budget=budget))
    assert not out.complete
    assert (out.nodes, out.max_length, len(out.representatives)) == (budget, budget - 1, min(budget, 1))
    if budget < 2:
        assert out.sequences == [(0,) * group.order] * budget


def test_search_deeper_than_the_formula_hits_the_safety_cap(monkeypatch):
    # The search caps its depth at formula_value + 2 itself.  With a formula
    # of 1 the cap is 3, and C2+C4's D search reaches length 4.
    monkeypatch.setattr(search, "formula_value", lambda group, criterion: 1)
    with pytest.raises(RuntimeError, match="depth 4 exceeded the safety cap 3"):
        longest_lacking_search(GroupSpec(2, 4), Criterion.ANY)


def test_pruning_has_no_cliff_in_aut_size():
    # |Aut(C7+C7)| = 2016: the default search prunes it all the same.
    out = longest_lacking_search(GroupSpec(7, 7), Criterion.SHORT, SearchOptions(node_budget=0))
    assert out.aut == aut_getters(GroupSpec(7, 7)) != ()


@pytest.mark.parametrize("kw", [{}, {"aut_pruning": True}])
def test_pruning_is_off_beyond_the_automorphism_enumerator(kw):
    # Order 600 > AUT_ENUMERATION_MAX_ORDER: no Aut(G) to prune with, and no error.
    opts = SearchOptions(node_budget=0, **kw)
    out = longest_lacking_search(GroupSpec.cyclic(600), Criterion.ANY, opts)
    assert out.aut == () and not out.complete


def test_workers_fall_back_to_serial_without_fork(monkeypatch):
    group = GroupSpec(3, 3)
    serial = [longest_lacking_search(group, c) for c in Criterion]

    def no_pool(tasks, workers):
        raise AssertionError("forked workers requested")

    monkeypatch.setattr(search, "_can_fork", lambda: False)
    monkeypatch.setattr(search, "_run_forked", no_pool)
    pooled = [longest_lacking_search(group, c, SearchOptions(workers=2)) for c in Criterion]
    for a, b in zip(serial, pooled):
        assert (b.max_length, b.sequences, b.complete) == (a.max_length, a.sequences, a.complete)
        assert b.nodes == a.nodes


@pytest.mark.parametrize("n1,n2", [(3, 6), (2, 8)])
def test_incomplete_runs_do_not_depend_on_workers(n1, n2):
    # The budget caps the whole search.  Two workers split it at depth 4; a
    # split search cut short is walked again in the parent, so the cut falls
    # where one worker's falls, after exactly budget nodes.  On C2+C8, 2,000
    # cuts some depth-4 subtrees themselves short; at 20,000 none is, but
    # the parts add up past the budget.  Five workers, more than most
    # machines have cores, contend for the counter of subtrees taken.
    group = GroupSpec(n1, n2)
    for budget in (5, 40, 400, 2_000, 20_000):
        serial, *forked = [longest_lacking_search(group, Criterion.EXACT_EXP, SearchOptions(
            workers=workers, node_budget=budget)) for workers in (1, 2, 5)]
        want = (serial.nodes, serial.max_length, serial.representatives, serial.complete)
        for out in forked:
            assert (out.nodes, out.max_length, out.representatives, out.complete) == want, budget
        assert serial.complete == ((n1, n2, budget) == (3, 6, 20_000))
        assert serial.complete or serial.nodes == budget


@pytest.mark.parametrize("workers", [1, 2])
def test_search_of_exactly_budget_nodes_is_complete(workers):
    # C3+C6 s visits 7,924 nodes: a budget of that many completes it, one
    # fewer cuts it after 7,923.
    group = GroupSpec(3, 6)
    for budget, complete in ((7_924, True), (7_923, False)):
        out = longest_lacking_search(group, Criterion.EXACT_EXP, SearchOptions(
            workers=workers, node_budget=budget))
        assert (out.nodes, out.complete) == (budget, complete)


def _raises(*args):
    raise ValueError("subtree runner failed")


def _dies(*args):
    os._exit(1)


@pytest.mark.parametrize("runner,message", [
    (_raises, "subtree runner failed"),
    (_dies, "exited without its results"),
])
def test_failed_worker_raises_and_leaves_no_child(monkeypatch, runner, message):
    # The parent runs no subtree before the workers are done, so the patched
    # runner fails in the workers only.
    monkeypatch.setattr(search, "_run_subtree", runner)
    with pytest.raises(RuntimeError, match=message):
        longest_lacking_search(GroupSpec(2, 8), Criterion.EXACT_EXP, SearchOptions(workers=2))
    assert multiprocessing.active_children() == []


def test_one_worker_search_never_imports_multiprocessing():
    # Forked workers load multiprocessing on demand: a fresh process that
    # imports zerosum and runs a one-worker search never loads it.
    src = str(Path(search.__file__).resolve().parents[1])
    code = (
        "import sys, zerosum as z\n"
        "z.longest_lacking(z.GroupSpec(2, 4), z.Criterion.EXACT_EXP)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
