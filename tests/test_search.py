"""The search's symmetry kernels against their definitions, and the search's
reductions against the unreduced search.

The oracles here apply permutations and translations plainly, with their own
modular arithmetic, never through the getters or the prefix table under test.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

import pytest

import zerosum.search as search
from zerosum import Criterion, GroupSpec, Sequence, SearchOptions, canonical_form, longest_lacking
from zerosum._bits import shift_getters
from zerosum.groups import aut_getters, aut_permutations
from zerosum.search import _is_orbit_minimal, _orbit_table, longest_lacking_search

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

    # every table of total <= 3: label whole orbits at once
    minimal: dict[tuple[int, ...], bool] = {}
    for t in small_tables(group, 3):
        if t not in minimal:
            orbit = {t, *(image(t, p) for p in perms)}
            top = max(orbit)
            minimal.update((u, u == top) for u in orbit)
        assert _is_orbit_minimal(list(t), table) == minimal[t], t


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
        assert canonical_form(Sequence(group, t)).counts == min(aut_orbit)


REDUCTION_GROUPS = [(1, 1), *ORACLE_GROUPS_16]
# unreduced downsets above 2M nodes
TOO_BIG_FOR_EXP_LENGTH = {(1, 12), (1, 13), (1, 16), (2, 8)}


@pytest.mark.parametrize("n1,n2", REDUCTION_GROUPS)
def test_reduced_search_matches_unreduced(n1, n2):
    group = GroupSpec(n1, n2)
    for crit in Criterion:
        shift_sound = crit in (Criterion.EXACT_EXP, Criterion.EXP_MULTIPLE)
        if shift_sound and (n1, n2) in TOO_BIG_FOR_EXP_LENGTH:
            continue
        base = longest_lacking_search(group, crit, SearchOptions(aut_pruning=False, shift_normalize=False))
        for prune in (False, True):
            for shiftn in ((False, True) if shift_sound else (False,)):
                if not (prune or shiftn):
                    continue
                out = longest_lacking_search(
                    group, crit, SearchOptions(aut_pruning=prune, shift_normalize=shiftn)
                )
                assert out.complete
                assert out.max_length == base.max_length, (crit, prune, shiftn)
                assert out.sequences == base.sequences, (crit, prune, shiftn)


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


@pytest.mark.parametrize("crit", [Criterion.ANY, Criterion.EXACT_EXP])
@pytest.mark.parametrize("budget", [0, 1])
def test_tiny_budget_visits_the_root_and_one_child(crit, budget):
    # The root is visited whatever the budget; the walk stops at the first
    # node past the budget, which is counted.
    group = GroupSpec(2, 4)
    out = longest_lacking_search(group, crit, SearchOptions(node_budget=budget))
    assert not out.complete
    assert (out.max_length, out.sequences, out.nodes) == (0, [(0,) * group.order], 2)


def test_workers_fall_back_to_serial_without_fork(monkeypatch):
    group = GroupSpec(3, 3)
    serial = [longest_lacking(group, c, SearchOptions(collect_all=True)) for c in Criterion]

    def no_pool(method):
        raise AssertionError(f"pool context {method!r} requested")

    monkeypatch.setattr(search, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(search, "get_context", no_pool)
    pooled = [longest_lacking(group, c, SearchOptions(collect_all=True, workers=2)) for c in Criterion]
    for a, b in zip(serial, pooled):
        assert b.to_json(include_volatile=False) == a.to_json(include_volatile=False)
        assert b.nodes_visited == a.nodes_visited
