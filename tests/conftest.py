"""Shared brute-force oracles and instance generators.

The oracles enumerate subsets directly (never through the reachability
tables they are meant to check) and do their own modular arithmetic.
"""

from __future__ import annotations

import random

from zerosum import Criterion, GroupSpec, Sequence, lacks

# Groups of order <= 16 for the oracle comparisons, as (n1, n2).
ORACLE_GROUPS_16 = [
    (2, 2), (1, 5), (2, 4), (3, 3), (1, 7), (2, 6), (1, 12), (2, 8), (4, 4), (1, 16), (1, 13),
]


def subset_reach(seq: Sequence) -> set[tuple[int, int, int]]:
    """(length, a, b) for every sub-multiset of seq, by direct enumeration."""
    n1, n2 = seq.group.n1, seq.group.n2
    reach = {(0, 0, 0)}
    for e, k in seq.items():
        for l, a, b in list(reach):
            for c in range(1, k + 1):
                reach.add((l + c, (a + c * e.a) % n1, (b + c * e.b) % n2))
    return reach


def oracle_lacks(seq: Sequence, criterion: Criterion) -> bool:
    """lacks() recomputed from scratch over all 2^|S| subsets."""
    exp = seq.group.exponent
    total = len(seq)
    if criterion is Criterion.ANY:
        lengths = range(1, total + 1)
    elif criterion is Criterion.SHORT:
        lengths = range(1, exp + 1)
    elif criterion is Criterion.EXACT_EXP:
        lengths = range(exp, exp + 1)
    else:
        lengths = range(exp, total + 1, exp)
    reach = subset_reach(seq)
    return not any((l, 0, 0) in reach for l in lengths)


def oracle_order(e) -> int:
    """Element order by repeated addition."""
    k = 1
    acc = e
    while acc != e.group.zero:
        acc = acc + e
        k += 1
    return k


def random_sequence(rng: random.Random, group: GroupSpec, max_len: int) -> Sequence:
    elems = list(group.elements())
    length = rng.randint(0, max_len)
    return Sequence.from_items(group, [(rng.choice(elems), 1) for _ in range(length)])


def grow_lacking(
    rng: random.Random, group: GroupSpec, criterion: Criterion, max_len: int,
    start: Sequence | None = None, patience: int = 30,
) -> Sequence:
    """Random sequence lacking the criterion, grown one admissible term at a time."""
    seq = start if start is not None else Sequence(group, (0,) * group.order)
    assert lacks(seq, criterion)
    elems = list(group.elements())
    misses = 0
    while len(seq) < max_len and misses < patience:
        cand = seq.with_term(rng.choice(elems))
        if lacks(cand, criterion):
            seq = cand
        else:
            misses += 1
    return seq
