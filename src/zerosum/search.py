"""Depth-first enumeration of the longest sequences lacking a zero-sum pattern.

The search walks multisets in nondecreasing element order, extending a prefix
only while it still lacks the forbidden pattern.  Lacking is hereditary under
taking subsequences, so the visited tree is exactly the downset of lacking
sequences and the deepest node gives the constant (max length + 1).

Two optional reductions shrink the tree without changing any result:

* automorphism pruning keeps only prefixes that are minimal in their orbit
  (sorted-tuple order); minimal multisets have minimal prefixes, so every
  orbit of maximal sequences keeps its representative.  The test is a
  lex-leader comparison against every automorphism (Crawford, Ginsberg,
  Luks and Roy, KR 1996), walked over a prefix trie of the automorphism
  permutations (_orbit_table) so that comparisons at a prefix the
  permutations share are made once;
* translation normalization, sound only for the criteria that forbid
  zero-sums of lengths divisible by exp(G) (translating a length-L
  subsequence changes its sum by L*g = 0 when exp | L), forces the first
  chosen element to be 0 since every nonempty sequence has a translate
  containing 0.

Whenever a reduction is on, the collected maximal set is re-expanded over the
orbit before reporting, so all option combinations return identical results.
The re-expansion maps one itemgetter per automorphism and per translation
(groups.aut_getters, _bits.shift_getters) over the tables found so far.

Each node extends its parent's state by one push of the criterion's stepper
(criteria._stepper); exists_lacking_subsequence() runs the same DFS over the
sub-multisets of one sequence and stops at the first node of a target length.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import get_all_start_methods, get_context
from typing import Callable, Optional

from ._bits import bit_tables, shift_getters
from .criteria import Criterion, _stepper
from .groups import GroupSpec, aut_getters, aut_permutations, automorphisms
from .sequences import Sequence

DEFAULT_NODE_BUDGET = 2_000_000_000
AUT_PRUNING_MAX = 1000
_TASK_DEPTH = 2
_PROGRESS_MASK = (1 << 18) - 1


@dataclass(frozen=True)
class SearchOptions:
    """Search and reporting knobs.

    None of the search knobs may change computed results, only cost.
    aut_pruning / shift_normalize default to automatic choices; an explicit
    True/False forces them.  node_budget None falls back to the
    ZEROSUM_BUDGET environment variable, then to DEFAULT_NODE_BUDGET; the
    budget caps visited nodes per search task.  workers > 1 runs the seed
    tasks in a fork pool, or serially where the platform cannot fork.
    collect_all is read only by constants.longest_lacking: it makes the
    report carry every extremal sequence instead of the least one.
    """

    collect_all: bool = False
    aut_pruning: Optional[bool] = None
    shift_normalize: Optional[bool] = None
    workers: int = 1
    node_budget: Optional[int] = None
    progress: Optional[Callable[[int, int], None]] = None


@dataclass
class SearchOutcome:
    max_length: int
    sequences: list[tuple[int, ...]]  # every maximal multiset, as counts, sorted
    nodes: int
    complete: bool


def resolve_budget(explicit: Optional[int]) -> int:
    if explicit is None:
        env = os.environ.get("ZEROSUM_BUDGET")
        if not env:
            return DEFAULT_NODE_BUDGET
        try:
            explicit = int(env)
        except ValueError:
            raise ValueError(f"ZEROSUM_BUDGET must be an integer, got {env!r}") from None
    if explicit < 0:
        raise ValueError("node budget must be >= 0")
    return explicit


@lru_cache(maxsize=None)
def _orbit_table(group: GroupSpec):
    """Prefix trie of aut_permutations(group) for _is_orbit_minimal.

    A node (j, branches, leaves) groups the permutations still tied at
    position j by their image p[j]: branches holds (p[j], child node) for a
    group of two or more, leaves holds (p[j], p) for a lone permutation,
    which is the shared tuple from aut_permutations, not a copy.  Positions
    fixed by every permutation of a node are skipped.  A trivial Aut(G)
    gives a node with nothing to compare.
    """
    perms = aut_permutations(group)
    return _orbit_node(perms, 0) if perms else (0, (), ())


def _orbit_node(perms, j):
    # perms are distinct and not the identity, so some position >= j moves.
    while all(p[j] == j for p in perms):
        j += 1
    by_image: dict[int, list] = {}
    for p in perms:
        by_image.setdefault(p[j], []).append(p)
    ties = sorted(by_image.items())
    branches = tuple((v, _orbit_node(ps, j + 1)) for v, ps in ties if len(ps) > 1)
    leaves = tuple((v, ps[0]) for v, ps in ties if len(ps) == 1)
    return j, branches, leaves


def _is_orbit_minimal(counts: list[int], table) -> bool:
    # With p the permutation of alpha, the image counts under alpha^-1 are
    # counts[p[j]] at index j; the permutations are closed under inversion,
    # so this covers every image.  In the sorted-tuple order a multiset is
    # smaller when the first differing index carries a LARGER count, so any
    # such image disqualifies counts.  table is _orbit_table(group), so the
    # comparisons at a prefix that permutations share are made once for all
    # of them: at a node, a larger image count rejects counts, a smaller one
    # settles that branch, an equal one descends; a lone permutation finishes
    # with the plain scan.  Each permutation meets the same comparisons as
    # in a loop over the permutations, so every decision is the same.
    size = len(counts)
    stack = [table]
    while stack:
        j, branches, leaves = stack.pop()
        cj = counts[j]
        for v, child in branches:
            ci = counts[v]
            if ci == cj:
                stack.append(child)
            elif ci > cj:
                return False
        for v, p in leaves:
            ci = counts[v]
            if ci != cj:
                if ci > cj:
                    return False
                continue
            for k in range(j + 1, size):
                ck = counts[k]
                ci = counts[p[k]]
                if ci != ck:
                    if ci > ck:
                        return False
                    break
    return True


class _BudgetExhausted(Exception):
    pass


class _TargetReached(Exception):
    pass


class _Ctx:
    __slots__ = (
        "size", "neg", "push", "caps", "orbits", "budget", "nodes",
        "best", "best_list", "cap", "progress", "complete", "first_only",
    )

    def __init__(self, size, neg, push, caps, orbits, budget, cap, progress):
        self.size = size
        self.neg = neg
        self.push = push
        self.caps = caps
        self.orbits = orbits
        self.budget = budget
        self.cap = cap
        self.progress = progress
        self.nodes = 0
        self.best = -1
        self.best_list: list[tuple[int, ...]] = []
        self.complete = True
        self.first_only = False  # stop at the first frontier node


def _dfs(ctx: _Ctx, counts: list[int], state, start: int, length: int, limit, frontier) -> None:
    if frontier is not None and length == limit:
        if ctx.first_only:
            raise _TargetReached
        frontier.append((tuple(counts), state, start))
        return
    ctx.nodes += 1
    if ctx.nodes > ctx.budget:
        ctx.complete = False
        raise _BudgetExhausted
    if ctx.progress is not None and not (ctx.nodes & _PROGRESS_MASK):
        ctx.progress(ctx.nodes, length)
    if length >= ctx.best:
        if length > ctx.best:
            if length > ctx.cap:
                raise RuntimeError(
                    f"search depth {length} exceeded the safety cap {ctx.cap}: "
                    "this indicates an implementation bug"
                )
            ctx.best = length
            ctx.best_list = [tuple(counts)]
        else:
            ctx.best_list.append(tuple(counts))
    blocked = state[0]
    neg = ctx.neg
    caps = ctx.caps
    orbits = ctx.orbits
    push = ctx.push
    for e in range(start, ctx.size):
        if (blocked >> neg[e]) & 1:
            continue
        if caps is not None and counts[e] >= caps[e]:
            continue
        counts[e] += 1
        if orbits is not None and not _is_orbit_minimal(counts, orbits):
            counts[e] -= 1
            continue
        _dfs(ctx, counts, push(state, e), e, length + 1, limit, frontier)
        counts[e] -= 1


def _run_seed(group, criterion, seed, prune, budget, cap):
    counts0, state, start = seed
    tables = bit_tables(group)
    _, push = _stepper(group, criterion)
    orbits = _orbit_table(group) if prune else None
    ctx = _Ctx(tables.size, tables.neg, push, None, orbits, budget, cap, None)
    try:
        _dfs(ctx, list(counts0), state, start, _TASK_DEPTH, None, None)
    except _BudgetExhausted:
        pass
    return ctx.best, ctx.best_list, ctx.nodes, ctx.complete


def _seed_entry(args):
    return _run_seed(*args)


def longest_lacking_search(
    group: GroupSpec,
    criterion: Criterion,
    options: Optional[SearchOptions] = None,
    depth_cap: Optional[int] = None,
) -> SearchOutcome:
    """Exhaust the downset of criterion-lacking multisets over the group.

    Returns the maximum length together with every maximal multiset (the
    full set regardless of reductions; see the module docstring).
    """
    opts = options or SearchOptions()
    if opts.workers < 1:
        raise ValueError("workers must be >= 1")
    budget = resolve_budget(opts.node_budget)
    cap = depth_cap if depth_cap is not None else (1 << 30)

    shift_invariant = criterion in (Criterion.EXACT_EXP, Criterion.EXP_MULTIPLE)
    shiftn = opts.shift_normalize if opts.shift_normalize is not None else shift_invariant
    if shiftn and not shift_invariant:
        raise ValueError("translation normalization is only sound for exp-length criteria")

    if opts.aut_pruning is None:
        try:
            prune = len(automorphisms(group)) <= AUT_PRUNING_MAX
        except ValueError:
            prune = False
    else:
        prune = opts.aut_pruning
    orbits = _orbit_table(group) if prune else None

    tables = bit_tables(group)
    state0, push = _stepper(group, criterion)
    ctx = _Ctx(tables.size, tables.neg, push, None, orbits, budget, cap, opts.progress)

    # Shallow walk: record the root and depth-1 nodes, seed tasks at depth 2.
    frontier: list = []
    counts = [0] * tables.size
    ctx.nodes += 1
    ctx.best = 0
    ctx.best_list = [tuple(counts)]
    root_end = 1 if shiftn else tables.size
    try:
        for e in range(root_end):
            if (state0[0] >> tables.neg[e]) & 1:
                continue
            counts[e] = 1
            if orbits is not None and not _is_orbit_minimal(counts, orbits):
                counts[e] = 0
                continue
            _dfs(ctx, counts, push(state0, e), e, 1, _TASK_DEPTH, frontier)
            counts[e] = 0
    except _BudgetExhausted:
        pass

    best, best_list, nodes, complete = ctx.best, ctx.best_list, ctx.nodes, ctx.complete
    args = [(group, criterion, seed, prune, budget, cap) for seed in frontier]
    # Where the platform cannot fork, the seed tasks run serially: same results.
    if opts.workers > 1 and len(args) > 1 and "fork" in get_all_start_methods():
        with get_context("fork").Pool(opts.workers) as pool:
            results = pool.map(_seed_entry, args, chunksize=max(1, len(args) // (opts.workers * 4)))
    else:
        results = [_seed_entry(a) for a in args]

    for b, bl, nn, comp in results:
        nodes += nn
        complete = complete and comp
        if b > best:
            best = b
            best_list = list(bl)
        elif b == best:
            best_list.extend(bl)

    found = set(best_list)
    if prune:
        base = list(found)
        for image in aut_getters(group):
            found.update(map(image, base))
    if shiftn:
        base = list(found)
        for image in shift_getters(group):
            found.update(map(image, base))
    return SearchOutcome(best, sorted(found), nodes, complete)


def exists_lacking_subsequence(seq: Sequence, criterion: Criterion, target_length: int) -> bool:
    """Does seq have a criterion-lacking subsequence of the given length?

    (Lacking is hereditary, so a sequence of length >= target exists iff one
    of exactly target does.)  Runs the search DFS over the sub-multisets of
    seq, capped by its multiplicities, and stops at the first node of the
    target length.
    """
    if target_length <= 0:
        return True
    if target_length > len(seq):
        return False
    tables = bit_tables(seq.group)
    state0, push = _stepper(seq.group, criterion)
    ctx = _Ctx(tables.size, tables.neg, push, seq.counts, None, math.inf, target_length, None)
    ctx.first_only = True
    try:
        _dfs(ctx, [0] * tables.size, state0, 0, 0, target_length, [])
    except _TargetReached:
        return True
    return False
