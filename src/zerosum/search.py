"""Depth-first enumeration of the longest sequences lacking a zero-sum pattern.

The search walks multisets in nondecreasing element order, extending a prefix
only while it still lacks the forbidden pattern.  Lacking is hereditary under
taking subsequences, so the visited tree is exactly the downset of lacking
sequences and the deepest node gives the constant (max length + 1).

Two reductions, on wherever sound, shrink the tree without changing any result:

* automorphism pruning keeps only prefixes that are minimal in their orbit
  (sorted-tuple order); minimal multisets have minimal prefixes, so every
  orbit of maximal sequences keeps its representative.  The test is a
  lex-leader comparison against every automorphism (Crawford, Ginsberg,
  Luks and Roy, KR 1996), made in one of two ways with the same decision:
  where the packed table (_packed_table) has at most _PACKED_MAX_BITS bits,
  every node carries one integer with a field per automorphism, and a child
  is one big-int add and one mask; above that size, where the packed test
  is slower and, on the largest groups, would not fit in memory, a walk
  over a prefix trie of the automorphism permutations (_orbit_table,
  _is_orbit_minimal) compares a shared prefix once, and a lone permutation
  finishes with one tuple compare of its getter's image;
* translation normalization, sound only for the criteria that forbid
  zero-sums of lengths divisible by exp(G) (translating a length-L
  subsequence changes its sum by L*g = 0 when exp | L), forces the first
  chosen element to be 0 since every nonempty sequence has a translate
  containing 0.

A search returns the maximal tables it kept with the itemgetters of the
reductions in force (groups.aut_getters, _bits.shift_getters); SearchOutcome
re-expands them over the orbit only when a caller reads that set (the same
set under every option), and finds its least table by groups.least_image.

Each node extends its parent's state by one push of the criterion's stepper
(criteria._stepper).  One DFS (_dfs) serves every walk: the shallow walk from
the root stops at depth _TASK_DEPTH and collects the seed tasks there, each
seed task walks its subtree, and exists_lacking_subsequence() walks the
sub-multisets of one sequence and stops at the first node of a target length.

With workers > 1, where the platform can fork, the parent walks each seed
task down to depth _TASK_DEPTH + 2 and that many forked processes pull the
subtrees below it, one at a time, until none is left (the split is nauty
geng's res/mod idea, McKay and Piperno 2014, with subtrees pulled on demand).
The budget still caps each seed task: a seed whose parts pass it, or that has
a part cut short, is walked again whole in the parent, so every output,
incomplete runs included, is the same as with one worker.
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass
from functools import cached_property, lru_cache
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait
from operator import itemgetter
from typing import Optional

from ._bits import bit_tables, shift_getters
# _stepper stays importable from here: perfbench finds the push closures through it.
from .criteria import Criterion, _shared_stepper, _stepper  # noqa: F401
from .groups import AUT_ENUMERATION_MAX_ORDER, GroupSpec, aut_getters, aut_permutations, least_image
from .sequences import Sequence

DEFAULT_NODE_BUDGET = 2_000_000_000
_TASK_DEPTH = 2
# The packed test costs O(_packed_bits) per child, the trie walk a cost that
# depends on how long images tie.  Only the trie fits at the top of the
# pruned range (order <= 512): on C16+C32 the packed value would have 84M
# bits and its |G| deltas would take 5.4 GB.  Per node, on the same seed
# tasks spread over the search (2-core VM, CPython 3.11), the packed test
# wins 1.1-5x on every group measured up to C3+C36 (139,535 bits); the trie
# wins 1.1-1.2x on C4+C20 (153,583), the two are within 25% on C3+C42
# (217,259), and the trie wins 1.4-2.5x from C3+C33 (285,005) on, C7+C7
# (298,220) included.
_PACKED_MAX_BITS = 150_000


@dataclass(frozen=True)
class SearchOptions:
    """Search and reporting knobs.

    None of the search knobs may change computed results, only cost.
    aut_pruning and shift_normalize turn each reduction on wherever it is
    sound, False turns it off: pruning needs Aut(G) enumerated, i.e. group
    order <= AUT_ENUMERATION_MAX_ORDER (512), and translation normalization
    needs an exp-length criterion (EXACT_EXP, EXP_MULTIPLE); elsewhere the
    search runs without it.  node_budget None falls back to the
    ZEROSUM_BUDGET environment variable, then to DEFAULT_NODE_BUDGET; the
    budget caps visited nodes per search task (the shallow walk from the
    root, which is always visited, and each seed task).  workers > 1 forks
    that many processes, which pull the subtrees below depth 4 until none
    is left; the budget still caps each depth-2 seed task and every output
    is the same as with one worker.  Where the platform cannot fork, the
    seed tasks run serially.
    collect_all is read only by constants.longest_lacking: it makes the
    report carry every extremal sequence (the full orbit) instead of the
    least one (SearchOutcome.least).
    """

    collect_all: bool = False
    aut_pruning: bool = True
    shift_normalize: bool = True
    workers: int = 1
    node_budget: Optional[int] = None


@dataclass
class SearchOutcome:
    """The maximal multisets the DFS kept (as counts, sorted, distinct), the
    group and the getters of the reductions in force: aut_getters when
    pruning, shift_getters when normalizing.  sequences builds their full
    orbit on first read; least finds its first table by least_image.
    """

    group: GroupSpec
    max_length: int
    representatives: list[tuple[int, ...]]
    nodes: int
    complete: bool
    aut: tuple[itemgetter, ...] = ()
    shifts: tuple[itemgetter, ...] = ()

    @cached_property
    def sequences(self) -> list[tuple[int, ...]]:
        """Every maximal multiset, as counts, sorted."""
        found = set(self.representatives)
        for getters in (self.aut, self.shifts):
            base = list(found)
            for image in getters:
                found.update(map(image, base))
        return sorted(found)

    @property
    def least(self) -> tuple[int, ...]:
        """sequences[0], as least_image over the representatives (or their
        translates) with the best so far as the bound: no orbit, no sort."""
        tables = self.representatives
        if self.shifts:
            # Every image is an automorphic image of a translate (tuple stands
            # for the identity getter); automorphisms fix index 0, so only the
            # translates with the least count there can win.
            z = min(map(min, tables))
            tables = [h(t) for t in tables for h, c in zip((tuple, *self.shifts), t) if c == z]
        if not self.aut:  # unpruned: the tables are closed under Aut(G)
            return min(tables)
        best = None
        for t in tables:
            best = least_image(t, self.group, best) or best
        return best


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
    """Prefix trie of aut_permutations(group) for _is_orbit_minimal, the
    orbit test of the groups whose packed table is above _PACKED_MAX_BITS.

    A node (j, branches, leaves) groups the permutations still tied at
    position j by their image p[j]: branches holds (p[j], child node) for a
    group of two or more, leaves holds (p[j], getter) for a lone permutation,
    with its cached getter from aut_getters.  Positions fixed by every
    permutation of a node are skipped.  A trivial Aut(G) gives a node with
    nothing to compare.
    """
    perms = list(zip(aut_permutations(group), aut_getters(group)))
    return _orbit_node(perms, 0) if perms else (0, (), ())


def _orbit_node(perms, j):
    # perms are distinct non-identity (permutation, getter) pairs: some position >= j moves.
    while all(p[j] == j for p, _ in perms):
        j += 1
    by_image: dict[int, list] = {}
    for pg in perms:
        by_image.setdefault(pg[0][j], []).append(pg)
    ties = sorted(by_image.items())
    branches = tuple((v, _orbit_node(ps, j + 1)) for v, ps in ties if len(ps) > 1)
    leaves = tuple((v, ps[0][1]) for v, ps in ties if len(ps) == 1)
    return j, branches, leaves


def _is_orbit_minimal(counts: list[int], table) -> bool:
    # With p the permutation of alpha, the image counts under alpha^-1 are
    # counts[p[j]] at index j; the permutations are closed under inversion,
    # so this covers every image.  In the sorted-tuple order a multiset is
    # smaller when the first differing index carries a LARGER count, so any
    # such image disqualifies counts.  table is _orbit_table(group), so the
    # comparisons at a prefix that permutations share are made once for all
    # of them: at a node, a larger image count rejects counts, a smaller one
    # settles that branch, an equal one descends; a lone permutation, tied up
    # to j, finishes with one tuple compare of its image.  Each permutation
    # meets the comparisons of a plain loop, so every decision is the same,
    # and the same as the packed test's (_packed_table), which the DFS runs
    # instead wherever that table is small.
    key = tuple(counts)
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
        for v, getter in leaves:
            ci = counts[v]
            if ci != cj:
                if ci > cj:
                    return False
                continue
            if getter(counts) > key:
                return False
    return True


def _digit_width(group: GroupSpec) -> int:
    # g repeated exp times is a zero-sum of length exp, which every criterion
    # forbids, so the DFS never builds a count above exp - 1.
    return (group.exponent - 1).bit_length()


def _packed_bits(group: GroupSpec, width: int) -> int:
    return len(aut_permutations(group)) * (group.order * width + 1)


@lru_cache(maxsize=None)
def _packed_table(group: GroupSpec, width: int):
    """(guards, deltas) of the packed orbit test, for counts below 2**width.

    key(t) reads a table t as a base-2**width integer, index 0 most
    significant, so integer order is tuple order.  The packed value of t has
    one field of order*width + 1 bits per permutation p of
    aut_permutations(group); the field holds 2**(order*width) + key(t) -
    key(image of t under p), which is never negative, and its top bit is
    set iff the image is not a larger table.  guards has the top bit of
    every field set, and deltas[v] is what one more copy of v adds to the
    value, so t is orbit-minimal iff _packed_value(t) & guards == guards.
    """
    n = group.order
    size = n * width + 1
    perms = aut_permutations(group)
    guards = sum(1 << (k * size + size - 1) for k in range(len(perms)))
    # (The count at v moves to index p[v]; the permutations are closed under
    # inversion, so this runs over the same images as _is_orbit_minimal.)
    deltas = tuple(
        sum(((1 << width * (n - 1 - v)) - (1 << width * (n - 1 - pv))) << (k * size)
            for k, pv in enumerate(images) if pv != v)
        for v, images in enumerate(zip(*perms))
    ) if perms else (0,) * n
    return guards, deltas


def _packed_value(counts, guards: int, deltas) -> int:
    return guards + sum(c * d for c, d in zip(counts, deltas) if c)


class _BudgetExhausted(Exception):
    pass


class _TargetReached(Exception):
    pass


class _Ctx:
    """One walk's constants and tallies.  A node of length limit is not
    visited but appended to frontier or, with no frontier, ends the walk
    (_TargetReached); limit None walks the whole subtree.  With prune the
    walk keeps only orbit-minimal nodes, by the packed test (guards, deltas)
    where _packed_bits is at most _PACKED_MAX_BITS and by the trie above."""

    __slots__ = (
        "size", "neg", "push", "caps", "guards", "deltas", "trie", "budget", "cap", "limit",
        "frontier", "nodes", "best", "best_list", "complete",
    )

    def __init__(self, group, criterion, caps, prune, budget, cap, limit=None, frontier=None):
        tables = bit_tables(group)
        self.size = tables.size
        self.neg = tables.neg
        self.push = _shared_stepper(group, criterion)[1]
        self.caps = caps
        self.guards = self.deltas = self.trie = None
        if prune:
            width = _digit_width(group)
            if _packed_bits(group, width) <= _PACKED_MAX_BITS:
                self.guards, self.deltas = _packed_table(group, width)
            else:
                self.trie = _orbit_table(group)
        self.budget = budget
        self.cap = cap
        self.limit = limit
        self.frontier = frontier
        self.nodes = 0
        self.best = -1
        self.best_list: list[tuple[int, ...]] = []
        self.complete = True

    def orbit_value(self, counts):
        """The packed value of counts for _dfs, None off the packed test."""
        return None if self.deltas is None else _packed_value(counts, self.guards, self.deltas)


def _dfs(ctx: _Ctx, counts: list[int], state, start: int, length: int, orbit) -> None:
    # orbit is ctx.orbit_value(counts), kept up to date by one add per child.
    if length == ctx.limit:
        if ctx.frontier is None:
            raise _TargetReached
        ctx.frontier.append((tuple(counts), state, start))
        return
    ctx.nodes += 1
    if ctx.nodes > ctx.budget:
        ctx.complete = False
        raise _BudgetExhausted
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
    guards = ctx.guards
    deltas = ctx.deltas
    trie = ctx.trie
    push = ctx.push
    child = None
    for e in range(start, ctx.size):
        if (blocked >> neg[e]) & 1:
            continue
        if caps is not None and counts[e] >= caps[e]:
            continue
        if deltas is not None:
            child = orbit + deltas[e]
            if child & guards != guards:
                continue
        counts[e] += 1
        if trie is not None and not _is_orbit_minimal(counts, trie):
            counts[e] -= 1
            continue
        _dfs(ctx, counts, push(state, e), e, length + 1, child)
        counts[e] -= 1


def _walk(ctx: _Ctx, seed):
    """Walk the subtree below seed, a frontier node (counts, state, start)
    of length sum(counts): (best, best_list, nodes, complete)."""
    counts0, state, start = seed
    try:
        _dfs(ctx, list(counts0), state, start, sum(counts0), ctx.orbit_value(counts0))
    except _BudgetExhausted:
        pass
    return ctx.best, ctx.best_list, ctx.nodes, ctx.complete


def _run_seed(group, criterion, seed, prune, budget, cap):
    return _walk(_Ctx(group, criterion, None, prune, budget, cap), seed)


def _merge(parts):
    """Join the (best, best_list, nodes, complete) of walks over disjoint subtrees."""
    best, best_list, nodes, complete = -1, [], 0, True
    for b, bl, nn, comp in parts:
        nodes += nn
        complete = complete and comp
        if b > best:
            best = b
            best_list = list(bl)
        elif b == best:
            best_list.extend(bl)
    return best, best_list, nodes, complete


def _forked_seeds(seeds, workers, group, criterion, prune, budget, cap):
    """[_run_seed(..., seed, ...) for seed in seeds], the subtrees below
    depth _TASK_DEPTH + 2 run by forked workers.

    The parent walks each seed down to that depth and runs no subtree
    itself.  A seed whose parts, merged in subtree order, pass the budget or
    include a walk cut short is walked again whole, so that its result is
    the one a lone seed task gives, cut for cut.
    """
    heads, tasks, spans = [], [], []
    for seed in seeds:
        ctx = _Ctx(group, criterion, None, prune, budget, cap, _TASK_DEPTH + 2, [])
        heads.append(_walk(ctx, seed))
        subtrees = ctx.frontier if ctx.complete else []
        # A subtree past what the seed's budget leaves sends the seed back anyway.
        tasks += [(group, criterion, sub, prune, budget - ctx.nodes, cap) for sub in subtrees]
        spans.append(len(tasks))
    parts = _run_forked(tasks, workers)
    results, lo = [], 0
    for seed, head, hi in zip(seeds, heads, spans):
        merged = _merge([head, *parts[lo:hi]])
        if not merged[3] or merged[2] > budget:
            merged = _run_seed(group, criterion, seed, prune, budget, cap)
        results.append(merged)
        lo = hi
    return results


def _run_forked(tasks, workers):
    """[_run_seed(*t) for t in tasks], run by up to `workers` forked
    processes that each take the next task not yet taken until none is
    left, then send their results in one message.  A worker that fails or
    exits without sending makes this raise; every worker is joined before
    it returns."""
    mp = get_context("fork")
    results = [None] * len(tasks)
    taken = mp.Value("q", 0)
    procs, ends = [], []
    try:
        for _ in range(min(workers, len(tasks))):
            end, send = mp.Pipe(duplex=False)
            ends.append(end)
            proc = mp.Process(target=_worker, args=(tasks, taken, send))
            proc.start()
            procs.append(proc)
            # The child holds the only send end: its exit is an EOF here.
            send.close()
        live = list(ends)
        while live:
            for end in wait(live):
                live.remove(end)
                try:
                    ok, out = end.recv()
                except EOFError:
                    raise RuntimeError("a search worker exited without its results") from None
                if not ok:
                    raise RuntimeError(f"a search worker failed:\n{out}")
                for i, result in out:
                    results[i] = result
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for end in ends:
            end.close()
    return results


def _worker(tasks, taken, conn):
    # One message at the end: a message per task would wake the parent,
    # which shares the cores with the workers, once per task.
    try:
        done = []
        while True:
            with taken.get_lock():
                i = taken.value
                taken.value = i + 1
            if i >= len(tasks):
                break
            done.append((i, _run_seed(*tasks[i])))
        conn.send((True, done))
    except Exception:
        conn.send((False, traceback.format_exc()))
    finally:
        conn.close()


def longest_lacking_search(
    group: GroupSpec,
    criterion: Criterion,
    options: Optional[SearchOptions] = None,
    depth_cap: Optional[int] = None,
) -> SearchOutcome:
    """Exhaust the downset of criterion-lacking multisets over the group.

    Returns the maximum length and the maximal multisets, kept as orbit
    representatives (see the module docstring).
    """
    opts = options or SearchOptions()
    if opts.workers < 1:
        raise ValueError("workers must be >= 1")
    budget = resolve_budget(opts.node_budget)
    cap = depth_cap if depth_cap is not None else (1 << 30)

    shiftn = opts.shift_normalize and criterion in (Criterion.EXACT_EXP, Criterion.EXP_MULTIPLE)
    prune = opts.aut_pruning and group.order <= AUT_ENUMERATION_MAX_ORDER

    # Shallow walk: visit the root and depth-1 nodes, seed tasks at depth 2.
    # The root is visited whatever the budget, hence a budget of at least 1.
    state0, push = _shared_stepper(group, criterion)
    ctx = _Ctx(group, criterion, None, prune, max(budget, 1), cap, _TASK_DEPTH, [])
    counts = [0] * ctx.size
    try:
        if shiftn:
            # The root's one child is {0}, blocked only on C1; every
            # automorphism fixes 0, so {0} is orbit-minimal.
            ctx.nodes, ctx.best, ctx.best_list = 1, 0, [tuple(counts)]
            if not state0[0] & 1:
                counts[0] = 1
                _dfs(ctx, counts, push(state0, 0), 0, 1, ctx.orbit_value(counts))
        else:
            _dfs(ctx, counts, state0, 0, 0, ctx.orbit_value(counts))
    except _BudgetExhausted:
        pass

    seeds = ctx.frontier
    if opts.workers > 1 and "fork" in get_all_start_methods():
        results = _forked_seeds(seeds, opts.workers, group, criterion, prune, budget, cap)
    else:
        # One worker, or a platform that cannot fork: the seed tasks run
        # here, one after another, with the same results.
        results = [_run_seed(group, criterion, seed, prune, budget, cap) for seed in seeds]
    shallow = (ctx.best, ctx.best_list, ctx.nodes, ctx.complete)
    best, best_list, nodes, complete = _merge([shallow, *results])

    reductions = (aut_getters(group) if prune else (), shift_getters(group) if shiftn else ())
    return SearchOutcome(group, best, sorted(set(best_list)), nodes, complete, *reductions)


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
    state0 = _shared_stepper(seq.group, criterion)[0]
    ctx = _Ctx(seq.group, criterion, seq.counts, False, math.inf, target_length, target_length)
    try:
        _dfs(ctx, [0] * ctx.size, state0, 0, 0, None)
    except _TargetReached:
        return True
    return False
