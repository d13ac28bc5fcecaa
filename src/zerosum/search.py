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
set under every option).  Its least table and its automorphism classes come
from the representatives and their translates by groups.least_image, and its
size from the classes, without the orbit.

Each node extends its parent's state, one integer, by one push of the
criterion's stepper (criteria._stepper); state >> top is its blocked set,
the elements that no child may append.  A node's children are the set bits
of its candidate mask (the elements from its last one on; 0 alone at a
translation-normalized root) less the blocked set, lowest first: the order
of a loop over the elements, but a node with none runs no loop.
One DFS (_dfs) serves every walk: a search is one walk from the root, and
exists_lacking_subsequence() walks the sub-multisets of one sequence and
stops at the first node of a target length.  The node budget caps the nodes
one search visits, so a search cut short reports exactly that many.

The one walk of check_direct_formulas (_ONE_WALK) walks s and tallies the
other three constants on its nodes.  Its stepper keeps s's exact rows up to
the depth cap (criteria._stepper's last_row), so a node lacks s_exp_mult
iff bit 0 is clear in its rows k*exp(G): a zero-sum of a length divisible
by exp(G) is hereditary, so those nodes are the s_exp_mult walk's subtree,
under the same reductions.  T lacks short zero-sums iff 0^(exp-1) T lacks
zero-sums of length exp, and a zero-sum of T pads with zeros to a length
divisible by exp, so s - eta = s_exp_mult - D = exp - 1: the nodes with
count exp - 1 at index 0, the subtree below 0^(exp-1), are the eta walk
with 0^(exp-1) in front, and those that lack s_exp_mult the D walk.
Automorphisms fix 0, so pruning keeps the same nodes.  Every outcome,
nodes included, is that of a walk of its own.  The budget counts the s
nodes, so a walk cut short keeps only s's outcome.

With workers > 1, where the platform can fork, the parent walks from the
root down to depth _SPLIT_DEPTH and that many forked processes pull the
subtrees below it, one at a time, until none is left (the split is nauty
geng's res/mod idea, McKay and Piperno 2014, with subtrees pulled on demand);
only a search with workers > 1 imports multiprocessing.  A split search
that does not complete within the budget is walked again in one process, so
every output, incomplete runs included, is the same as with one worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Optional

from ._bits import shift_getters
# perfbench finds the push closures through search._stepper.
from .criteria import Criterion, _shared_stepper, _stepper, formula_value
from .groups import (
    AUT_ENUMERATION_MAX_ORDER, GroupSpec, _orbit_size, aut_getters, aut_permutations,
    least_image,
)
from .sequences import Sequence

DEFAULT_NODE_BUDGET = 2_000_000_000
_SPLIT_DEPTH = 4  # with workers > 1, forked workers take the subtrees below it
# The packed test costs O(_packed_bits) per child, the trie walk a cost that
# depends on how long images tie.  Only the trie fits at the top of the
# pruned range (order <= 512): on C16+C32 the packed value would have 84M
# bits and its |G| deltas would take 5.4 GB.  Per node, on the same depth-2
# subtrees spread over the search (2-core VM, CPython 3.11), the packed test
# wins 1.1-5x on every group measured up to C3+C36 (139,535 bits); the trie
# wins 1.1-1.2x on C4+C20 (153,583), the two are within 25% on C3+C42
# (217,259), and the trie wins 1.4-2.5x from C3+C33 (285,005) on, C7+C7
# (298,220) included.
_PACKED_MAX_BITS = 150_000
# The criteria of check_direct_formulas's one walk, in the order it reports
# them: s walked, s_exp_mult read off its rows, eta and D off its slice.
_ONE_WALK = (Criterion.EXACT_EXP, Criterion.EXP_MULTIPLE, Criterion.SHORT, Criterion.ANY)


@dataclass(frozen=True)
class SearchOptions:
    """Search and reporting knobs.

    None of the search knobs may change computed results, only cost.
    aut_pruning and shift_normalize turn each reduction on wherever it is
    sound, False turns it off: pruning needs Aut(G) enumerated, i.e. group
    order <= AUT_ENUMERATION_MAX_ORDER (512), and translation normalization
    needs an exp-length criterion (EXACT_EXP, EXP_MULTIPLE); elsewhere the
    search runs without it.  node_budget caps the nodes one search visits;
    a search cut short visits exactly that many, so a budget of 0 visits
    not even the root.  workers > 1 forks that many processes, which pull
    the subtrees below depth 4 until none is left; every output is the same
    as with one worker.  Where the platform cannot fork, the search runs in
    one process.

    Construction raises ValueError on workers < 1 or node_budget < 0.  This
    is the only check of the two, and the CLI builds its options before it
    runs a command, so every command rejects them.
    """

    aut_pruning: bool = True
    shift_normalize: bool = True
    workers: int = 1
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.node_budget < 0:
            raise ValueError("node budget must be >= 0")


@dataclass
class SearchOutcome:
    """The maximal multisets the DFS kept (as counts, sorted, distinct), the
    group and the getters of the reductions in force: aut_getters when
    pruning, shift_getters when normalizing.  Together these generate H,
    Aut(G) (or the identity) times the translations (or the identity), and
    the maximal multisets are the H-orbits of the representatives.

    sequences builds that whole orbit on first read, for the callers that
    list it.  The other reads work from the representatives and never build
    it: least finds its first table and classes its automorphism classes by
    least_image, and orbit_count its size from the classes.
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
        """sequences[0], with no orbit and no sort."""
        return self._least_of(self.representatives)

    @cached_property
    def orbit_count(self) -> int:
        """len(sequences) of a complete search, as the summed sizes of its
        automorphism classes: the maximal tables of a complete search are
        closed under Aut(G), and classes lists the least table of each class.
        A class's size is |Aut(G)| over its least table's stabilizer, the
        getters tied at the end of least_image (groups._orbit_size).  (A
        search cut short keeps tables that need not be closed; only
        check_property reads this, and only on complete runs.)"""
        return sum(_orbit_size(c, self.group) for c in self.classes)

    @cached_property
    def classes(self) -> list[tuple[int, ...]]:
        """sorted({least_image(s, group) for s in sequences}): the least table
        of each automorphism class.  least_image is constant on a class, and
        every member of the orbit is an automorphic image of a translate of
        a representative, so the translates of the representatives meet
        every class.  (Unpruned, they are the whole orbit.)"""
        translates = {t for r in self.representatives for t in self._translates(r)}
        return sorted({least_image(t, self.group) for t in translates})

    def _translates(self, table, z=None) -> list[tuple[int, ...]]:
        """table's translates under the translations in force (just table
        when normalization is off), table first; with z, only those with
        count z at index 0.  (The getter of shifts[h - 1] moves index h to
        index 0; tuple stands for the identity.)"""
        if not self.shifts:
            return [tuple(table)]
        return [h(table) for h, c in zip((tuple, *self.shifts), table) if z is None or c == z]

    def _least_of(self, tables) -> tuple[int, ...]:
        """The least table of the H-orbits of tables, as least_image over
        their translates with the best so far as the bound.  Automorphisms
        fix index 0, so only the translates with the least count there can
        win."""
        z = min(map(min, tables))
        tables = [t for table in tables for t in self._translates(table, z)]
        if not self.aut:  # unpruned: H holds no automorphism
            return min(tables)
        best = None
        for t in tables:
            best = least_image(t, self.group, best) or best
        return best


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


class _Tally:
    """One criterion's tallies in a walk: the nodes it visited, the deepest
    length so far with the tables of that length, and the depth cap (the
    closed formula + 2, see longest_lacking_search)."""

    __slots__ = ("cap", "nodes", "best", "best_list")

    def __init__(self, group, criterion):
        self.cap = formula_value(group, criterion) + 2
        self.nodes = 0
        self.best = -1
        self.best_list: list[tuple[int, ...]] = []

    def record(self, counts, length) -> None:
        """Keep counts, a node of length >= best."""
        if length > self.best:
            if length > self.cap:
                raise RuntimeError(
                    f"search depth {length} exceeded the safety cap {self.cap}: "
                    "this indicates an implementation bug"
                )
            self.best = length
            self.best_list = [tuple(counts)]
        else:
            self.best_list.append(tuple(counts))


class _Ctx(_Tally):
    """One walk's constants and the tallies of its criterion, criteria[0].
    A node of length limit is not visited but appended to frontier or, with
    no frontier, ends the walk (_TargetReached); limit None walks the whole
    subtree.  With prune the walk keeps only orbit-minimal nodes, by the
    packed test (guards, deltas) where _packed_bits is at most
    _PACKED_MAX_BITS and by the trie above.

    A node's blocked set is state >> top.  The one walk, criteria =
    _ONE_WALK, also tallies s_exp_mult, eta and D in self.more: its stepper
    keeps s's rows up to the cap, zeros has bit 0 of each row k*exp set,
    and pad = exp - 1 is the slice's count at index 0."""

    __slots__ = (
        "from_mask", "push", "top", "caps", "guards", "deltas", "trie", "budget", "limit",
        "frontier", "complete", "more", "zeros", "pad",
    )

    def __init__(self, group, criteria, caps, prune, budget, limit=None, frontier=None):
        super().__init__(group, criteria[0])
        self.from_mask = _from_masks(group.order)
        self.caps = caps
        self.guards = self.deltas = self.trie = None
        if prune:
            width = _digit_width(group)
            if _packed_bits(group, width) <= _PACKED_MAX_BITS:
                self.guards, self.deltas = _packed_table(group, width)
            else:
                self.trie = _orbit_table(group)
        self.budget = budget
        self.limit = limit
        self.frontier = frontier
        self.complete = True
        if len(criteria) > 1:
            exp = group.exponent
            _, self.push, self.top = _stepper(group, criteria[0], self.cap)
            self.more = tuple(_Tally(group, c) for c in criteria[1:])
            lengths = Criterion.EXP_MULTIPLE.forbidden_lengths(exp, self.cap)
            self.zeros = sum(1 << (l * group.order) for l in lengths)
            self.pad = exp - 1
        else:
            _, self.push, self.top = _shared_stepper(group, criteria[0])
            self.more = None

    def orbit_value(self, counts):
        """The packed value of counts for _dfs, None off the packed test."""
        return None if self.deltas is None else _packed_value(counts, self.guards, self.deltas)


@lru_cache(maxsize=None)
def _from_masks(size: int) -> tuple[int, ...]:
    """from_masks[e]: the bits of the elements e..size-1, the candidate
    mask of a node whose last element is e."""
    return tuple(((1 << size) - 1) >> e << e for e in range(size))


def _dfs(ctx: _Ctx, counts: list[int], state: int, mask: int, length: int, orbit) -> None:
    """Visit the node counts and walk below it: state is its stepper's
    integer, mask its candidate children (from_mask[e] after appending e),
    orbit ctx.orbit_value(counts), kept up to date by one add per child."""
    if length == ctx.limit:
        if ctx.frontier is None:
            raise _TargetReached
        ctx.frontier.append((tuple(counts), state, mask))
        return
    if ctx.nodes == ctx.budget:
        raise _BudgetExhausted
    ctx.nodes += 1
    if length >= ctx.best:
        ctx.record(counts, length)
    more = ctx.more
    if more is not None:  # the one walk: s_exp_mult, then eta and D on the slice
        mult, eta, d = more
        lacks_mult = not state & ctx.zeros
        if lacks_mult:
            mult.nodes += 1
            if length >= mult.best:
                mult.record(counts, length)
        if counts[0] == ctx.pad:
            short = length - ctx.pad
            eta.nodes += 1
            if short >= eta.best:
                eta.record(counts, short)
            if lacks_mult:
                d.nodes += 1
                if short >= d.best:
                    d.record(counts, short)
    # The children: the candidates not blocked, lowest first, as a loop
    # over the elements would take them.
    free = mask & ~(state >> ctx.top)
    if not free:
        return
    from_mask = ctx.from_mask
    caps = ctx.caps
    guards = ctx.guards
    deltas = ctx.deltas
    trie = ctx.trie
    push = ctx.push
    child = None
    while free:
        bit = free & -free
        free ^= bit
        e = bit.bit_length() - 1
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
        _dfs(ctx, counts, push(state, e), from_mask[e], length + 1, child)
        counts[e] -= 1


def _walk(ctx: _Ctx, top):
    """Walk the subtree below top, the root or a frontier node (counts,
    state, mask) as _dfs takes them: one (best, best_list, nodes, complete)
    per criterion of ctx, in its order."""
    counts0, state, mask = top
    try:
        _dfs(ctx, list(counts0), state, mask, sum(counts0), ctx.orbit_value(counts0))
    except _BudgetExhausted:
        ctx.complete = False
    return [(t.best, t.best_list, t.nodes, ctx.complete) for t in (ctx, *(ctx.more or ()))]


def _run_subtree(group, criteria, top, prune, budget):
    return _walk(_Ctx(group, criteria, None, prune, budget), top)


def _merge(parts):
    """Join the _walk results of walks over disjoint subtrees, criterion by criterion."""
    merged = []
    for walks in zip(*parts):
        best, best_list, nodes, complete = -1, [], 0, True
        for b, bl, nn, comp in walks:
            nodes += nn
            complete = complete and comp
            if b > best:
                best = b
                best_list = list(bl)
            elif b == best:
                best_list.extend(bl)
        merged.append((best, best_list, nodes, complete))
    return merged


def _forked_search(root, workers, group, criteria, prune, budget):
    """_run_subtree(..., root, ...), with the subtrees below depth
    _SPLIT_DEPTH run by forked workers; the parent runs none of them.  A
    split search whose parts pass the budget or include a walk cut short is
    walked again in one process, so its result is a single walk's, cut for
    cut."""
    ctx = _Ctx(group, criteria, None, prune, budget, _SPLIT_DEPTH, [])
    head = _walk(ctx, root)
    if ctx.complete:
        # A subtree past what the head leaves of the budget sends the search back anyway.
        tasks = [(group, criteria, sub, prune, budget - ctx.nodes) for sub in ctx.frontier]
        merged = _merge([head, *_run_forked(tasks, workers)])
        _, _, nodes, complete = merged[0]
        if complete and nodes <= budget:
            return merged
    return _run_subtree(group, criteria, root, prune, budget)


def _can_fork() -> bool:
    # multiprocessing is imported only here and in _run_forked: a search
    # with one worker never loads it.
    from multiprocessing import get_all_start_methods

    return "fork" in get_all_start_methods()


def _run_forked(tasks, workers):
    """[_run_subtree(*t) for t in tasks], run by up to `workers` forked
    processes that each take the next task not yet taken until none is
    left, then send their results in one message.  A worker that fails or
    exits without sending makes this raise; every worker is joined before
    it returns."""
    from multiprocessing import get_context
    from multiprocessing.connection import wait

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
            done.append((i, _run_subtree(*tasks[i])))
        conn.send((True, done))
    except Exception:
        import traceback

        conn.send((False, traceback.format_exc()))
    finally:
        conn.close()


def longest_lacking_search(
    group: GroupSpec, criterion: Criterion, options: Optional[SearchOptions] = None
) -> SearchOutcome:
    """Exhaust the downset of criterion-lacking multisets over the group.

    Returns the maximum length and the maximal multisets, kept as orbit
    representatives (see the module docstring).  A node deeper than the
    constant's closed formula + 2 (formula_value) raises RuntimeError: the
    deepest node has length formula - 1, so such a node is a bug.
    """
    return _search(group, (criterion,), options)[0]


def _search(group: GroupSpec, criteria, options: Optional[SearchOptions]) -> list[SearchOutcome]:
    """longest_lacking_search for criteria[0], or for the four criteria of
    _ONE_WALK in one walk (see the module docstring): a SearchOutcome per
    criterion, each the one longest_lacking_search returns.  The one walk
    cut short by the budget returns s's outcome only (the walk of its own
    is cut at the same node); the other three must then be searched alone."""
    opts = options or SearchOptions()
    criterion = criteria[0]
    shiftn = opts.shift_normalize and criterion in (Criterion.EXACT_EXP, Criterion.EXP_MULTIPLE)
    prune = opts.aut_pruning and group.order <= AUT_ENUMERATION_MAX_ORDER

    # Every nonempty sequence has a translate containing 0, which every
    # automorphism fixes: a normalized root has the one candidate 0.
    mask = 1 if shiftn else (1 << group.order) - 1
    root = ((0,) * group.order, _shared_stepper(group, criterion)[0], mask)
    if opts.workers > 1 and _can_fork():
        found = _forked_search(root, opts.workers, group, criteria, prune, opts.node_budget)
    else:  # one worker, or a platform that cannot fork
        found = _run_subtree(group, criteria, root, prune, opts.node_budget)
    if not found[0][3]:
        found = found[:1]

    aut = aut_getters(group) if prune else ()
    shifts = shift_getters(group) if shiftn else ()
    outcomes = [
        SearchOutcome(group, best, sorted(set(best_list)), nodes, complete, aut, shifts)
        for best, best_list, nodes, complete in found[:2]
    ]
    pad = group.exponent - 1
    for best, best_list, nodes, complete in found[2:]:
        # eta and D: the slice's tables less 0^(exp-1), walked with no translations.
        tables = sorted({(c[0] - pad, *c[1:]) for c in best_list})
        outcomes.append(SearchOutcome(group, best, tables, nodes, complete, aut))
    return outcomes


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
    ctx = _Ctx(seq.group, (criterion,), seq.counts, False, math.inf, target_length)
    try:
        _dfs(ctx, [0] * seq.group.order, state0, ctx.from_mask[0], 0, None)
    except _TargetReached:
        return True
    return False
