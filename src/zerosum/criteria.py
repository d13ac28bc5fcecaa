"""The four zero-sum constraints and exact decision procedures for them.

Decisions run on exact reachability tables over (subsequence length, sum),
never on the 2^|S| subsets.  The per-criterion stepper (_stepper) grows one
term at a time and keeps only the rows its criterion needs; lacks(), the
search DFS and exists_lacking_subsequence() share one per (group, criterion)
(_shared_stepper).  The length-indexed profile, a bounded-knapsack pass over
the support, records every exact length; build_profile(),
has_zero_sum_of_length() and witness() run on it.

Both tables pack their rows into one integer, row l at bits
[l*|G|, (l+1)*|G|), so adding a term translates every row with one
shift_mask call on the repeated-row masks of _bits.row_parts (one table per
group, rebuilt with twice the rows when a caller needs more).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from ._bits import add_table, bit_tables, row_parts, shift_mask
from .groups import Element, GroupSpec
from .sequences import Sequence, shift


class Criterion(Enum):
    """Which zero-sum subsequence shape is forbidden.

    ANY forbids every nonempty zero-sum subsequence (Davenport constant D);
    SHORT forbids lengths in [1, exp(G)] (the eta constant); EXACT_EXP
    forbids length exactly exp(G) (the Erdos-Ginzburg-Ziv constant s);
    EXP_MULTIPLE forbids lengths k*exp(G), k >= 1.  Enum values are the
    short names used in reports.
    """

    ANY = "D"
    SHORT = "eta"
    EXACT_EXP = "s"
    EXP_MULTIPLE = "s_exp_mult"

    @classmethod
    def from_name(cls, name: str) -> "Criterion":
        for c in cls:
            if name == c.value or name == c.name:
                return c
        raise ValueError(f"unknown criterion {name!r}")

    def forbidden_lengths(self, exp: int, total: int) -> range:
        """Subsequence lengths forbidden for a sequence of the given length."""
        if self is Criterion.ANY:
            return range(1, total + 1)
        if self is Criterion.SHORT:
            return range(1, min(exp, total) + 1)
        if self is Criterion.EXACT_EXP:
            return range(exp, min(exp, total) + 1)
        return range(exp, total + 1, exp)


def _stepper(group: GroupSpec, criterion: Criterion):
    """Per-criterion incremental state.

    A state's first entry is the "blocked" set: appending e creates a
    forbidden zero-sum iff -e lies in it.  For ANY it is the whole state,
    the sums of all subsequences.  Otherwise the second entry packs the rows
    needed to maintain it into one integer, row l at bits [l*|G|, (l+1)*|G|)
    (see _bits): reachable sums by subsequence length l < exp for
    SHORT/EXACT_EXP, by length l mod exp (nonempty) for EXP_MULTIPLE.  One
    push translates every row with one shift_mask call.
    """
    tables = bit_tables(group)
    size = tables.size
    exp = group.exponent
    top = (exp - 1) * size  # bit offset of row exp-1

    if criterion is Criterion.ANY:
        parts = tables.parts

        def push(state, e):
            x = state[0]
            return (x | shift_mask(x, parts[e]),)

        return (1,), push

    if criterion is Criterion.EXACT_EXP:
        parts = row_parts(group, exp - 1)
        below_top = (1 << top) - 1

        def push(state, e):
            packed = state[1]
            packed |= shift_mask(packed & below_top, parts[e]) << size
            return (packed >> top, packed)

        return (1 if exp == 1 else 0, 1), push

    if criterion is Criterion.SHORT:
        parts = row_parts(group, exp - 1)
        below_top = (1 << top) - 1
        # Fold the exp rows onto row 0, halving (rounded up) the live rows per
        # step; bits above the live rows are ORs of genuine rows, so harmless.
        folds = []
        live = exp
        while live > 1:
            live = (live + 1) // 2
            folds.append(live * size)
        row0 = tables.full_mask

        def push(state, e):
            packed = state[1]
            packed |= shift_mask(packed & below_top, parts[e]) << size
            x = packed
            for f in folds:
                x |= x >> f
            return (x & row0, packed)

        return (1, 1), push

    parts = row_parts(group, exp)
    all_rows = (1 << (exp * size)) - 1
    # The singleton e sits in row 1 mod exp; with exp == 1 the only row is
    # also the top one and the empty subsequence blocks 0 (hence `low`).
    row1 = (1 % exp) * size
    low = 1 if exp == 1 else 0

    def push(state, e):
        packed = state[1]
        x = shift_mask(packed, parts[e])
        packed |= ((x << size) & all_rows) | (x >> top) | (1 << (row1 + e))
        return ((packed >> top) | low, packed)

    return (low, 0), push


@lru_cache(maxsize=None)
def _shared_stepper(group: GroupSpec, criterion: Criterion):
    """_stepper(group, criterion), built once: states are tuples and push is pure."""
    return _stepper(group, criterion)


@dataclass(frozen=True)
class SumProfile:
    """Reachability table: entry (l, g) says some length-l subsequence sums to g.

    rows[l] is a bitmask over element indices; entry (0, 0) is always true
    (the empty subsequence) and rows only ever gain entries as terms are
    incorporated.
    """

    group: GroupSpec
    limit: int
    rows: tuple[int, ...]

    def contains(self, length: int, elem: Element) -> bool:
        if not 0 <= length <= self.limit:
            raise ValueError(f"length {length} outside profile limit {self.limit}")
        return bool((self.rows[length] >> elem.index) & 1)


def _knapsack_stages(seq: Sequence, limit: int):
    """Fill the (length, sum) table with rows 0..limit, one support element at a time.

    Yields the table, packed into one integer (row l at bits
    [l*|G|, (l+1)*|G|), see _bits), before the first support element (only
    the empty subsequence) and after each one.  Each copy of an element is
    incorporated separately (multiplicities are small here; plain repetition
    beats binary splitting in simplicity).
    """
    size = seq.group.order
    parts = row_parts(seq.group, limit)
    below_top = (1 << (limit * size)) - 1
    packed = 1
    yield packed
    for i, mult in enumerate(seq.counts):
        if not mult:
            continue
        pe = parts[i]
        for _ in range(mult):
            packed |= shift_mask(packed & below_top, pe) << size
        yield packed


def _knapsack(seq: Sequence, limit: int) -> int:
    """The packed table of _knapsack_stages after the whole sequence."""
    for packed in _knapsack_stages(seq, limit):
        pass
    return packed


def build_profile(seq: Sequence, limit: int) -> SumProfile:
    """Exact table of (length, sum) pairs reachable by subsequences of seq."""
    if not 0 <= limit <= len(seq):
        raise ValueError(f"profile limit {limit} must lie in [0, |S|] = [0, {len(seq)}]")
    packed = _knapsack(seq, limit)
    size = seq.group.order
    row = (1 << size) - 1
    rows = tuple((packed >> (l * size)) & row for l in range(limit + 1))
    return SumProfile(seq.group, limit, rows)


def lacks(seq: Sequence, criterion: Criterion) -> bool:
    """True iff no subsequence T with sum 0 matches the criterion's lengths.

    Feeds the terms to the criterion's stepper in index order and stops at
    the first term that would complete a forbidden zero-sum.
    """
    state, push = _shared_stepper(seq.group, criterion)
    neg = bit_tables(seq.group).neg
    for e, mult in enumerate(seq.counts):
        for _ in range(mult):
            if (state[0] >> neg[e]) & 1:
                return False
            state = push(state, e)
    return True


def has_zero_sum_of_length(seq: Sequence, length: int) -> bool:
    """True iff some subsequence of exactly this length sums to zero."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return True
    if length > len(seq):
        return False
    return bool((_knapsack(seq, length) >> (length * seq.group.order)) & 1)


def witness(seq: Sequence, criterion: Criterion) -> Optional[Sequence]:
    """One concrete forbidden zero-sum subsequence, or None when lacks() holds.

    Builds the profile up to the longest forbidden length, keeping its stage
    after each support element; the witness length is the least forbidden
    length reachable in the last stage.  Walking the stages backwards decides
    how many copies of each element the witness takes.
    """
    lengths = criterion.forbidden_lengths(seq.group.exponent, len(seq))
    stages = list(_knapsack_stages(seq, lengths[-1] if lengths else 0))
    size = seq.group.order
    target = next((l for l in lengths if (stages[-1] >> (l * size)) & 1), None)
    if target is None:
        return None

    neg = bit_tables(seq.group).neg
    add = add_table(seq.group)
    support = [i for i, mult in enumerate(seq.counts) if mult]
    need_l, need_idx = target, 0
    taken = [0] * size
    for j in range(len(support) - 1, -1, -1):
        i = support[j]
        prev = stages[j]
        back = need_idx  # need_idx - c * element_i, for c = 0, 1, ...
        for c in range(min(seq.counts[i], need_l) + 1):
            if (prev >> ((need_l - c) * size + back)) & 1:
                taken[i] = c
                need_l -= c
                need_idx = back
                break
            back = add[back][neg[i]]
        else:
            raise RuntimeError("witness reconstruction lost the trail")
    if need_l != 0 or need_idx != 0:
        raise RuntimeError("witness reconstruction did not reach the empty state")
    return Sequence(seq.group, tuple(taken))


def verify_shift_lemma(seq: Sequence, g: Element, case: int, *, n: Optional[int] = None) -> bool:
    """Check one case of the translation lemma on a concrete instance.

    Case 1 (needs n with exp(G) | n): do S and g+S agree on having a zero-sum
    subsequence of length n?  Case 2 (needs S with no short zero-sum): does
    g^v (g+S) lack zero-sums of length exp(G) for every v in [0, exp-1]?
    Case 3 (needs v_g(S) >= floor((exp-1)/2) and S without length-exp
    zero-sums): does S have a subsequence T with |T| >= |S| - exp + 1 such
    that (-g) + T has no short zero-sum?  Violated hypotheses raise
    ValueError naming the failure.
    """
    if g.group != seq.group:
        raise ValueError("shift element from a different group")
    exp = seq.group.exponent

    if case == 1:
        if n is None or n < 1 or n % exp != 0:
            raise ValueError("case 1 needs a length n >= 1 with exp(G) | n")
        return has_zero_sum_of_length(seq, n) == has_zero_sum_of_length(shift(g, seq), n)

    if case == 2:
        if not lacks(seq, Criterion.SHORT):
            raise ValueError("hypothesis failed: S has a short zero-sum subsequence")
        shifted = shift(g, seq)
        return all(
            lacks(shifted.with_term(g, v) if v else shifted, Criterion.EXACT_EXP)
            for v in range(exp)
        )

    if case == 3:
        if seq.multiplicity(g) < (exp - 1) // 2:
            raise ValueError("hypothesis failed: v_g(S) < floor((exp(G)-1)/2)")
        if not lacks(seq, Criterion.EXACT_EXP):
            raise ValueError("hypothesis failed: S has a zero-sum subsequence of length exp(G)")
        from .search import exists_lacking_subsequence

        target = len(seq) - exp + 1
        return exists_lacking_subsequence(shift(-g, seq), Criterion.SHORT, target)

    raise ValueError(f"unknown case {case!r}; expected 1, 2 or 3")
