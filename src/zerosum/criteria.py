"""The four zero-sum constraints and exact decision procedures for them.

Decisions run on one exact reachability table over (subsequence length,
sum), never on the 2^|S| subsets.  The per-criterion stepper (_stepper)
grows it one term at a time and keeps only the rows its criterion needs,
packed into one integer: the state.  lacks(), the search DFS and
exists_lacking_subsequence() share one per (group, criterion)
(_shared_stepper).  EXACT_EXP's stepper with rows up to a given length is
the knapsack table (_knapsack_stages) that has_zero_sum_of_length() and
witness() read.

Row l lies at bits [l*|G|, (l+1)*|G|) and holds negated sums: bit -x for
each sum x it records.  Appending e moves every negated sum by -e, so a
push translates every row with one shift_mask call on the repeated-row
masks of _bits.row_parts.  The blocked set, the elements whose append
completes a forbidden zero-sum, is the top row as it stands, bit e of
state >> top: eta's row l counts the sums of length at most l, and the
mod-k rows of D and s_exp_mult hold every sum, the empty one included.
The s walk of check_direct_formulas keeps s's exact rows past exp(G) - 1
(last_row), so bit 0 of its rows k*exp(G) tells which nodes lack s_exp_mult.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Optional

from ._bits import add_table, row_parts, shift_mask
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


def formula_value(group: GroupSpec, criterion: Criterion) -> int:
    """The known value of the constant on C_m + C_mn."""
    m, mn = group.n1, group.n2
    if criterion is Criterion.ANY:
        return m + mn - 1
    if criterion is Criterion.SHORT:
        return 2 * m + mn - 2
    if criterion is Criterion.EXP_MULTIPLE:
        return m + 2 * mn - 2
    if criterion is Criterion.EXACT_EXP:
        return 2 * m + 2 * mn - 3
    raise ValueError(f"unknown criterion {criterion!r}")


def _stepper(group: GroupSpec, criterion: Criterion, last_row: Optional[int] = None):
    """(start, push, top): one criterion's incremental state, one integer.

    The state packs the rows the criterion needs, row l at bits
    [l*|G|, (l+1)*|G|) (see _bits), of negated sums: bit -x of row l for
    each sum x the row records, so appending e closes a zero-sum with one
    of them iff bit e of row l is set.  The rows are, for l < exp, the sums
    of length exactly l for EXACT_EXP and of length at most l for SHORT
    (the empty sum starts in every row); for ANY (k = 1: every length is a
    multiple of 1) and EXP_MULTIPLE (k = exp), every sum, the empty one
    included, by length l mod k.  So the blocked set, the elements whose
    append completes a forbidden zero-sum, is the top row as it stands:
    bit e of state >> top.  push(state, e) appends e, moving every negated
    sum by -e: row l+1 |= row l - e, the same recurrence for "exactly l"
    and "at most l", so SHORT and EXACT_EXP share one push and differ in
    their start states; the mod-k push wraps the top row onto row 0.  Each
    push is one shift_mask call on parts[e] (_bits.row_parts: entry e
    translates by -e).

    With last_row, EXACT_EXP keeps its exact rows 0..last_row, of any
    length: bit 0 of row l is a zero-sum of length exactly l.  That is the
    knapsack table (_knapsack_stages).  From last_row = exp-1 on, state >>
    top still reads row exp-1 in its bits below |G|, the only bits a reader
    of the blocked set reads.
    """
    size = group.order
    exp = group.exponent

    if criterion in (Criterion.SHORT, Criterion.EXACT_EXP):
        top = (exp - 1) * size  # bit offset of row exp-1
        last_row = exp - 1 if last_row is None else last_row
        parts = row_parts(group, last_row)
        below_top = (1 << (last_row * size)) - 1

        def push(packed, e):
            return packed | shift_mask(packed & below_top, parts[e]) << size

        # The empty sum: in every row for SHORT (the repunit), in row 0 for EXACT_EXP.
        p = ((1 << (exp * size)) - 1) // ((1 << size) - 1) if criterion is Criterion.SHORT else 1
        return p, push, top

    k = 1 if criterion is Criterion.ANY else exp
    top = (k - 1) * size  # row k-1: its elements complete a forbidden length
    parts = row_parts(group, k)
    all_rows = (1 << (k * size)) - 1

    def push(packed, e):
        x = shift_mask(packed, parts[e])
        return packed | ((x << size) & all_rows) | (x >> top)

    return 1, push, top


@lru_cache(maxsize=None)
def _shared_stepper(group: GroupSpec, criterion: Criterion):
    """_stepper(group, criterion), built once: states are integers and push is pure."""
    return _stepper(group, criterion)


def _knapsack_stages(seq: Sequence, limit: int):
    """Fill the (length, sum) table with rows 0..limit, one support element at a time.

    Pushes the terms through EXACT_EXP's stepper with rows up to limit and
    yields its state (bit -x of row l for each sum x of length l) before
    the first support element and after each one.  A zero-sum of length l
    is bit 0 of row l, since -0 = 0.  Each copy of an element is pushed
    separately (multiplicities are small here).
    """
    packed, push, _ = _stepper(seq.group, Criterion.EXACT_EXP, limit)
    yield packed
    for i, mult in enumerate(seq.counts):
        if mult:
            for _ in range(mult):
                packed = push(packed, i)
            yield packed


def lacks(seq: Sequence, criterion: Criterion) -> bool:
    """True iff no subsequence T with sum 0 matches the criterion's lengths.

    Feeds the terms to the criterion's stepper in index order and stops at
    the first term that would complete a forbidden zero-sum.
    """
    state, push, top = _shared_stepper(seq.group, criterion)
    for e, mult in enumerate(seq.counts):
        for _ in range(mult):
            if (state >> (top + e)) & 1:
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
    *_, last = _knapsack_stages(seq, length)
    return bool((last >> (length * seq.group.order)) & 1)


def witness(seq: Sequence, criterion: Criterion) -> Optional[Sequence]:
    """One concrete forbidden zero-sum subsequence, or None when lacks() holds.

    Builds the (length, sum) table up to the longest forbidden length,
    keeping its stage after each support element; the witness length is the
    least forbidden length reachable in the last stage.  Walking the stages
    backwards decides how many copies of each element the witness takes.
    """
    lengths = criterion.forbidden_lengths(seq.group.exponent, len(seq))
    stages = list(_knapsack_stages(seq, lengths[-1] if lengths else 0))
    size = seq.group.order
    target = next((l for l in lengths if (stages[-1] >> (l * size)) & 1), None)
    if target is None:
        return None

    add = add_table(seq.group)
    support = [i for i, mult in enumerate(seq.counts) if mult]
    need_l, need_idx = target, 0
    taken = [0] * size
    for j in range(len(support) - 1, -1, -1):
        i = support[j]
        prev = stages[j]
        back = need_idx  # need_idx + c * element_i (sums negated), for c = 0, 1, ...
        for c in range(min(seq.counts[i], need_l) + 1):
            if (prev >> ((need_l - c) * size + back)) & 1:
                taken[i] = c
                need_l -= c
                need_idx = back
                break
            back = add[back][i]
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
    Lacking is hereditary (a zero-sum of a subsequence is one of the whole),
    and each g^v (g+S) is a subsequence of g^(exp-1) (g+S), so case 2 is the
    one lacks() call on the latter.
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
        return lacks(shift(g, seq).with_term(g, exp - 1), Criterion.EXACT_EXP)

    if case == 3:
        if seq.multiplicity(g) < (exp - 1) // 2:
            raise ValueError("hypothesis failed: v_g(S) < floor((exp(G)-1)/2)")
        if not lacks(seq, Criterion.EXACT_EXP):
            raise ValueError("hypothesis failed: S has a zero-sum subsequence of length exp(G)")
        from .search import exists_lacking_subsequence

        target = len(seq) - exp + 1
        return exists_lacking_subsequence(shift(-g, seq), Criterion.SHORT, target)

    raise ValueError(f"unknown case {case!r}; expected 1, 2 or 3")
