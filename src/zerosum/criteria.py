"""The four zero-sum constraints and exact decision procedures for them.

Decisions run on exact reachability tables over (subsequence length, sum),
never on the 2^|S| subsets.  The per-criterion stepper (_stepper) grows one
term at a time and keeps only the rows its criterion needs; lacks(), the
search DFS and exists_lacking_subsequence() run on it.  The length-indexed
profile, a bounded-knapsack pass over the support, records every exact
length; build_profile(), has_zero_sum_of_length() and witness() run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ._bits import add_table, bit_tables, shift_mask
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

    A state is a tuple of bitmask rows whose first entry is the "blocked"
    set: appending e creates a forbidden zero-sum iff -e lies in it.  The
    remaining entries carry what is needed to maintain that set: reachable
    sums by subsequence length < exp for SHORT/EXACT_EXP, by length mod exp
    (nonempty) for EXP_MULTIPLE, by any length for ANY.
    """
    tables = bit_tables(group)
    parts = tables.parts
    exp = group.exponent

    if criterion is Criterion.ANY:

        def push(state, e):
            x = state[0]
            return (x | shift_mask(x, parts[e]),)

        return (1,), push

    if criterion in (Criterion.SHORT, Criterion.EXACT_EXP):
        short = criterion is Criterion.SHORT

        def push(state, e):
            rows = list(state[1:])
            pe = parts[e]
            for l in range(exp - 1, 0, -1):
                x = rows[l - 1]
                if x:
                    rows[l] |= shift_mask(x, pe)
            if short:
                blocked = 0
                for x in rows:
                    blocked |= x
            else:
                blocked = rows[exp - 1]
            return (blocked, *rows)

        rows0 = (1,) + (0,) * (exp - 1)
        return ((1 if short else rows0[exp - 1]), *rows0), push

    def push(state, e):
        mod = state[1:]
        rows = list(mod)
        pe = parts[e]
        for r in range(exp):
            x = mod[r]
            if x:
                rows[(r + 1) % exp] |= shift_mask(x, pe)
        rows[1 % exp] |= 1 << e
        blocked = rows[exp - 1] if exp > 1 else (rows[0] | 1)
        return (blocked, *rows)

    return ((0 if exp > 1 else 1,) + (0,) * exp), push


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

    Yields the live row list before the first support element (only the
    empty subsequence) and after each one; a caller that keeps a stage
    copies it.  Each copy of an element is incorporated separately
    (multiplicities are small here; plain repetition beats binary splitting
    in simplicity).
    """
    parts = bit_tables(seq.group).parts
    rows = [0] * (limit + 1)
    rows[0] = 1
    yield rows
    processed = 0
    for i, mult in enumerate(seq.counts):
        if not mult:
            continue
        pe = parts[i]
        for _ in range(mult):
            processed += 1
            for l in range(min(limit - 1, processed - 1), -1, -1):
                x = rows[l]
                if x:
                    rows[l + 1] |= shift_mask(x, pe)
        yield rows


def build_profile(seq: Sequence, limit: int) -> SumProfile:
    """Exact table of (length, sum) pairs reachable by subsequences of seq."""
    if not 0 <= limit <= len(seq):
        raise ValueError(f"profile limit {limit} must lie in [0, |S|] = [0, {len(seq)}]")
    for rows in _knapsack_stages(seq, limit):
        pass
    return SumProfile(seq.group, limit, tuple(rows))


def lacks(seq: Sequence, criterion: Criterion) -> bool:
    """True iff no subsequence T with sum 0 matches the criterion's lengths.

    Feeds the terms to the criterion's stepper in index order and stops at
    the first term that would complete a forbidden zero-sum.
    """
    state, push = _stepper(seq.group, criterion)
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
    return bool(build_profile(seq, length).rows[length] & 1)


def witness(seq: Sequence, criterion: Criterion) -> Optional[Sequence]:
    """One concrete forbidden zero-sum subsequence, or None when lacks() holds.

    Builds the profile up to the longest forbidden length, keeping its stage
    after each support element; the witness length is the least forbidden
    length reachable in the last stage.  Walking the stages backwards decides
    how many copies of each element the witness takes.
    """
    lengths = criterion.forbidden_lengths(seq.group.exponent, len(seq))
    stages = [tuple(rows) for rows in _knapsack_stages(seq, lengths[-1] if lengths else 0)]
    target = next((l for l in lengths if stages[-1][l] & 1), None)
    if target is None:
        return None

    tables = bit_tables(seq.group)
    add = add_table(seq.group)
    items = list(seq.items())
    need_l, need_idx = target, 0
    taken = [0] * len(items)
    for j in range(len(items) - 1, -1, -1):
        e, mult = items[j]
        prev = stages[j]
        for c in range(min(mult, need_l) + 1):
            back = add[need_idx][tables.neg[(c * e).index]]
            if (prev[need_l - c] >> back) & 1:
                taken[j] = c
                need_l -= c
                need_idx = back
                break
        else:
            raise RuntimeError("witness reconstruction lost the trail")
    if need_l != 0 or need_idx != 0:
        raise RuntimeError("witness reconstruction did not reach the empty state")
    return Sequence.from_items(seq.group, [(e, c) for (e, _), c in zip(items, taken) if c])


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
