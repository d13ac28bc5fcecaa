"""Multiset sequences over a group: parsing, sums, shifts."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from ._bits import add_table, neg_table
from .groups import Element, GroupSpec


class SequenceParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True, order=True)
class Sequence:
    """A finite multiset of group elements (the order of terms is irrelevant).

    Stored as a dense multiplicity table: counts[a*n2 + b] is the multiplicity
    of (a, b).  Two sequences are equal iff their tables are equal.
    """

    group: GroupSpec
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.group.order:
            raise ValueError("multiplicity table has wrong size for the group")
        if min(self.counts) < 0:
            raise ValueError("negative multiplicity")

    @classmethod
    def from_items(cls, group: GroupSpec, items: Iterable[tuple[Element, int]]) -> "Sequence":
        counts = [0] * group.order
        for e, k in items:
            if e.group != group:
                raise ValueError("term from a different group")
            if k < 0:
                raise ValueError("negative multiplicity")
            counts[e.index] += k
        return cls(group, tuple(counts))

    def __len__(self) -> int:
        return sum(self.counts)

    def multiplicity(self, e: Element) -> int:
        return self.counts[e.index]

    def items(self) -> Iterator[tuple[Element, int]]:
        for i, c in enumerate(self.counts):
            if c:
                yield self.group.element_at(i), c

    def max_multiplicity(self) -> int:
        return max(self.counts)

    def with_term(self, e: Element, k: int = 1) -> "Sequence":
        if e.group != self.group:
            raise ValueError("term from a different group")
        counts = list(self.counts)
        counts[e.index] += k
        return Sequence(self.group, tuple(counts))

    def text(self) -> str:
        bits = []
        for e, k in self.items():
            bits.append(str(e) if k == 1 else f"{e}^{k}")
        return " ".join(bits)

    def __str__(self) -> str:
        return self.text()


_TERM_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)(?:\^(-?\d+))?")


def parse_sequence(group: GroupSpec, text: str) -> Sequence:
    """Parse whitespace-separated terms "(a,b)" or "(a,b)^k" (k >= 0).

    Multiplicities of repeated terms accumulate; coordinates are reduced
    into the group.
    """
    counts = [0] * group.order
    pos, end = 0, len(text)
    while True:
        while pos < end and text[pos].isspace():
            pos += 1
        if pos >= end:
            break
        m = _TERM_RE.match(text, pos)
        if not m:
            raise SequenceParseError("malformed term", pos)
        k = 1
        if m.group(3) is not None:
            k = int(m.group(3))
            if k < 0:
                raise SequenceParseError("negative exponent", m.start(3))
        counts[group.element(int(m.group(1)), int(m.group(2))).index] += k
        pos = m.end()
    return Sequence(group, tuple(counts))


def sum_of(seq: Sequence) -> Element:
    """The group sum of all terms with multiplicity; the empty sum is 0."""
    a = b = 0
    grp = seq.group
    for i, c in enumerate(seq.counts):
        if c:
            a += c * (i // grp.n2)
            b += c * (i % grp.n2)
    return grp.element(a, b)


def shift(h: Element, seq: Sequence) -> Sequence:
    """Translate every term by h.

    The term at index i moves to the index of e_i + h, so the new table reads
    counts[j - h] at j: one pass through row -h of the group's add table.
    """
    if h.group != seq.group:
        raise ValueError("shift element from a different group")
    row = add_table(seq.group)[neg_table(seq.group)[h.index]]
    return Sequence(seq.group, tuple(map(seq.counts.__getitem__, row)))

