"""Independent checks for the benchmark: closed formulas and a subset oracle.

Nothing here calls zerosum.  Groups are (n1, n2) pairs and sequences are
multiplicity tables indexed by a*n2 + b, the layout zerosum documents for
Sequence.counts.  The reachability table is built with its own translation
code (a rotation inside each block of n2 bits, then a rotation of the
blocks), not with zerosum's precomputed shift parts.
"""

from __future__ import annotations

import copy

CRITERIA = ("D", "eta", "s", "s_exp_mult")


def formula(n1: int, n2: int, criterion: str) -> int:
    """The paper's closed formula for the constant on C_m + C_mn (m = n1, mn = n2)."""
    m, mn = n1, n2
    return {
        "D": m + mn - 1,
        "eta": 2 * m + mn - 2,
        "s": 2 * m + 2 * mn - 3,
        "s_exp_mult": m + 2 * mn - 2,
    }[criterion]


def forbidden_lengths(criterion: str, exp: int, total: int) -> range:
    if criterion == "D":
        return range(1, total + 1)
    if criterion == "eta":
        return range(1, min(exp, total) + 1)
    if criterion == "s":
        return range(exp, min(exp, total) + 1)
    return range(exp, total + 1, exp)


class Reach:
    """(length, sum) pairs reachable by sub-multisets, grown one term at a time.

    rows[l] has bit a*n2 + b set iff some length-l sub-multiset sums to (a, b).
    """

    def __init__(self, n1: int, n2: int):
        self.n1, self.n2 = n1, n2
        self.full = (1 << (n1 * n2)) - 1
        block = sum(1 << (a * n2) for a in range(n1))
        # low[eb]: the bits with b < n2 - eb, which a b-rotation by eb moves up
        self.low = [block * ((1 << (n2 - eb)) - 1) for eb in range(n2)]
        self.rows = [1]

    def translate(self, x: int, a: int, b: int) -> int:
        n1, n2 = self.n1, self.n2
        if b:
            low = self.low[b]
            x = ((x & low) << b) | ((x & ~low & self.full) >> (n2 - b))
        if a:
            x = ((x << (a * n2)) | (x >> ((n1 - a) * n2))) & self.full
        return x

    def copy(self) -> "Reach":
        other = copy.copy(self)
        other.rows = list(self.rows)
        return other

    def push(self, index: int) -> None:
        a, b = divmod(index, self.n2)
        rows = self.rows
        rows.append(0)
        for l in range(len(rows) - 2, -1, -1):
            rows[l + 1] |= self.translate(rows[l], a, b)

    def lacks(self, criterion: str) -> bool:
        total = len(self.rows) - 1
        lengths = forbidden_lengths(criterion, self.n2, total)
        return not any(self.rows[l] & 1 for l in lengths)


def reach_of(n1: int, n2: int, counts) -> Reach:
    r = Reach(n1, n2)
    for i, c in enumerate(counts):
        for _ in range(c):
            r.push(i)
    return r


def is_witness(n1: int, n2: int, counts, criterion: str, sub) -> bool:
    """sub is a sub-multiset of counts that sums to zero and has a forbidden length."""
    if sub is None or len(sub) != len(counts):
        return False
    if any(s < 0 or s > c for s, c in zip(sub, counts)):
        return False
    a = sum(s * (i // n2) for i, s in enumerate(sub)) % n1
    b = sum(s * (i % n2) for i, s in enumerate(sub)) % n2
    length = sum(sub)
    return a == 0 and b == 0 and length in forbidden_lengths(criterion, n2, sum(counts))
