"""Finite abelian groups of rank at most two.

Groups are kept in invariant-factor form C_n1 + C_n2 with n1 | n2, so that
the quantities m = n1, n = n2/n1 and exp = n2 used throughout the library
can be read straight off the representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

# basis_images() and automorphisms() refuse groups above this order, and the
# search runs unpruned there.  Enumeration is |G|^2/n generation tests, so
# the cap is not about time: it fixes where orbit pruning is on, and with it
# the pinned node counts.  What it bounds is memory: the orbit tables hold
# |Aut(G)|*|G| permutation indices and least_image's rows |G|^2*|Aut(G)|
# bits.  The largest Aut(G) under the cap, GL2(Z/19) on C19+C19 (123,120
# automorphisms), needs about 0.7 GB and 2 GB for them.
AUT_ENUMERATION_MAX_ORDER = 512


@dataclass(frozen=True, order=True)
class GroupSpec:
    """The group C_n1 + C_n2 in invariant-factor form (n1 divides n2).

    Arbitrary two-factor inputs are normalized through gcd/lcm, e.g.
    GroupSpec(6, 4) == GroupSpec(2, 12).  Cyclic groups have n1 == 1.
    """

    n1: int
    n2: int

    def __post_init__(self) -> None:
        a, b = self.n1, self.n2
        if a < 1 or b < 1:
            raise ValueError(f"group factors must be positive integers, got ({a}, {b})")
        g = math.gcd(a, b)
        object.__setattr__(self, "n1", g)
        object.__setattr__(self, "n2", a * b // g)

    @classmethod
    def cyclic(cls, n: int) -> "GroupSpec":
        return cls(1, n)

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """Parse the text form "n1,n2" (rank two) or "n" (cyclic)."""
        parts = text.split(",")
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"cannot parse group {text!r}: expected 'n1,n2' or 'n'") from None
        if len(nums) == 1:
            return cls.cyclic(nums[0])
        if len(nums) == 2:
            return cls(nums[0], nums[1])
        raise ValueError(f"cannot parse group {text!r}: at most two factors supported")

    # accessors named after the C_m + C_mn presentation
    @property
    def m(self) -> int:
        return self.n1

    @property
    def n(self) -> int:
        return self.n2 // self.n1

    @property
    def exponent(self) -> int:
        return self.n2

    @property
    def order(self) -> int:
        return self.n1 * self.n2

    @property
    def rank(self) -> int:
        if self.n2 == 1:
            return 0
        return 1 if self.n1 == 1 else 2

    @property
    def zero(self) -> "Element":
        return Element(self, 0, 0)

    def element(self, a: int, b: int) -> "Element":
        return Element(self, a, b)

    def element_at(self, index: int) -> "Element":
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for {self}")
        a, b = divmod(index, self.n2)
        return Element(self, a, b)

    def elements(self) -> Iterator["Element"]:
        for a in range(self.n1):
            for b in range(self.n2):
                yield Element(self, a, b)

    @property
    def label(self) -> str:
        return f"C{self.n2}" if self.n1 == 1 else f"C{self.n1}xC{self.n2}"

    def __str__(self) -> str:
        return str(self.n2) if self.n1 == 1 else f"{self.n1},{self.n2}"


@dataclass(frozen=True, order=True)
class Element:
    """A group element (a, b); coordinates are reduced on construction."""

    group: GroupSpec
    a: int
    b: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", self.a % self.group.n1)
        object.__setattr__(self, "b", self.b % self.group.n2)

    @property
    def index(self) -> int:
        """Position in the fixed lexicographic order on (a, b)."""
        return self.a * self.group.n2 + self.b

    def _require_same_group(self, other: "Element") -> None:
        if self.group != other.group:
            raise ValueError(f"elements of different groups: {self.group} vs {other.group}")

    def __add__(self, other: "Element") -> "Element":
        self._require_same_group(other)
        return Element(self.group, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Element") -> "Element":
        self._require_same_group(other)
        return Element(self.group, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Element":
        return Element(self.group, -self.a, -self.b)

    def __mul__(self, k: int) -> "Element":
        if not isinstance(k, int):
            return NotImplemented
        return Element(self.group, self.a * k, self.b * k)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


def order_of(g: Element) -> int:
    """Smallest k >= 1 with k*g = 0."""
    grp = g.group
    oa = grp.n1 // math.gcd(g.a, grp.n1)
    ob = grp.n2 // math.gcd(g.b, grp.n2)
    return oa * ob // math.gcd(oa, ob)


@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p)))


def generates(group: GroupSpec, a1: int, b1: int, a2: int, b2: int) -> bool:
    """True iff (a1, b1) and (a2, b2) generate the group.

    A subset generates a finite abelian G iff its image spans G/pG for each
    prime p | exp(G).  That quotient is (Z/p)^2 on (a, b) mod p when p | n1,
    spanned iff the determinant is nonzero mod p, and Z/p on b mod p else.
    """
    for p in _prime_divisors(group.n2):
        if group.n1 % p == 0:
            if (a1 * b2 - a2 * b1) % p == 0:
                return False
        elif b1 % p == 0 and b2 % p == 0:
            return False
    return True


def image_indices(group: GroupSpec, a1: int, b1: int, a2: int, b2: int) -> tuple[int, ...]:
    """Index of a*(a1, b1) + b*(a2, b2) for each element (a, b), in index order."""
    n1, n2 = group.n1, group.n2
    return tuple(
        ((a * a1 + b * a2) % n1) * n2 + (a * b1 + b * b2) % n2
        for a in range(n1) for b in range(n2)
    )


def is_generating_pair(g1: Element, g2: Element) -> bool:
    """True iff the subgroup generated by {g1, g2} is the whole group."""
    g1._require_same_group(g2)
    return generates(g1.group, g1.a, g1.b, g2.a, g2.b)


def is_basis_pair(g1: Element, g2: Element) -> bool:
    """True iff {g1, g2} generates the group and the two elements are independent.

    Independence: m1*g1 + m2*g2 = 0 forces m1*g1 = 0 and m2*g2 = 0.  For a
    generating pair that says <g1> and <g2> meet only in 0, which holds iff
    ord(g1)*ord(g2) = |G|.  A group of rank two is not cyclic, so neither
    element of a generating pair is 0.
    """
    g1._require_same_group(g2)
    if g1.group.rank != 2:
        raise ValueError("basis query on group of rank != 2")
    return is_generating_pair(g1, g2) and order_of(g1) * order_of(g2) == g1.group.order


@lru_cache(maxsize=None)
def basis_images(group: GroupSpec) -> tuple[tuple[int, int], ...]:
    """The index pairs (i1, i2) of the images of (1,0) and (0,1) under every
    automorphism, in index order.

    An automorphism is a pair of images (img1, img2) of (1,0) and (0,1) that
    is well defined, n1*img1 = 0 (n2*img2 = 0 holds automatically), and
    bijective, which holds iff the images generate the group (generates).
    So img1 = (a1, b1) runs over b1 in multiples of n2/n1, i.e. over every
    n-th index, and img2 over G.
    """
    if group.order > AUT_ENUMERATION_MAX_ORDER:
        raise ValueError(
            "group too large for automorphism enumeration "
            f"(order {group.order} > {AUT_ENUMERATION_MAX_ORDER})"
        )
    n2 = group.n2
    return tuple(
        (i1, i2)
        for i1 in range(0, group.order, group.n)
        for i2 in range(group.order)
        if generates(group, *divmod(i1, n2), *divmod(i2, n2))
    )


@lru_cache(maxsize=None)
def automorphisms(group: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """The full automorphism group as permutations of element indices,
    ordered lexicographically by generator images (basis_images).

    Permutation p maps index i to the index of the image of element i
    (image_indices), so in rank two img1 has index p[n2] and img2 p[1].
    """
    n2 = group.n2
    return tuple(
        image_indices(group, *divmod(i1, n2), *divmod(i2, n2)) for i1, i2 in basis_images(group)
    )


@lru_cache(maxsize=None)
def aut_permutations(group: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Element permutations of the non-identity automorphisms.

    Aut(G) is closed under inversion, so running over these permutations
    also runs over their inverses.
    """
    identity = tuple(range(group.order))
    return tuple(p for p in automorphisms(group) if p != identity)


@lru_cache(maxsize=None)
def aut_getters(group: GroupSpec) -> tuple[itemgetter, ...]:
    """For each permutation p of aut_permutations: itemgetter(*p).

    Applied to a multiplicity table it returns the image table under the
    inverse automorphism (counts[p[j]] at index j); closure under inversion
    makes these run over every nontrivial image.  Non-identity permutations
    have at least two items, so every getter returns a tuple.
    """
    return tuple(itemgetter(*p) for p in aut_permutations(group))


@lru_cache(maxsize=None)
def _aut_rows(group: GroupSpec):
    """The getters of Aut(G), tuple (the identity) first, and rows[j][v]: the
    bitset of the getters that read index v at position j."""
    n = group.order
    perms = (range(n), *aut_permutations(group))
    # Each int is built once from its bytes: or-ing bits into an int would
    # copy it per bit, quadratic in |Aut|.
    size = (len(perms) + 7) // 8
    rows = []
    for column in zip(*perms):
        cells = [bytearray(size) for _ in range(n)]
        for bit, v in enumerate(column):
            cells[v][bit >> 3] |= 1 << (bit & 7)
        rows.append([int.from_bytes(c, "little") for c in cells])
    return (tuple, *aut_getters(group)), rows


def least_image(counts, group: GroupSpec, bound: tuple | None = None) -> tuple | None:
    """min(counts, *(g(counts) for g in aut_getters(group))) as a tuple; with
    a bound, None as soon as that minimum is known to be >= bound.  Any one
    of the getters _ties leaves gives the image."""
    found = _ties(counts, group, bound)
    if found is None:
        return None
    alive, tight = found
    image = _aut_rows(group)[0][alive.bit_length() - 1](counts)
    return None if tight and image >= bound else image


def _orbit_size(counts, group: GroupSpec) -> int:
    """The size of the Aut(G)-orbit of counts: |Aut(G)| over the number of
    getters that map counts to its least image (a coset of the image's
    stabilizer)."""
    return len(_aut_rows(group)[0]) // _ties(counts, group)[0].bit_count()


def _ties(counts, group: GroupSpec, bound: tuple | None = None):
    """(alive, tight): alive is the int bitset of the getters of _aut_rows
    that map counts to its least image; tight is true iff a bound is given
    and every count of the image read here equals bound's, so the image
    still needs a compare with bound.  None as soon as the image is known
    to be above bound.

    At position j the least count is 0 if a tied getter reads outside the
    support, else the least support count a tied getter reads; the getters
    that read it stay.  A lone one left, or those left after the last
    position, give the least image.  One row's sets are disjoint (a getter
    reads one index), so sum is their union.
    """
    getters, rows = _aut_rows(group)
    support = [v for v, c in enumerate(counts) if c]
    alive = (1 << len(getters)) - 1
    tight = bound is not None
    for j, row in enumerate(rows):
        if not alive & (alive - 1):
            break
        hit = 0
        for v in support:
            hit |= row[v]
        rest = alive & ~hit
        if rest:
            alive, c = rest, 0
        else:
            c = min(counts[v] for v in support if row[v] & alive)
            alive &= sum([row[v] for v in support if counts[v] == c])
        if tight:
            if c > bound[j]:
                return None
            tight = c == bound[j]
    return alive, tight
