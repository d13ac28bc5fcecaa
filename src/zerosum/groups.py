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
from typing import Callable, Iterator

# automorphisms() enumerates generator images by brute force; refuse groups
# where that becomes unreasonable.
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

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

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


def _span_indices(g1: Element, g2: Element) -> set[int]:
    """Element indices of the subgroup generated by {g1, g2}."""
    grp = g1.group
    n1, n2 = grp.n1, grp.n2
    a1, b1, a2, b2 = g1.a, g1.b, g2.a, g2.b
    seen: set[int] = set()
    for i in range(order_of(g1)):
        xa = i * a1 % n1
        xb = i * b1 % n2
        for j in range(order_of(g2)):
            seen.add(((xa + j * a2) % n1) * n2 + (xb + j * b2) % n2)
    return seen


def is_generating_pair(g1: Element, g2: Element) -> bool:
    """True iff the subgroup generated by {g1, g2} is the whole group."""
    g1._require_same_group(g2)
    return len(_span_indices(g1, g2)) == g1.group.order


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


@dataclass(frozen=True, order=True)
class Automorphism:
    """A group automorphism, stored as the images of (1,0) and (0,1)."""

    group: GroupSpec
    img1: Element
    img2: Element

    def __call__(self, e: Element) -> Element:
        if e.group != self.group:
            raise ValueError("element does not belong to this automorphism's group")
        return e.a * self.img1 + e.b * self.img2

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        if self.group != other.group:
            raise ValueError("automorphisms of different groups")
        return Automorphism(self.group, self(other.img1), self(other.img2))

    def inverse(self) -> "Automorphism":
        grp = self.group
        perm = element_permutation(self)
        inv = [0] * len(perm)
        for i, p in enumerate(perm):
            inv[p] = i
        return Automorphism(
            grp,
            grp.element_at(inv[grp.element(1, 0).index]),
            grp.element_at(inv[grp.element(0, 1).index]),
        )


@lru_cache(maxsize=None)
def automorphisms(group: GroupSpec, max_order: int = AUT_ENUMERATION_MAX_ORDER) -> tuple[Automorphism, ...]:
    """The full automorphism group, ordered lexicographically by generator images.

    Pure brute force: try every pair of candidate images, keep the pairs that
    give a well-defined bijective endomorphism.  Well-definedness needs
    ord(img1) | n1 (n2 * img2 = 0 holds automatically); bijectivity is
    equivalent to the images generating the group.
    """
    if group.order > max_order:
        raise ValueError(
            f"group too large for automorphism enumeration (order {group.order} > {max_order})"
        )
    elems = list(group.elements())
    out = []
    for img1 in elems:
        if not (group.n1 * img1).is_zero():
            continue
        for img2 in elems:
            if len(_span_indices(img1, img2)) == group.order:
                out.append(Automorphism(group, img1, img2))
    return tuple(out)


@lru_cache(maxsize=None)
def element_permutation(aut: Automorphism) -> tuple[int, ...]:
    """The automorphism as a permutation of element indices."""
    return tuple(aut(g).index for g in aut.group.elements())


@lru_cache(maxsize=None)
def aut_permutations(group: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Element permutations of the non-identity automorphisms.

    Aut(G) is closed under inversion, so running over these permutations
    also runs over their inverses.
    """
    identity = tuple(range(group.order))
    return tuple(p for p in map(element_permutation, automorphisms(group)) if p != identity)


@lru_cache(maxsize=None)
def aut_getters(group: GroupSpec) -> tuple[itemgetter, ...]:
    """For each permutation p of aut_permutations: itemgetter(*p).

    Applied to a multiplicity table it returns the image table under the
    inverse automorphism (counts[p[j]] at index j); closure under inversion
    makes these run over every nontrivial image.  Non-identity permutations
    have at least two items, so every getter returns a tuple.
    """
    return tuple(itemgetter(*p) for p in aut_permutations(group))


def natural_projection(group: GroupSpec) -> tuple[GroupSpec, Callable[[Element], Element]]:
    """Quotient by H = {m*g : g in G}: C_m + C_mn -> C_m + C_m, (a, b) -> (a, b mod m).

    The returned map is a surjective homomorphism with kernel H of size n.
    """
    if group.rank != 2:
        raise ValueError("natural projection requires a group of rank 2")
    m = group.n1
    quotient = GroupSpec(m, m)

    def project(e: Element) -> Element:
        if e.group != group:
            raise ValueError("element does not belong to the projected group")
        return Element(quotient, e.a, e.b % m)

    return quotient, project
