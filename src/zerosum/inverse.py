"""Extremal sequences: constructors, exhaustive enumeration, classification.

For G = C_m + C_mn of rank two the longest sequences without a short zero-sum
subsequence (length eta(G)-1), respectively without a zero-sum subsequence of
length exp(G) (length s(G)-1), fall into four parameterized families, built
from two shapes:

    A shape: e1^((n+1-t)m-1) e2^(sm-1) (-x*e1+e2)^((n+1-s)m-1)
             for a basis {e1, e2} with ord(e2) = mn, gcd(x, m) = 1, s, t in [1, n]
    B shape: g1^(m-1) g2^(mn-1) (-g1+g2)^(m-1)
             for a generating pair {g1, g2} with ord(g2) = mn, and t = n

    ETA_A, ETA_B: the A shape with t = n, the B shape
    S_A, S_B:     g^(tm-1) followed by the A shape, resp. the B shape,
                  translated by g in G

The s-families are the eta-shapes padded and translated.  t = n is the
slice: the padding g^(mn-1) has multiplicity exp(G)-1 and what follows is a
translated eta-extremal, the structure expected of an s-extremal.  t < n
(S_A only) is the richer structure: a shorter padding, a longer e1 + g.

The families overlap; classify() returns every parameterization that
reproduces a sequence, and an empty result is a finding, not an error.

classify() scans only the sequence's own support.  Every element a family
names has multiplicity at least m-1 >= 1 (rank two means m >= 2) and the
named elements of a valid form are pairwise distinct, so a matching sequence
has exactly the named elements as its support: the three of a shape, plus
the padding g for S_A/S_B.  The padding g, and the pairs (e1+g, e2+g), are
drawn from the support and checked on per-group index tables
(_index_tables) instead of running over every basis, unit and translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Iterator, Optional

from ._bits import add_table, neg_table
from .criteria import Criterion, formula_value, has_zero_sum_of_length, lacks
from .groups import (
    Element,
    GroupSpec,
    basis_images,
    generates,
    image_indices,
    is_basis_pair,
    is_generating_pair,
    order_of,
)
from .search import SearchOptions, longest_lacking_search
from .sequences import Sequence, shift


class FormTag(Enum):
    ETA_A = "eta_a"
    ETA_B = "eta_b"
    S_A = "s_a"
    S_B = "s_b"


_TAG_RANK = {tag: rank for rank, tag in enumerate(FormTag)}
_PARAMS = {FormTag.ETA_A: "xs", FormTag.ETA_B: "", FormTag.S_A: "xstg", FormTag.S_B: "g"}


class LemmaName(Enum):
    NOSHORT = "noshort"
    TWO_M = "two-m"
    INVCYC = "invcyc"


@dataclass(frozen=True)
class ExtremalForm:
    """One parameterization of an extremal family.

    e1/e2 hold the basis for the A forms and the generating pair for the
    B forms; x, s, t, g are present only where the family uses them
    (_PARAMS), and construct rejects a form that sets any other.
    """

    tag: FormTag
    e1: Element
    e2: Element
    x: Optional[int] = None
    s: Optional[int] = None
    t: Optional[int] = None
    g: Optional[Element] = None

    @property
    def group(self) -> GroupSpec:
        return self.e1.group

    def sort_key(self):
        return (
            _TAG_RANK[self.tag],
            self.e1.index,
            self.e2.index,
            self.x if self.x is not None else -1,
            self.s if self.s is not None else -1,
            self.t if self.t is not None else -1,
            self.g.index if self.g is not None else -1,
        )

    def to_json(self) -> dict:
        """The tag and the parameters, without those the family does not use."""
        out = {
            "form": self.tag.value,
            "e1": [self.e1.a, self.e1.b],
            "e2": [self.e2.a, self.e2.b],
        }
        if self.x is not None:
            out["x"] = self.x
        if self.s is not None:
            out["s"] = self.s
        if self.t is not None:
            out["t"] = self.t
        if self.g is not None:
            out["g"] = [self.g.a, self.g.b]
        return out


def _validate_form(form: ExtremalForm) -> None:
    grp = form.group
    if grp.rank != 2:
        raise ValueError("extremal forms need a group of rank 2")
    m, n, mn = grp.m, grp.n, grp.exponent
    if form.e2.group != grp or (form.g is not None and form.g.group != grp):
        raise ValueError("form parameters from different groups")
    stray = [p for p in "xstg" if getattr(form, p) is not None and p not in _PARAMS[form.tag]]
    if stray:
        raise ValueError(f"{form.tag.value} takes no {', '.join(stray)}")
    if order_of(form.e2) != mn:
        raise ValueError(f"ord(e2) = {order_of(form.e2)}, need exp(G) = {mn}")
    if form.tag in (FormTag.ETA_A, FormTag.S_A):
        if not is_basis_pair(form.e1, form.e2):
            raise ValueError(f"({form.e1}, {form.e2}) is not a basis pair")
        if form.x is None or form.x < 1 or math.gcd(form.x, m) != 1:
            raise ValueError(f"x = {form.x} must be >= 1 with gcd(x, m) = 1")
        if form.s is None or not 1 <= form.s <= n:
            raise ValueError(f"s = {form.s} outside [1, {n}]")
    else:
        if not is_generating_pair(form.e1, form.e2):
            raise ValueError(f"({form.e1}, {form.e2}) is not a generating pair")
    if form.tag is FormTag.S_A:
        if form.t is None or not 1 <= form.t <= n:
            raise ValueError(f"t = {form.t} outside [1, {n}]")
    if form.tag in (FormTag.S_A, FormTag.S_B):
        if form.g is None:
            raise ValueError("the s-families need a translation element g")


def _form_items(form: ExtremalForm) -> list[tuple[Element, int]]:
    """The A or B shape, for S_A/S_B after g^(tm-1) and translated by g."""
    grp = form.group
    m, n, mn = grp.m, grp.n, grp.exponent
    e1, e2 = form.e1, form.e2
    t = form.t if form.tag is FormTag.S_A else n
    if form.tag in (FormTag.ETA_A, FormTag.S_A):
        shape = [
            (e1, (n + 1 - t) * m - 1),
            (e2, form.s * m - 1),
            (-form.x * e1 + e2, (n + 1 - form.s) * m - 1),
        ]
    else:
        shape = [(e1, m - 1), (e2, mn - 1), (e2 - e1, m - 1)]
    if form.tag in (FormTag.ETA_A, FormTag.ETA_B):
        return shape
    g = form.g
    return [(g, t * m - 1)] + [(h + g, k) for h, k in shape]


def construct(form: ExtremalForm) -> Sequence:
    """The literal sequence of the chosen family.

    Raises ValueError on invalid parameters and asserts the two defining
    facts: the length is eta(G)-1 (ETA families) or s(G)-1 (S families) and
    the sequence lacks the matching zero-sum pattern.
    """
    _validate_form(form)
    grp = form.group
    seq = Sequence.from_items(grp, _form_items(form))
    eta_family = form.tag in (FormTag.ETA_A, FormTag.ETA_B)
    crit = Criterion.SHORT if eta_family else Criterion.EXACT_EXP
    expected = formula_value(grp, crit) - 1
    if len(seq) != expected:
        raise RuntimeError(f"constructed length {len(seq)} != {expected} for {form}")
    if not lacks(seq, crit):
        raise RuntimeError(f"constructed sequence has a forbidden zero-sum: {form}")
    return seq


@lru_cache(maxsize=None)
def _ordered_bases(group: GroupSpec) -> tuple[tuple[Element, Element], ...]:
    """Every ordered basis (e1, e2) with ord(e2) = exp(G), in index order.

    These are exactly the automorphism images of the standard basis: in
    C_m + C_mn a basis with ord(e2) = mn forces ord(e1) = m.  basis_images
    lists their index pairs in index order.
    """
    return tuple((group.element_at(i1), group.element_at(i2)) for i1, i2 in basis_images(group))


@lru_cache(maxsize=None)
def _generating_pairs(group: GroupSpec) -> tuple[tuple[Element, Element], ...]:
    """Every ordered generating pair (g1, g2) with ord(g2) = exp(G)."""
    elems = tuple(group.elements())
    tops = [g2 for g2 in elems if order_of(g2) == group.exponent]
    return tuple(
        (g1, g2) for g1 in elems for g2 in tops if generates(group, g1.a, g1.b, g2.a, g2.b)
    )


@lru_cache(maxsize=None)
def _units(m: int) -> tuple[int, ...]:
    return tuple(x for x in range(1, m) if math.gcd(x, m) == 1)


@lru_cache(maxsize=None)
def _index_tables(group: GroupSpec) -> tuple:
    """Element-index arithmetic for classify(), built once per group.

    (elements, add, neg, scaled, bases, generating): elements[i] has index
    i; add[i][j] and neg[i] index e_i + e_j and -e_i; scaled holds, per unit
    x, the pair (x, index of x*e_i over i); bases and generating are
    basis_images and _generating_pairs as sets of index pairs.
    """
    return (
        tuple(group.elements()),
        add_table(group),
        neg_table(group),
        tuple((x, image_indices(group, x, 0, 0, x)) for x in _units(group.m)),
        frozenset(basis_images(group)),
        frozenset((g1.index, g2.index) for g1, g2 in _generating_pairs(group)),
    )


def classify(seq: Sequence) -> list[ExtremalForm]:
    """Every parameterization whose construct() equals the sequence.

    One loop over the padding candidates: for an eta-length sequence only
    "no padding" (t = n, no translation, the whole support is the shape);
    for an s-length one each support element g of multiplicity tm-1, t in
    [1, n], with the other three, translated by -g, as the shape (a B shape
    only with t = n).  Only the support is scanned (see the module
    docstring), on element indices; the pairs are checked against the basis
    / generating-pair tables and the multiplicity pattern fixes s and t.
    Only matches become Elements.  An empty result means no family matches.
    """
    grp = seq.group
    if grp.rank != 2:
        raise ValueError("classification needs a group of rank 2")
    m, n, mn = grp.m, grp.n, grp.exponent
    total = len(seq)
    eta_len = formula_value(grp, Criterion.SHORT) - 1
    s_len = formula_value(grp, Criterion.EXACT_EXP) - 1
    if total not in (eta_len, s_len):
        raise ValueError(
            f"not an extremal-length sequence: |S| = {total}, expected {eta_len} or {s_len}"
        )
    cnt = seq.counts
    supp = [i for i, c in enumerate(cnt) if c]
    is_eta = total == eta_len
    if len(supp) != (3 if is_eta else 4):
        return []
    elem, add, neg, scaled, bases, generating = _index_tables(grp)
    forms: list[ExtremalForm] = []

    def param_s(count: int) -> Optional[int]:
        # count == s*m - 1 for some s in [1, n]?
        if (count + 1) % m:
            return None
        s = (count + 1) // m
        return s if 1 <= s <= n else None

    pads = [(None, n)] if is_eta else [(p, param_s(cnt[p])) for p in supp]
    for pad, t in pads:
        if t is None:
            continue
        if pad is None:  # no translation: index 0 is the zero element
            shape, minus_g, g, t_a = supp, 0, None, None
            tag_a, tag_b = FormTag.ETA_A, FormTag.ETA_B
        else:
            shape, minus_g, g, t_a = [i for i in supp if i != pad], neg[pad], elem[pad], t
            tag_a, tag_b = FormTag.S_A, FormTag.S_B
        first = (n + 1 - t) * m - 1
        for a, b in permutations(shape, 2):
            # a = e1 + g, b = e2 + g
            if cnt[a] != first:
                continue
            e1, e2 = add[a][minus_g], add[b][minus_g]
            if (e1, e2) in bases:
                s = param_s(cnt[b])
                if s is not None:
                    want = (n + 1 - s) * m - 1
                    for x, times in scaled:
                        if cnt[add[b][neg[times[e1]]]] == want:
                            forms.append(ExtremalForm(tag_a, elem[e1], elem[e2], x, s, t_a, g))
            if (
                t == n
                and cnt[b] == mn - 1
                and (e1, e2) in generating
                and cnt[add[b][neg[e1]]] == m - 1
            ):
                forms.append(ExtremalForm(tag_b, elem[e1], elem[e2], g=g))

    forms.sort(key=ExtremalForm.sort_key)
    return forms


def _extremal_search(group: GroupSpec, criterion: Criterion, options: Optional[SearchOptions]):
    """The search for the extremals of criterion, and their length."""
    target = formula_value(group, criterion) - 1
    out = longest_lacking_search(group, criterion, options)
    if out.complete and out.max_length != target:
        raise RuntimeError(
            f"extremal search reached length {out.max_length}, expected {target}"
        )
    return out, target


def enumerate_extremal(
    group: GroupSpec,
    criterion: Criterion,
    up_to_aut: bool = False,
    options: Optional[SearchOptions] = None,
) -> tuple[list[Sequence], bool]:
    """All sequences of length formula_value(group, criterion) - 1 that lack
    the criterion, and whether the search was complete.

    With up_to_aut, one representative per automorphism orbit (its least
    image, taken from the search's representatives: SearchOutcome.classes),
    in deterministic order either way; only the full listing builds the
    orbit.  A run cut short by the node budget keeps only the
    extremal-length sequences it reached (possibly none), never the shorter
    maximal ones of a partial tree.
    """
    out, target = _extremal_search(group, criterion, options)
    if out.max_length != target:
        found = []
    else:
        found = out.classes if up_to_aut else out.sequences
    return [Sequence(group, c) for c in found], out.complete


@dataclass
class CheckResult:
    """Outcome of a property or lemma verification run.

    The verdict is derived, never set: a run cut short (complete=False) is
    "unverified", a complete run with counterexamples "falsified", any other
    "verified".  A cut run proves nothing, so it carries no counterexamples.
    """

    name: str
    params: dict
    counterexamples: list[Sequence]
    details: dict
    nodes: int = 0
    complete: bool = True

    def __post_init__(self) -> None:
        if not self.complete and self.counterexamples:
            raise RuntimeError(f"{self.name}: a run cut short cannot have counterexamples")

    @property
    def status(self) -> str:
        if not self.complete:
            return "unverified"
        return "falsified" if self.counterexamples else "verified"

    @property
    def ok(self) -> bool:
        return self.status == "verified"

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "params": self.params,
            "status": self.status,
            "counterexamples": [s.text() for s in self.counterexamples],
            "details": self.details,
            "nodes": self.nodes,
        }


def check_property(m: int, which: str, options: Optional[SearchOptions] = None) -> CheckResult:
    """Does every extremal sequence over C_m + C_m have the shape T^(m-1)?

    which = "C" checks the eta-extremals (Criterion.SHORT), "D" the
    s-extremals (Criterion.EXACT_EXP).  Exhaustive within the node budget; a
    budget hit reports "unverified" rather than trusting anything not
    recomputed here.  The shape is invariant under automorphisms and
    translations, so the search's representatives decide it, and on a
    complete run extremal_count is SearchOutcome.orbit_count; the orbit is
    built only to list the counterexamples of a failed check.
    """
    which = which.upper()
    if which not in ("C", "D"):
        raise ValueError(f"property must be 'C' or 'D', got {which!r}")
    if m < 2:
        raise ValueError("property checks need m >= 2")
    group = GroupSpec(m, m)
    criterion = Criterion.SHORT if which == "C" else Criterion.EXACT_EXP
    out, target = _extremal_search(group, criterion, options)
    rep = m - 1
    bad = []
    if out.complete and any(c % rep for r in out.representatives for c in r):
        bad = [Sequence(group, s) for s in out.sequences if any(c % rep for c in s)]
    return CheckResult(
        name=f"property-{which}",
        params={"m": m},
        counterexamples=bad,
        # A partial enumeration proves nothing: no counterexamples, no count.
        details={"extremal_count": out.orbit_count if out.complete else None, "length": target},
        nodes=out.nodes,
        complete=out.complete,
    )


def _lacking_powers(m: int, size: int, criterion: Criterion) -> Iterator[tuple[Sequence, set]]:
    """Each T^(m-1) over C_m + C_m with |T| = size (T a multiset of element
    indices) that lacks criterion, with the support of T."""
    group = GroupSpec(m, m)
    for combo in combinations_with_replacement(range(group.order), size):
        counts = [0] * group.order
        for i in combo:
            counts[i] += m - 1
        power = Sequence(group, tuple(counts))
        if lacks(power, criterion):
            yield power, set(combo)


def _drop_one(power: Sequence, i: int, k: int) -> Sequence:
    """power with k copies of the element of index i taken out."""
    counts = list(power.counts)
    counts[i] -= k
    return Sequence(power.group, tuple(counts))


def _check_noshort(m: int) -> CheckResult:
    """Every short-zero-sum-free T^(m-1) with |T| = 3 over C_m + C_m comes from
    a basis: T = f1 f2 (-x*f1 + f2) with gcd(x, m) = 1 and x <= m/2, and
    dropping any one term of T leaves a zero-sum free (m-1)-th power.

    Runs on element indices, on classify()'s tables (_index_tables): on
    C_m + C_m every basis element has order m, so (f1, f2) is a basis iff
    its index pair is in bases, and x*f1 is read from scaled."""
    _, add, neg, scaled, bases, _ = _index_tables(GroupSpec(m, m))
    scaled = [(x, times) for x, times in scaled if 2 * x <= m]
    powers = list(_lacking_powers(m, 3, Criterion.SHORT))
    x_values: set[int] = set()
    bad: list[Sequence] = []
    for power, supp in powers:
        found = set()
        for i1, i2 in permutations(supp, 2):
            if (i1, i2) in bases:
                i3 = next(i for i in supp if i not in (i1, i2))
                found.update(x for x, times in scaled if add[i2][neg[times[i1]]] == i3)
        x_values |= found
        if not found or not all(lacks(_drop_one(power, i, m - 1), Criterion.ANY) for i in supp):
            bad.append(power)
    return CheckResult(
        name="noshort",
        params={"m": m},
        counterexamples=bad,
        details={"powers_checked": len(powers), "x_values": sorted(x_values)},
    )


def _check_two_m(m: int) -> CheckResult:
    """For every T^(m-1) of length 4m-4 over C_m + C_m without a length-m
    zero-sum, dropping any one term of T leaves no zero-sum of length 2m."""
    powers = list(_lacking_powers(m, 4, Criterion.EXACT_EXP))
    bad = [
        power
        for power, supp in powers
        if any(has_zero_sum_of_length(_drop_one(power, i, m - 1), 2 * m) for i in supp)
    ]
    return CheckResult(
        name="two-m",
        params={"m": m},
        counterexamples=bad,
        details={"powers_checked": len(powers)},
    )


def _check_invcyc(n: int, options: Optional[SearchOptions] = None) -> CheckResult:
    """The cyclic inverse structure: zero-sum free extremals are e^(n-1) with
    <e> = C_n, and length-n-free extremals are g^(n-1) (g+e)^(n-1): each
    zero-sum free extremal padded by 0^(n-1) and translated by every g, the
    cyclic case of the s-families' padded and translated shapes."""
    group = GroupSpec.cyclic(n)
    generators = [e for e in group.elements() if order_of(e) == n]
    pred_any = {Sequence.from_items(group, [(e, n - 1)]) for e in generators}
    pred_s = {shift(g, z.with_term(group.zero, n - 1)) for z in pred_any for g in group.elements()}
    outs = [longest_lacking_search(group, c, options) for c in (Criterion.ANY, Criterion.EXACT_EXP)]
    complete = all(out.complete for out in outs)
    # A partial enumeration proves nothing: no counterexamples, no counts.
    bad: set[Sequence] = set()
    counts: list[Optional[int]] = [None, None]
    if complete:
        for i, (out, predicted) in enumerate(zip(outs, (pred_any, pred_s))):
            got = {Sequence(group, c) for c in out.sequences}
            bad |= got ^ predicted
            counts[i] = len(got)
    return CheckResult(
        name="invcyc",
        params={"n": n},
        counterexamples=sorted(bad),
        details={
            "zero_sum_free_count": counts[0],
            "expected_zero_sum_free": len(pred_any),
            "length_n_free_count": counts[1],
            "expected_length_n_free": len(pred_s),
        },
        nodes=sum(out.nodes for out in outs),
        complete=complete,
    )


def verify_lemma(
    name: LemmaName,
    m: Optional[int] = None,
    n: Optional[int] = None,
    options: Optional[SearchOptions] = None,
) -> CheckResult:
    """Check one lemma: noshort and two-m over C_m + C_m (m >= 2), invcyc over
    C_n (n >= 1).  A missing or out-of-range parameter is a ValueError."""
    if name is LemmaName.INVCYC:
        if n is None:
            raise ValueError("invcyc needs n")
        if n < 1:
            raise ValueError("invcyc needs n >= 1")
        return _check_invcyc(n, options)
    if name not in (LemmaName.NOSHORT, LemmaName.TWO_M):
        raise ValueError(f"unknown lemma {name!r}")
    if m is None:
        raise ValueError(f"{name.value} needs m")
    if m < 2:
        raise ValueError(f"{name.value} needs m >= 2")
    return _check_noshort(m) if name is LemmaName.NOSHORT else _check_two_m(m)


def reproduce_exp_minus_1(m: int, n: int) -> tuple[Sequence, dict]:
    """A length-(s(G)-1) sequence over C_m + C_mn without a length-exp(G)
    zero-sum in which every multiplicity stays below exp(G) - 1.

    Uses the S_A family with x = 1, s = t = 2, g = 0; the multiplicity bound
    needs n >= 3.  Returns the sequence and the three verified facts.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if n < 3:
        raise ValueError("need n >= 3: for n <= 2 some multiplicity reaches exp(G) - 1")
    group = GroupSpec(m, m * n)
    form = ExtremalForm(
        FormTag.S_A,
        group.element(1, 0),
        group.element(0, 1),
        x=1,
        s=2,
        t=2,
        g=group.zero,
    )
    seq = construct(form)
    expected_len = formula_value(group, Criterion.EXACT_EXP) - 1
    report = {
        "group": str(group),
        "length": len(seq),
        "expected_length": expected_len,
        "lacks_exact_exp": lacks(seq, Criterion.EXACT_EXP),
        "max_multiplicity": seq.max_multiplicity(),
        "exp_minus_1": group.exponent - 1,
    }
    report["ok"] = (
        report["length"] == expected_len
        and report["lacks_exact_exp"]
        and report["max_multiplicity"] < report["exp_minus_1"]
    )
    return seq, report
