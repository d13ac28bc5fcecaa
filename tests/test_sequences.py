import random

import pytest

from zerosum import (
    GroupSpec,
    Sequence,
    SequenceParseError,
    automorphisms,
    parse_sequence,
    shift,
    sum_of,
)
from zerosum.groups import least_image
from conftest import ORACLE_GROUPS_16, random_sequence


def test_parse_basic():
    g = GroupSpec(2, 4)
    s = parse_sequence(g, "(1,0)^2 (0,1)")
    assert s.multiplicity(g.element(1, 0)) == 2
    assert s.multiplicity(g.element(0, 1)) == 1
    assert len(s) == 3


def test_parse_accumulates_and_reduces():
    g = GroupSpec(2, 4)
    assert parse_sequence(g, "(1,0) (1,0)") == parse_sequence(g, "(1,0)^2")
    assert parse_sequence(g, "(3,5)") == parse_sequence(g, "(1,1)")
    assert parse_sequence(g, "") == Sequence(g, (0,) * g.order)
    assert parse_sequence(g, "(1,0)^0") == Sequence(g, (0,) * g.order)


def test_parse_errors_carry_offset():
    g = GroupSpec(2, 4)
    with pytest.raises(SequenceParseError) as exc:
        parse_sequence(g, "(1,0) (1;2)")
    assert exc.value.offset == 6
    with pytest.raises(SequenceParseError):
        parse_sequence(g, "(1,0)^-2")


def test_sum_of():
    g = GroupSpec(2, 4)
    assert sum_of(Sequence(g, (0,) * g.order)) == g.zero
    assert sum_of(parse_sequence(g, "(1,0)^2 (0,1)^3")) == g.element(0, 3)
    c5 = GroupSpec.cyclic(5)
    assert sum_of(parse_sequence(c5, "(0,1)^5")) == c5.zero


def test_shift():
    c3 = GroupSpec.cyclic(3)
    s = parse_sequence(c3, "(0,0)^2")
    assert shift(c3.element(0, 1), s) == parse_sequence(c3, "(0,1)^2")
    g = GroupSpec(2, 4)
    rng = random.Random(7)
    for _ in range(50):
        seq = random_sequence(rng, g, 8)
        h = rng.choice(list(g.elements()))
        assert shift(g.zero, seq) == seq
        assert shift(h, shift(-h, seq)) == seq
        moved = shift(h, seq)
        assert len(moved) == len(seq)
        assert [i for i, c in enumerate(moved.counts) if c] == sorted(
            (g.element_at(i) + h).index for i, c in enumerate(seq.counts) if c
        )


def test_shift_matches_termwise_element_sum():
    # shift runs on the add table; the oracle adds h to every term as an Element.
    rng = random.Random(53)
    for n1, n2 in [(1, 1), *ORACLE_GROUPS_16]:
        g = GroupSpec(n1, n2)
        exp = g.exponent
        elems = list(g.elements())
        for _ in range(4):
            items = [(e, rng.randint(0, exp)) for e in rng.sample(elems, min(3, len(elems)))]
            items.append((rng.choice(elems), rng.randint(exp + 1, 3 * exp)))  # above exp(G)
            seq = Sequence.from_items(g, items)
            assert seq.max_multiplicity() > exp
            for h in elems:
                assert shift(h, seq) == Sequence.from_items(g, [(e + h, k) for e, k in seq.items()])


def canonical_form(seq):
    """The least table of seq's automorphism orbit, as a sequence."""
    return Sequence(seq.group, least_image(seq.counts, seq.group))


def test_canonical_form():
    g = GroupSpec(2, 2)
    a = canonical_form(parse_sequence(g, "(1,0)"))
    b = canonical_form(parse_sequence(g, "(0,1)"))
    assert a == b  # some automorphism swaps the generators
    empty = Sequence(g, (0,) * g.order)
    assert canonical_form(empty) == empty
    rng = random.Random(13)
    for grp in [GroupSpec(2, 2), GroupSpec(2, 4), GroupSpec(1, 5)]:
        for _ in range(30):
            s = random_sequence(rng, grp, 6)
            c = canonical_form(s)
            assert canonical_form(c) == c
            for p in automorphisms(grp):
                items = [(grp.element_at(p[e.index]), k) for e, k in s.items()]
                image = Sequence.from_items(grp, items)
                assert canonical_form(image) == c


def test_multiset_helpers():
    g = GroupSpec(2, 4)
    s = parse_sequence(g, "(1,0)^2 (0,1)")
    t = parse_sequence(g, "(1,0) (0,1)")
    assert all(a >= b for a, b in zip(s.counts, t.counts))
    assert not all(a >= b for a, b in zip(t.counts, s.counts))
    assert s.max_multiplicity() == 2


def test_text_and_json_roundtrip():
    g = GroupSpec(2, 6)
    s = parse_sequence(g, "(0,0)^3 (1,0)^3 (0,1)^3 (1,1)^3")
    assert parse_sequence(g, s.text()) == s
