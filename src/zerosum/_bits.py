"""Bitmask tables: sets of group elements as integers, one bit per element.

Bit i stands for the element with index i = a*n2 + b.  Translating a whole
set by a fixed element is a permutation of bits that decomposes into at most
four masked shifts (wrap-around in each coordinate), precomputed per group.

Reachability tables pack several such sets into one integer, row l at bits
[l*|G|, (l+1)*|G|).  A shift never carries a bit across a row boundary, so
with every mask repeated once per row (row_parts) the same masked shifts
translate all rows at once.  The tables hold negated sums, so entry e of
row_parts translates by -e, as shift_getters does.  row_parts keeps one
table per group and rebuilds it with at least twice the rows when a caller
needs more.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .groups import GroupSpec, image_indices


@lru_cache(maxsize=None)
def neg_table(group: GroupSpec) -> tuple[int, ...]:
    """neg_table(G)[i] = index of -element_i: the automorphism x -> -x."""
    return image_indices(group, -1, 0, 0, -1)


def shift_mask(x: int, parts_g: tuple[tuple[int, int], ...]) -> int:
    """Image of the element set x under translation by g (given g's parts).

    With g's row_parts, x may be a packed table: every row is translated.
    """
    y = 0
    for d, mask in parts_g:
        m = x & mask
        if m:
            y |= (m << d) if d >= 0 else (m >> -d)
    return y


# group -> (rows, parts): the one repeated-row table per group, grown by doubling.
_ROW_PARTS: dict[GroupSpec, tuple[int, tuple[tuple[tuple[int, int], ...], ...]]] = {}


def row_parts(group: GroupSpec, rows: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per-element shift parts whose masks cover rows 0..rows-1 of a packed table.

    Entry e translates by -e.  The table may cover more rows than asked
    for; the extra mask bits meet no bits of the packed integer and cost
    nothing.
    """
    cached = _ROW_PARTS.get(group)
    if cached is not None and cached[0] >= rows:
        return cached[1]
    rows = max(rows, 1, 2 * cached[0] if cached is not None else 0)
    size = group.order
    # mask * repunit repeats a one-row mask in every row (no carries: mask < 2^|G|).
    repunit = ((1 << (rows * size)) - 1) // ((1 << size) - 1)
    table = add_table(group)
    parts = []
    for row in (table[n] for n in neg_table(group)):
        # Translation by -e moves bit i to bit row[i]: one mask per distance.
        by_delta: dict[int, int] = {}
        for i, j in enumerate(row):
            by_delta[j - i] = by_delta.get(j - i, 0) | (1 << i)
        parts.append(tuple((d, mask * repunit) for d, mask in sorted(by_delta.items())))
    parts = tuple(parts)
    _ROW_PARTS[group] = (rows, parts)
    return parts


@lru_cache(maxsize=None)
def add_table(group: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """add_table(G)[i][j] = index of element_i + element_j."""
    n1, n2 = group.n1, group.n2
    size = n1 * n2
    rows = []
    for i in range(size):
        a, b = divmod(i, n2)
        rows.append(tuple(((a + j // n2) % n1) * n2 + (b + j % n2) % n2 for j in range(size)))
    return tuple(rows)


@lru_cache(maxsize=None)
def shift_getters(group: GroupSpec) -> tuple[itemgetter, ...]:
    """For each h != 0: a getter mapping a multiplicity table to a translate.

    The getter for h is row h of add_table, so it reads counts[h + i] into
    index i, i.e. translates by -h; over all h != 0 that runs over every
    nontrivial translation.  The identity is left out, which also keeps
    every getter at two or more items (a one-item itemgetter, as C1 would
    need, returns a scalar, not a tuple).
    """
    return tuple(itemgetter(*row) for row in add_table(group)[1:])
