"""Exhaustive cross-checks of the four zero-sum constants against their
closed formulas (criteria.formula_value).  For G = C_m + C_mn (m = 1 covers
cyclic groups):

    D(G)              = m + mn - 1
    eta(G)            = 2m + mn - 2
    s_{exp(G)N}(G)    = m + 2mn - 2
    s(G)              = 2m + 2mn - 3

D and s_{exp(G)N} are the cases k = 1 and k = exp(G) of s_{kN}, the
constant that forbids zero-sums of every length divisible by k
(Gao-Geroldinger); criteria._stepper decides both on one table of sums by
length mod k.  longest_lacking() recomputes each constant by brute force as
(maximum length of a sequence lacking the criterion) + 1 and reports the
least extremal sequence.  check_direct_formulas() gets the four from one
walk, s's (search._ONE_WALK): a node lacks s_{exp(G)N} iff its exact rows
show no zero-sum of a length divisible by exp(G), and since
s - eta = s_{exp(G)N} - D = exp(G) - 1 (T lacks short zero-sums iff
0^(exp-1) T lacks zero-sums of length exp(G)), the eta and D walks are the
slice of its nodes with exp(G) - 1 zeros.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .criteria import Criterion, formula_value, lacks
from .groups import GroupSpec
from .search import _ONE_WALK, SearchOptions, _search, longest_lacking_search
from .sequences import Sequence


@dataclass
class SearchReport:
    """Outcome of one exhaustive longest-lacking search.

    lower_bound is one more than the longest lacking sequence found.  A
    complete search makes it the constant itself (computed_constant); a
    search cut short by the node budget proves only the bound, so it carries
    no constant and no extremal examples.  extremal_examples holds the least
    sequence of length computed_constant - 1 that lacks the criterion; it is
    re-validated on construction.
    """

    group: GroupSpec
    criterion: Criterion
    lower_bound: int
    formula_constant: int
    extremal_examples: list[Sequence] = field(default_factory=list)
    nodes_visited: int = 0
    elapsed_ms: float = 0.0
    complete: bool = True

    def __post_init__(self) -> None:
        for s in self.extremal_examples:
            if len(s) != self.lower_bound - 1 or not lacks(s, self.criterion):
                raise RuntimeError(f"extremal example {s} fails revalidation")

    @property
    def computed_constant(self) -> Optional[int]:
        return self.lower_bound if self.complete else None

    @property
    def matches_formula(self) -> bool:
        return self.computed_constant == self.formula_constant

    def to_json(self, include_volatile: bool = True) -> dict:
        out = {
            "group": str(self.group),
            "criterion": self.criterion.value,
            "computed": self.computed_constant,
            "formula": self.formula_constant,
            "extremals": [s.text() for s in self.extremal_examples],
            "complete": self.complete,
        }
        if not self.complete:
            out["lower_bound"] = self.lower_bound
        if include_volatile:
            out["nodes"] = self.nodes_visited
            out["ms"] = round(self.elapsed_ms, 3)
        return out


def longest_lacking(
    group: GroupSpec, criterion: Criterion, options: SearchOptions | None = None
) -> SearchReport:
    """Compute the constant by exhaustive search.

    The report carries the least extremal sequence (in multiplicity-table
    order, so the choice does not depend on search options), taken without
    building the full orbit; longest_lacking_search(...).sequences lists
    them all.  A search cut short by the node budget reports only a lower
    bound (see SearchReport).
    """
    start = time.perf_counter()
    out = longest_lacking_search(group, criterion, options)
    return _report(group, criterion, out, (time.perf_counter() - start) * 1000.0)


def _report(group: GroupSpec, criterion: Criterion, out, elapsed: float) -> SearchReport:
    """The SearchReport of a search outcome, out, whose walk took elapsed ms."""
    kept = [out.least] if out.complete else []
    return SearchReport(
        group=group,
        criterion=criterion,
        lower_bound=out.max_length + 1,
        formula_constant=formula_value(group, criterion),
        extremal_examples=[Sequence(group, c) for c in kept],
        nodes_visited=out.nodes,
        elapsed_ms=elapsed,
        complete=out.complete,
    )


def check_direct_formulas(
    group: GroupSpec, options: SearchOptions | None = None
) -> tuple[bool, list[SearchReport]]:
    """Search all four constants in one walk (see the module docstring) and
    compare each with its closed formula.

    Every report is the one longest_lacking gives, nodes included; all four
    carry the walk's time.  A walk cut short by the budget proves nothing of
    the other three constants, which are then searched alone.  A mismatch
    would falsify the implementation, not the formulas.
    """
    start = time.perf_counter()
    outcomes = _search(group, _ONE_WALK, options)
    elapsed = (time.perf_counter() - start) * 1000.0
    reports = {c: _report(group, c, out, elapsed) for c, out in zip(_ONE_WALK, outcomes)}
    ordered = [reports[c] if c in reports else longest_lacking(group, c, options) for c in Criterion]
    return all(r.matches_formula for r in ordered), ordered
