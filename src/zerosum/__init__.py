"""Zero-sum constants of rank <= 2 finite abelian groups.

Exhaustive computation of D, eta, s and s_{exp N}; enumeration and
classification of the extremal sequences; verification commands for the
supporting structural lemmas.
"""

from .constants import SearchReport, check_direct_formulas, longest_lacking
from .criteria import (
    Criterion,
    formula_value,
    has_zero_sum_of_length,
    lacks,
    verify_shift_lemma,
    witness,
)
from .groups import (
    Element,
    GroupSpec,
    automorphisms,
    is_basis_pair,
    is_generating_pair,
    order_of,
)
from .inverse import (
    CheckResult,
    ExtremalForm,
    FormTag,
    LemmaName,
    check_property,
    classify,
    construct,
    enumerate_extremal,
    reproduce_exp_minus_1,
    verify_lemma,
)
from .search import SearchOptions, SearchOutcome, exists_lacking_subsequence, longest_lacking_search
from .sequences import (
    Sequence,
    SequenceParseError,
    parse_sequence,
    shift,
    sum_of,
)

__all__ = [
    "CheckResult",
    "Criterion",
    "Element",
    "ExtremalForm",
    "FormTag",
    "GroupSpec",
    "LemmaName",
    "SearchOptions",
    "SearchOutcome",
    "SearchReport",
    "Sequence",
    "SequenceParseError",
    "automorphisms",
    "check_direct_formulas",
    "check_property",
    "classify",
    "construct",
    "enumerate_extremal",
    "exists_lacking_subsequence",
    "formula_value",
    "has_zero_sum_of_length",
    "is_basis_pair",
    "is_generating_pair",
    "lacks",
    "longest_lacking",
    "longest_lacking_search",
    "order_of",
    "parse_sequence",
    "reproduce_exp_minus_1",
    "shift",
    "sum_of",
    "verify_lemma",
    "verify_shift_lemma",
    "witness",
]
