"""The private names the benchmark harness (perfbench/) reads from zerosum.

perfbench/tracing.py wraps the functions of its SPANS list and finds the
profiled hot functions by their code objects; perfbench/workloads.py builds
the cold tables through _call_each.  Both skip a missing name without a
word, so a rename would silently zero a layer's metrics; these tests make it
fail instead.
"""

from types import CodeType

import pytest

from zerosum import GroupSpec, _bits, cli, constants, criteria, inverse, search


def test_stepper_holds_the_push_closures():
    # search.push.* counts the calls of the code objects named push inside
    # the _stepper that search imports.
    assert search._stepper is criteria._stepper
    pushes = [c for c in search._stepper.__code__.co_consts
              if isinstance(c, CodeType) and c.co_name == "push"]
    assert len(pushes) == 2


@pytest.mark.parametrize("fn", [search._is_orbit_minimal, _bits.shift_mask])
def test_profiled_functions_have_code(fn):
    assert isinstance(fn.__code__, CodeType)


@pytest.mark.parametrize("fn", [_bits.add_table, inverse._ordered_bases, inverse._generating_pairs])
def test_table_builders_take_a_group(fn):
    assert fn(GroupSpec(2, 4))


@pytest.mark.parametrize("module,name", [
    (search, "longest_lacking_search"),
    (search, "exists_lacking_subsequence"),
    (criteria, "lacks"),
    (criteria, "witness"),
    (criteria, "verify_shift_lemma"),
    (constants.SearchReport, "__post_init__"),
    (inverse, "enumerate_extremal"),
    (inverse, "classify"),
    (inverse, "verify_lemma"),
    (inverse, "check_property"),
    (cli, "main"),
])
def test_span_functions_exist(module, name):
    assert callable(getattr(module, name))
