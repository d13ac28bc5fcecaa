"""Per-layer measurement from outside the program: spans and a profiler pass.

Spans: while a SpanRecorder is installed, selected public functions of
zerosum (and Pool.map) are replaced, in every zerosum module that binds them,
by wrappers that record (name, start, end, parent span, note).  Span times
are inclusive, except cli.self_s: the cli span minus its child spans.

Profile: the private hot functions (_is_orbit_minimal, the _stepper push
closures, shift_mask, apply_index_permutation, Element and Sequence
construction) are too hot to wrap, so a separate pass runs under cProfile and
reads their call counts and times from the profiler's raw entries.  Raw
entries are keyed by code object, which keeps the dataclass-generated
__init__ methods (all compiled from "<string>") apart.

Both record only between start() and stop(), i.e. inside a job's run().
"""

from __future__ import annotations

import cProfile
import functools
import statistics
import sys
from multiprocessing import pool as mp_pool
from time import perf_counter
from types import CodeType
from typing import Any, Callable, Optional

import zerosum as zs
from zerosum import cli

# (module, attribute, span name, note taken from (args, result))
SPANS: list[tuple[Any, str, str, Optional[Callable[[tuple, Any], Any]]]] = [
    (zs.search, "longest_lacking_search", "search", lambda a, out: (out.nodes, len(out.sequences))),
    (zs.search, "exists_lacking_subsequence", "search.exists_lacking", None),
    (mp_pool.Pool, "map", "search.pool", lambda a, out: len(a[2])),
    (zs.criteria, "lacks", "criteria.lacks", None),
    (zs.criteria, "build_profile", "criteria.build_profile", None),
    (zs.criteria, "witness", "criteria.witness", None),
    (zs.criteria, "verify_shift_lemma", "criteria.shift_lemma", None),
    (zs.constants.SearchReport, "__post_init__", "constants.revalidate", None),
    (zs.sequences, "canonical_form", "sequences.canonical_form", None),
    (zs.inverse, "enumerate_extremal", "inverse.enumerate", None),
    (zs.inverse, "classify", "inverse.classify", lambda a, out: len(out)),
    (zs.inverse, "verify_lemma", "inverse.lemma", None),
    (zs.inverse, "check_property", "inverse.lemma", None),
    (cli, "main", "cli", None),
]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, Any]] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def _wrap(self, fn, name: str, note):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append((name, 0.0, 0.0, parent, None))
            rec._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec._stack.pop()
                rec.spans[idx] = (name, t0, t1, parent, None)
            if note is not None:
                rec.spans[idx] = (name, t0, t1, parent, note(args, out))
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "zerosum" or n.startswith("zerosum.")]
        for owner, attr, name, note in SPANS:
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, name, note)
            if isinstance(owner, type):
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # --- aggregation ---

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]

    def notes(self, name: str) -> list[Any]:
        return [note for n, _, _, _, note in self.spans if n == name]

    def self_time(self, name: str) -> float:
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return sum(t1 - t0 - child[i] for i, (n, t0, t1, _, _) in enumerate(self.spans) if n == name)


def _quantile_us(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e6
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e6


def span_metrics(rec: SpanRecorder) -> dict[str, float]:
    out: dict[str, float] = {}
    searches = rec.notes("search")
    out["search.nodes"] = sum(n for n, _ in searches)
    out["search.maximal"] = sum(k for _, k in searches)
    out["search.s"] = sum(rec.durations("search"))
    out["search.nodes_per_s"] = out["search.nodes"] / out["search.s"] if out["search.s"] else 0.0
    out["search.pool.tasks"] = sum(rec.notes("search.pool"))
    out["search.pool.map_s"] = sum(rec.durations("search.pool"))
    for name in ("search.exists_lacking", "criteria.lacks", "criteria.build_profile",
                 "criteria.witness", "criteria.shift_lemma", "sequences.canonical_form",
                 "inverse.enumerate", "inverse.classify"):
        times = rec.durations(name)
        out[f"{name}.calls"] = len(times)
        out[f"{name}.s"] = sum(times)
    lacks = rec.durations("criteria.lacks")
    out["criteria.lacks.p50_us"] = _quantile_us(lacks, 50)
    out["criteria.lacks.p99_us"] = _quantile_us(lacks, 99)
    out["inverse.classify.matches"] = sum(rec.notes("inverse.classify"))
    out["inverse.lemma.s"] = sum(rec.durations("inverse.lemma"))
    out["constants.revalidate.s"] = sum(rec.durations("constants.revalidate"))
    out["cli.self_s"] = rec.self_time("cli")
    return out


class Profiler(cProfile.Profile):
    start = cProfile.Profile.enable
    stop = cProfile.Profile.disable


def _codes(fn) -> set[CodeType]:
    code = getattr(fn, "__code__", None)
    return {code} if code is not None else set()


def _push_codes() -> set[CodeType]:
    stepper = getattr(zs.search, "_stepper", None)
    if stepper is None:
        return set()
    return {c for c in stepper.__code__.co_consts if isinstance(c, CodeType) and c.co_name == "push"}


def profile_metrics(prof: Profiler) -> dict[str, float]:
    """Counts and times of the private hot functions.

    A function's time is its own time plus that of the builtins it calls; a
    construction's time is the whole __init__, __post_init__ included.
    """
    hot = [  # (count metric, time metric, code objects, whole call)
        ("search.orbit_min.calls", "search.orbit_min.s",
         _codes(getattr(zs.search, "_is_orbit_minimal", None)), False),
        ("search.push.calls", "search.push.s", _push_codes(), False),
        ("search.reexpand.perms", "search.reexpand.s",
         _codes(getattr(zs._bits, "apply_index_permutation", None)), False),
        ("bits.shift_mask.calls", "bits.shift_mask.s",
         _codes(getattr(zs._bits, "shift_mask", None)), False),
        ("groups.element.constructed", "groups.element.s", _codes(zs.Element.__init__), True),
        ("sequences.constructed", "sequences.construct.s", _codes(zs.Sequence.__init__), True),
    ]
    entries = prof.getstats()
    out: dict[str, float] = {}
    for count_name, time_name, codes, whole in hot:
        mine = [e for e in entries if e.code in codes]
        out[count_name] = sum(e.callcount for e in mine)
        out[time_name] = sum(
            e.totaltime if whole
            else e.inlinetime + sum(c.totaltime for c in e.calls or () if isinstance(c.code, str))
            for e in mine
        )
    return out
