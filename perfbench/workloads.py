"""The benchmark's workloads: their jobs, inputs, expected results and cold tables.

A job is one call, or one batch of calls, into zerosum's public API, or one
in-process CLI command.  Its run() is the timed part; verify() and the
reference digest are checked outside the timed region.  Every workload has
a full instance list and a reduced one for the harness self-test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import zerosum as zs
from zerosum import cli

import oracle

# Passed explicitly to every search, so that an inherited ZEROSUM_BUDGET can
# never truncate a search into a fast, wrong pass.
NODE_BUDGET = 2_000_000_000

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    verify: Callable[[Any], int]  # number of failed items among `items`
    digest: Optional[Callable[[Any], str]] = None
    items: int = 1


@dataclass(frozen=True)
class Workload:
    jobs: Callable[[int, bool, int], list[Job]]  # (seed, quick, workers) -> jobs in seed order
    groups: Callable[[bool], list[tuple[int, int]]]  # quick -> groups set-up needs
    tables: tuple[str, ...]  # kinds of cold table, see TABLES
    workers: int = 1  # search workers per job


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _search_options(workers: int) -> zs.SearchOptions:
    return zs.SearchOptions(workers=workers, node_budget=NODE_BUDGET)


def _report_ok(report, n1: int, n2: int) -> bool:
    want = oracle.formula(n1, n2, report.criterion.value)
    return report.complete and report.computed_constant == want == report.formula_constant


def _shuffled(jobs: list[Job], rng: random.Random) -> list[Job]:
    rng.shuffle(jobs)
    return jobs


# --- constants: check_direct_formulas, all four criteria, one worker -------

CONSTANTS_GROUPS = {
    False: [(2, 4), (3, 3), (2, 6), (3, 6), (4, 4), (2, 8), (5, 5)],
    True: [(2, 4), (3, 3), (2, 6)],
}


def _constants_job(n1: int, n2: int, workers: int) -> Job:
    def run():
        return zs.check_direct_formulas(zs.GroupSpec(n1, n2), _search_options(workers))

    def verify(out) -> int:
        ok, reports = out
        good = ok and len(reports) == 4 and all(_report_ok(r, n1, n2) for r in reports)
        return 0 if good else 1

    def digest(out) -> str:
        return _sha(json.dumps([r.to_json(include_volatile=False) for r in out[1]], sort_keys=True))

    return Job(f"C{n1}+C{n2}", run, verify, digest)


def constants_jobs(seed: int, quick: bool, workers: int) -> list[Job]:
    jobs = [_constants_job(n1, n2, workers) for n1, n2 in CONSTANTS_GROUPS[quick]]
    return _shuffled(jobs, random.Random(seed))


# --- constants-2w: longest_lacking through the two-worker fork pool --------

POOL_JOBS = {
    False: [((2, 8), "s"), ((2, 8), "s_exp_mult"), ((3, 6), "s"), ((3, 6), "s_exp_mult"), ((5, 5), "s")],
    True: [((2, 4), "s"), ((3, 3), "s_exp_mult"), ((2, 6), "s")],
}


def _pool_job(n1: int, n2: int, criterion: str, workers: int) -> Job:
    def run():
        crit = zs.Criterion.from_name(criterion)
        return zs.longest_lacking(zs.GroupSpec(n1, n2), crit, _search_options(workers))

    def verify(report) -> int:
        return 0 if _report_ok(report, n1, n2) else 1

    def digest(report) -> str:
        return _sha(json.dumps(report.to_json(include_volatile=False), sort_keys=True))

    # The reference digest is recorded with one worker, so a match also
    # shows that the pooled output is byte-identical to the serial one.
    return Job(f"C{n1}+C{n2} {criterion}", run, verify, digest)


def pool_jobs(seed: int, quick: bool, workers: int) -> list[Job]:
    jobs = [_pool_job(g[0], g[1], c, workers) for g, c in POOL_JOBS[quick]]
    return _shuffled(jobs, random.Random(seed))


# --- extremal: in-process CLI, enumeration and classification --------------

# command -> (records, classify matches); None where the count is not pinned
EXTREMAL_COMMANDS = {
    False: {
        "extremal --group 3,6 --kind s --classify": (864, 8640),
        "extremal --group 3,6 --kind eta --classify": (96, 288),
        "extremal --group 4,4 --kind s --classify": (192, 4608),
        "extremal --group 2,8 --kind s --up-to-aut": (40, None),
        "check property-C --m 5": (720, None),
        "check property-D --m 5": (4500, None),
    },
    True: {
        "extremal --group 2,4 --kind s --classify": (32, 384),
        "extremal --group 2,6 --kind eta --classify": (24, 72),
        "extremal --group 2,6 --kind s --up-to-aut": (23, None),
        "check property-C --m 3": (24, None),
        "check property-D --m 3": (54, None),
    },
}


def _extremal_job(command: str, quick: bool) -> Job:
    argv = command.split() + ["--budget", str(NODE_BUDGET)]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def verify(out) -> int:
        code, text = out
        want_records, want_matches = EXTREMAL_COMMANDS[quick][command]
        if code != 0:
            return 1
        lines = [json.loads(line) for line in text.splitlines() if line]
        if argv[0] == "check":
            result = lines[0] if len(lines) == 1 else {}
            good = (result.get("status") == "verified"
                    and result.get("details", {}).get("extremal_count") == want_records)
            return 0 if good else 1
        good = len(lines) == want_records
        if want_matches is not None:
            matches = [len(rec.get("matches", [])) for rec in lines]
            good = good and min(matches, default=0) >= 1 and sum(matches) == want_matches
        return 0 if good else 1

    return Job(command, run, verify, lambda out: _sha(out[1]))


def extremal_jobs(seed: int, quick: bool, workers: int) -> list[Job]:
    jobs = [_extremal_job(c, quick) for c in EXTREMAL_COMMANDS[quick]]
    return _shuffled(jobs, random.Random(seed))


def _extremal_groups(quick: bool) -> list[tuple[int, int]]:
    out = []
    for command in EXTREMAL_COMMANDS[quick]:
        words = command.split()
        if "--group" in words:
            n1, n2 = words[words.index("--group") + 1].split(",")
            out.append((int(n1), int(n2)))
        else:
            m = int(words[words.index("--m") + 1])
            out.append((m, m))
    return sorted(set(out))


# --- decide: seeded stream of exact decisions ------------------------------

# The 20 groups of order <= 36 that the lemma acceptance test draws from.
DECIDE_GROUPS = [
    (2, 2), (1, 5), (2, 4), (3, 3), (1, 7), (2, 6), (1, 12), (2, 8),
    (4, 4), (3, 6), (1, 16), (5, 5), (2, 10), (1, 25), (3, 9), (6, 6),
    (2, 18), (3, 12), (1, 36), (4, 8),
]
DECIDE_SIZES = {
    False: {"decisions": 3000, "case 1": 2000, "case 2": 1000, "case 3": 2000},
    True: {"decisions": 60, "case 1": 15, "case 2": 15, "case 3": 15},
}
# (lemma, m, powers checked)
DECIDE_LEMMAS = {
    False: [("noshort", 5, 720), ("two-m", 4, 192)],
    True: [("noshort", 3, 24), ("two-m", 3, 54)],
}
MAX_DECISION_LENGTH = 24
MAX_LEMMA_LENGTH = 16


def _grow(rng: random.Random, n1: int, n2: int, criterion: str, length: int,
          start: list[int], patience: int = 30) -> list[int]:
    """Random multiplicity table lacking the criterion, grown one term at a time."""
    counts = list(start)
    reach = oracle.reach_of(n1, n2, counts)
    misses = 0
    while sum(counts) < length and misses < patience:
        i = rng.randrange(n1 * n2)
        trial = reach.copy()
        trial.push(i)
        if trial.lacks(criterion):
            counts[i] += 1
            reach = trial
        else:
            misses += 1
    return counts


def _random_counts(rng: random.Random, n1: int, n2: int, length: int) -> list[int]:
    counts = [0] * (n1 * n2)
    for _ in range(length):
        counts[rng.randrange(n1 * n2)] += 1
    return counts


# The i-th input's group and length: every group, and every length in
# [low, high] within a group, comes up equally often.  The seed picks only the
# terms, so the cost of a pass hardly depends on it.

def _group(i: int) -> tuple[int, int]:
    return DECIDE_GROUPS[i % len(DECIDE_GROUPS)]


def _length(i: int, low: int, high: int) -> int:
    return low + (i // len(DECIDE_GROUPS)) % (high - low + 1)


def _decisions_job(rng: random.Random, size: int) -> Job:
    inputs = []
    for i in range(size):
        n1, n2 = _group(i)
        counts = _random_counts(rng, n1, n2, _length(i, 0, MAX_DECISION_LENGTH))
        reach = oracle.reach_of(n1, n2, counts)
        expected = [reach.lacks(c) for c in oracle.CRITERIA]
        inputs.append((zs.Sequence(zs.GroupSpec(n1, n2), tuple(counts)), expected))
    criteria = [zs.Criterion.from_name(c) for c in oracle.CRITERIA]

    def run():
        lacks, witness = zs.lacks, zs.witness
        return [[True if lacks(seq, c) else witness(seq, c) for c in criteria] for seq, _ in inputs]

    def verify(out) -> int:
        failed = 0
        for (seq, expected), verdicts in zip(inputs, out):
            n1, n2 = seq.group.n1, seq.group.n2
            for name, want, got in zip(oracle.CRITERIA, expected, verdicts):
                if want:
                    good = got is True
                else:
                    good = got is not True and oracle.is_witness(
                        n1, n2, seq.counts, name, getattr(got, "counts", None))
                if not good:
                    failed += 1
                    break
        return failed + abs(len(out) - len(inputs))

    return Job("decisions", run, verify, items=size)


def _shift_lemma_job(rng: random.Random, case: int, size: int) -> Job:
    instances = []
    for i in range(size):
        n1, n2 = _group(i)
        group = zs.GroupSpec(n1, n2)
        g = rng.randrange(n1 * n2)
        n = None
        if case == 1:
            counts = _random_counts(rng, n1, n2, _length(i, 0, MAX_LEMMA_LENGTH))
            n = n2 * rng.randint(1, 2)
        elif case == 2:  # S without a short zero-sum
            cap = min(2 * n1 + n2 - 3, MAX_LEMMA_LENGTH)
            counts = _grow(rng, n1, n2, "eta", _length(i, 0, cap), [0] * (n1 * n2))
        else:  # S without a length-exp zero-sum, v_g(S) >= floor((exp-1)/2)
            start = [0] * (n1 * n2)
            start[g] = (n2 - 1) // 2
            cap = max(start[g], min(2 * n1 + 2 * n2 - 4, MAX_LEMMA_LENGTH))
            counts = _grow(rng, n1, n2, "s", _length(i, start[g], cap), start)
        instances.append((zs.Sequence(group, tuple(counts)), group.element_at(g), n))

    def run():
        verify_shift_lemma = zs.verify_shift_lemma
        return [verify_shift_lemma(seq, g, case, n=n) for seq, g, n in instances]

    def verify(out) -> int:
        return sum(1 for r in out if r is not True) + abs(len(out) - len(instances))

    return Job(f"shift-lemma case {case}", run, verify, items=size)


def _lemma_job(name: str, m: int, powers: int) -> Job:
    def run():
        return zs.verify_lemma(zs.LemmaName(name), m=m)

    def verify(result) -> int:
        good = result.status == "verified" and result.details.get("powers_checked") == powers
        return 0 if good else 1

    def digest(result) -> str:
        return _sha(json.dumps(result.to_json(), sort_keys=True))

    return Job(f"{name} m={m}", run, verify, digest)


def decide_jobs(seed: int, quick: bool, workers: int) -> list[Job]:
    rng = random.Random(seed)
    sizes = DECIDE_SIZES[quick]
    jobs = [_decisions_job(rng, sizes["decisions"])]
    jobs += [_shift_lemma_job(rng, case, sizes[f"case {case}"]) for case in (1, 2, 3)]
    jobs += [_lemma_job(*lemma) for lemma in DECIDE_LEMMAS[quick]]
    return _shuffled(jobs, rng)


def _decide_groups(quick: bool) -> list[tuple[int, int]]:
    lemma_groups = [(m, m) for _, m, _ in DECIDE_LEMMAS[quick]]
    return sorted(set(DECIDE_GROUPS + lemma_groups))


WORKLOADS = {
    "constants": Workload(constants_jobs, CONSTANTS_GROUPS.get, ("bits", "aut")),
    "extremal": Workload(extremal_jobs, _extremal_groups, ("bits", "aut", "bases")),
    "decide": Workload(decide_jobs, _decide_groups, ("bits",)),
    "constants-2w": Workload(
        pool_jobs, lambda quick: sorted({g for g, _ in POOL_JOBS[quick]}), ("bits", "aut"), workers=2),
}


# --- cold per-group tables -------------------------------------------------

def _call_each(*names: tuple[str, str]) -> Callable[[zs.GroupSpec], None]:
    # Private table builders are looked up by name and skipped when a later
    # version of the library no longer has them.
    def build(group: zs.GroupSpec) -> None:
        for module, name in names:
            fn = getattr(getattr(zs, module, None), name, None)
            if fn is not None:
                fn(group)
    return build


def _aut_tables(group: zs.GroupSpec) -> None:
    permutation = getattr(zs.groups, "element_permutation", None)
    for aut in zs.automorphisms(group):
        if permutation is not None:
            permutation(aut)


TABLES = {
    "bits": _call_each(("_bits", "bit_tables"), ("_bits", "add_table"), ("_bits", "shift_permutations")),
    "aut": _aut_tables,
    "bases": _call_each(("inverse", "_ordered_bases"), ("inverse", "_generating_pairs")),
}


def build_tables(workload: str, quick: bool) -> dict[str, float]:
    """Build the workload's cold per-group tables; seconds spent per kind."""
    spec = WORKLOADS[workload]
    spent = dict.fromkeys(spec.tables, 0.0)
    for n1, n2 in spec.groups(quick):
        group = zs.GroupSpec(n1, n2)
        for kind in spec.tables:
            t0 = perf_counter()
            TABLES[kind](group)
            spent[kind] += perf_counter() - t0
    return spent


def load_reference() -> dict[str, str]:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)
