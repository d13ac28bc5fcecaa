"""zerosum benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  One
process, one client, one job after another (a closed loop).  Prints every
metric by name with its unit, then, as the last line, one JSON object with
the keys correct, attempted, failed and metrics.  Exits 1 when any job's
output is wrong or incomplete, 2 when the program cannot be loaded.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
MIN_PASSES = 2
_FAILED = object()


def _load_program():
    """Import zerosum from this checkout's src/, never from anywhere else."""
    init = SRC / "zerosum" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no zerosum sources at {init}")
    sys.path.insert(0, str(SRC))
    import zerosum

    if Path(zerosum.__file__).resolve() != init.resolve():
        raise ImportError(f"zerosum was imported from {zerosum.__file__}, not from {SRC}")
    return zerosum


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tally:
    """Counts attempted and failed jobs; a job fails on a wrong verdict,
    an incomplete result, a non-zero exit code or a digest mismatch."""

    def __init__(self, workload: str, reference: dict[str, str]):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, job, out) -> None:
        self.attempted += job.items
        bad = job.items
        if out is not _FAILED:
            try:
                bad = min(job.verify(out), job.items)
                if job.digest is not None:
                    if job.digest(out) != self.reference.get(f"{self.workload}:{job.name}"):
                        bad = max(bad, 1)
            except Exception:  # a malformed output is a failed job, not a crash
                traceback.print_exc()
                bad = job.items
        if bad:
            print(f"FAILED: {self.workload}: {job.name}", file=sys.stderr)
        self.failed += bad


def run_pass(jobs, tally: Tally, tracer=None) -> tuple[list[float], list[float]]:
    """Run every job once; per-job wall and CPU seconds of the timed region."""
    wall, cpu = [], []
    for job in jobs:
        gc.collect()
        c0, t0 = _cpu_s(), perf_counter()
        if tracer is not None:
            tracer.start()
        try:
            out = job.run()
        except Exception:  # counted as a failed job; the run goes on
            traceback.print_exc()
            out = _FAILED
        finally:
            if tracer is not None:
                tracer.stop()
        t1, c1 = perf_counter(), _cpu_s()
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        tally.check(job, out)
    return wall, cpu


def measure(jobs, seconds: float, tally: Tally) -> tuple[float, float, int]:
    """Whole passes until `seconds` have elapsed, and at least MIN_PASSES;
    the sum over jobs of each job's median wall and CPU time, and the number
    of passes."""
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(run_pass(jobs, tally))
    wall = sum(statistics.median(p[0][j] for p in passes) for j in range(len(jobs)))
    cpu = sum(statistics.median(p[1][j] for p in passes) for j in range(len(jobs)))
    return wall, cpu, len(passes)


def setup_seconds(workload: str, quick: bool) -> float:
    """Median over fresh processes of: interpreter start, import, cold tables."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload] + (["--quick"] if quick else [])
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def end_to_end(name: str, seed: int, seconds: float, tally: Tally, quick: bool) -> dict:
    import workloads

    spec = workloads.WORKLOADS[name]
    jobs = spec.jobs(seed, quick, spec.workers)
    workloads.build_tables(name, quick)  # untimed warm-up of the per-group caches
    wall, cpu, passes = measure(jobs, seconds, tally)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"passes = {passes}")
    return {
        "setup_s": setup_seconds(name, quick),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": (own + kids) / 1024.0,
    }


def per_layer(name: str, seed: int, seconds: float, tally: Tally, quick: bool) -> dict:
    import tracing
    import workloads
    import zerosum as zs

    spec = workloads.WORKLOADS[name]
    cold = workloads.build_tables(name, quick)  # first thing in the process: really cold
    jobs = spec.jobs(seed, quick, spec.workers)
    wall, _, _ = measure(jobs, seconds, tally)

    spans = tracing.SpanRecorder()
    spans.install()
    try:
        span_wall, _ = run_pass(jobs, tally, spans)
    finally:
        spans.uninstall()
    prof = tracing.Profiler()
    prof_wall, _ = run_pass(jobs, tally, prof)

    metrics = {**tracing.span_metrics(spans), **tracing.profile_metrics(prof)}
    calls = metrics["search.orbit_min.calls"]
    metrics["search.orbit_min.accept_ratio"] = metrics["search.nodes"] / calls if calls else 0.0
    metrics["bits.tables.s"] = cold.get("bits", 0.0)
    metrics["groups.automorphisms.s"] = cold.get("aut", 0.0)
    metrics["groups.aut_count"] = (
        sum(len(zs.automorphisms(zs.GroupSpec(*g))) for g in spec.groups(quick))
        if "aut" in spec.tables else 0
    )
    metrics["search.pool.efficiency"] = 0.0
    if spec.workers > 1:
        serial, _ = run_pass(spec.jobs(seed, quick, 1), tally)
        metrics["search.pool.efficiency"] = sum(serial) / (spec.workers * wall)
    metrics["trace.overhead_s"] = sum(prof_wall) - wall
    metrics["trace.span_overhead_s"] = sum(span_wall) - wall
    return metrics


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "zerosum").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced instance lists, for the harness self-test")
    args = parser.parse_args(argv)

    os.environ.pop("ZEROSUM_BUDGET", None)
    try:
        _load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    tally = Tally(args.workload, workloads.load_reference())
    measured = per_layer if args.trace else end_to_end
    metrics = measured(args.workload, args.seed, args.seconds, tally, args.quick)

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}, "
          f"src_lines = {src_lines()}, nproc = {os.cpu_count()}, "
          f"python = {platform.python_version()}")
    for name in units:
        print(f"{name} = {metrics[name]} {units[name]}")
    print(f"fail_frac = {tally.failed / max(tally.attempted, 1)} fraction "
          f"({tally.failed} of {tally.attempted} jobs)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
