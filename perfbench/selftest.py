"""Quick self-test of the benchmark harness, on the reduced instance lists.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced and a traced run exit 0 with correct=true and failed=0, and
    print every declared metric by name with its unit, both as a text line
    and in the final JSON line;
  * two traced runs with the same seed report identical counts;
and that corrupting one expected verdict, one pinned count or one reference
digest makes `failed` > 0 and the exit code non-zero.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)


def run_subprocess(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return check_output(proc.stdout, workload, trace)


def check_output(stdout: str, workload: str, trace: int) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    where = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{where}: {result['attempted']} attempted, {result['failed']} failed")
    expect(set(result["metrics"]) == {m["name"] for m in declared}, f"{where}: metric names")
    for m in declared:
        name, unit = m["name"], m["unit"]
        expect(result["metrics"][name]["unit"] == unit, f"{where}: unit of {name}")
        expect(isinstance(result["metrics"][name]["value"], (int, float)), f"{where}: value of {name}")
        expect(any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines),
               f"{where}: no text line for {name}")
    expect(any(line.startswith("fail_frac = ") for line in lines), f"{where}: no fail_frac line")
    return result


def run_in_process(argv: list[str]) -> tuple[int, dict]:
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def corruption_checks() -> None:
    import run

    run._load_program()
    import oracle
    import workloads

    def quick(workload: str) -> list[str]:
        return ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--quick"]

    def expect_failure(argv: list[str], what: str) -> None:
        code, result = run_in_process(argv)
        expect(code != 0 and result["failed"] > 0 and result["correct"] is False,
               f"corrupted {what} went unnoticed (exit {code}, {result['failed']} failed)")

    pinned = workloads.EXTREMAL_COMMANDS[True]
    command = next(iter(pinned))
    saved = pinned[command]
    pinned[command] = (saved[0] + 1, saved[1])
    try:
        expect_failure(quick("extremal"), "pinned record count")
    finally:
        pinned[command] = saved

    load_reference = workloads.load_reference
    reference = load_reference()
    key = next(k for k in reference if k.startswith("constants:"))
    workloads.load_reference = lambda: {**reference, key: "0" * 64}
    try:
        expect_failure(quick("constants"), "reference digest")
    finally:
        workloads.load_reference = load_reference

    lacks = oracle.Reach.lacks
    oracle.Reach.lacks = lambda self, criterion: not lacks(self, criterion)
    try:
        expect_failure(quick("decide"), "expected verdict")
    finally:
        oracle.Reach.lacks = lacks


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        run_subprocess(name, 0)
        first, second = run_subprocess(name, 1), run_subprocess(name, 1)
        for m in spec["per_layer"]:
            if m["unit"] == "count":
                a, b = first["metrics"][m["name"]]["value"], second["metrics"][m["name"]]["value"]
                expect(a == b, f"{name}: {m['name']} differs between traced runs ({a} vs {b})")
        print(f"selftest: {name} ok")
    corruption_checks()
    print("selftest: corruption checks ok")


if __name__ == "__main__":
    main()
