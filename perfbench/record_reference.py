"""Write perfbench/reference.json: the sha256 of each fixed job's output.

    python3 perfbench/record_reference.py

Outputs leave out volatile fields (to_json(include_volatile=False) for
library jobs, stdout for CLI jobs).  Pooled jobs are recorded with one
worker, so the benchmark also checks that pooled output is byte-identical to
serial output.  Run this only on the commit whose output is the reference;
re-recording on a later commit would hide a change in a mathematical byte.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    reference = {}
    for name, spec in workloads.WORKLOADS.items():
        for quick in (False, True):
            for job in spec.jobs(0, quick, 1):
                if job.digest is None:
                    continue
                out = job.run()
                if job.verify(out):
                    raise SystemExit(f"{name}: {job.name}: wrong result, not recorded")
                reference[f"{name}:{job.name}"] = job.digest(out)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
