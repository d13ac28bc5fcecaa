"""One fresh-process set-up: interpreter start, import zerosum, cold tables.

    python3 perfbench/setup_probe.py WORKLOAD [--quick]

run.py times this whole process for the setup_s metric.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports zerosum)

workloads.build_tables(sys.argv[1], "--quick" in sys.argv[2:])
