"""Time one workload set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <params-json>``.
Prints one JSON line: ``setup_s`` (imports plus set-up), ``import_s``,
``build_s`` and ``fingerprint_s`` (0 when the set-up computes none), in
raw wall seconds, and ``reference_s``, the host-speed reference read
right after the set-up (see ``perfbench/pace.py``).
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.pace import settled_reference_s
    from perfbench.workloads import get_workload

    imported = time.perf_counter()
    name, seed, params = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    plan = get_workload(name).setup(seed, params)
    done = time.perf_counter()
    print(json.dumps({
        "setup_s": done - STARTED,
        "import_s": imported - STARTED,
        "build_s": done - imported,
        "fingerprint_s": plan.get("fingerprint_s", 0.0),
        "reference_s": settled_reference_s(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
