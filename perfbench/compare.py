"""Compare two benchmark results (the records in ``.perfbench-out/``).

Usage: ``python3 perfbench/compare.py BASE.json NEW.json``.

Two results are comparable only when every setting matches: workload,
seed, seconds, trace mode, workload parameters, Python version, nproc
and the hash of the benchmark's own code.  Otherwise the comparison is
refused with exit code 2, so that results of different modes are never
read as a change of the program.
"""

import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List


class SettingsMismatch(ValueError):
    """The two results were made with different settings."""


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-metric rows; raises :class:`SettingsMismatch` when the
    settings differ."""
    from perfbench import catalog

    a, b = base["settings"], new["settings"]
    differ = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    if differ:
        raise SettingsMismatch(
            "refusing to compare results made with different settings: "
            + "; ".join(f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in differ)
        )
    rows = []
    for name, old in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        metric = catalog.BY_NAME[name]
        x, y = old["value"], new["metrics"][name]["value"]
        if x:
            change = (y - x) / abs(x)
        else:
            # From a base of 0 any change is unbounded in its direction.
            change = math.copysign(math.inf, y) if y else 0.0
        worse = change if metric.better == "lower" else -change
        if metric.bound and worse > metric.bound:
            verdict = "WORSE"
        elif worse > 0:
            verdict = "worse" if metric.bound == 0 else "within bound"
        elif worse < 0:
            verdict = "better"
        else:
            verdict = "same"
        rows.append({"name": name, "unit": metric.unit, "base": x, "new": y,
                     "change": change, "bound": metric.bound,
                     "verdict": verdict})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BASE.json NEW.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    try:
        rows = compare(base, new)
    except SettingsMismatch as err:
        print(f"perfbench compare: {err}", file=sys.stderr)
        return 2
    for row in rows:
        print(f"{row['name']:<32} {row['base']:>14.6g} {row['new']:>14.6g} "
              f"{row['unit']:<6} {row['change']:>+8.1%}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
