"""Repository benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cases-atropos --seed 1 \\
        --seconds 30 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The full record, with the settings that make two
results comparable, goes to ``.perfbench-out/`` (see
``perfbench/compare.py``).  Exits 2 without a result when the program's
sources are missing.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: program sources not found at {package.parent}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"expected {package}", file=sys.stderr)
        return 2
    from perfbench.bench import run_benchmark
    from perfbench.pace import REF_S

    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), OUT_DIR, started=STARTED)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for check in result["checks"]:
        if not check["ok"]:
            print(f"FAILED {check['name']} {check['detail']}",
                  file=sys.stderr)
    settings = result["settings"]
    print(f"workload {settings['workload']}  seed {settings['seed']}  "
          f"passes {len(result['passes'])}  python {settings['python']}  "
          f"nproc {settings['nproc']}  bench {settings['bench_code'][:12]}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  wall_s is paced: raw wall {result['raw_wall_s']:.6g} s, "
          f"host reference {result['reference_ms']:.4g} ms "
          f"(paced seconds assume {REF_S * 1e3:g} ms)")
    print(f"  checks {result['attempted'] - result['failed']}"
          f"/{result['attempted']} passed; full record: "
          f"{path.relative_to(ROOT)}")
    from perfbench import catalog

    reported = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: result["metrics"][m.name] for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
