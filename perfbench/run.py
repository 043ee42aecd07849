"""Run one dagplan benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload curate-replay --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after the other.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it name every measured quantity with its unit and sample count, and the
workload's input properties.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 1
# Not used while writing changes; confirm a claimed gain on it before landing.
HELDOUT_SEED = 7919


def run_workload(workloads, name: str, args: argparse.Namespace):
    """Run one workload; print its report and metric lines; return (result, metrics)."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Ctx(ROOT, SRC, work, args.seed, args.seconds,
                        workloads.SMOKE if args.smoke else workloads.Sizes())
    result = workloads.WORKLOADS[name](ctx, bool(args.trace))
    expected = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {metric: result.metrics[metric] for metric in expected}
    for line in result.report:
        print(line)
    for metric, value in metrics.items():
        print(f"{metric} = {value['value']:.6g} {value['unit']}")
    for failure in result.failures:
        print(f"FAILED: {failure}")
    for path in work.iterdir():
        if not path.name.endswith(".gz"):
            path.unlink()
    return result, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "dagplan" / "__init__.py").is_file():
        print(f"perfbench: no dagplan sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import dagplan
    if Path(dagplan.__file__).resolve().parent != (SRC / "dagplan").resolve():
        print(f"perfbench: imported dagplan from {dagplan.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from dagbench import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    attempted = failed = 0
    metrics = {}
    for name in names:
        if len(names) > 1:
            print(f"== {name}")
        result, found = run_workload(workloads, name, args)
        attempted += result.attempted
        failed += result.failed
        # With every workload in one run, metric names carry the workload as a prefix.
        metrics.update({f"{name}.{k}" if len(names) > 1 else k: v for k, v in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
