"""chibench: end-to-end and per-layer benchmark of chibound.

Usage, from the repository root:

    python3 chibench/run.py --workload enum-all --seed 0 --seconds 15 --trace 0
    python3 chibench/run.py --workload all

Prints a human-readable report, then, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Exits non-zero without a result when chibound's sources
are not under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("enum-all", "enum-p5c4", "chi-dense", "balloon-cutset")


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import chibound

    if Path(chibound.__file__).resolve().parent != SRC / "chibound":
        print(f"error: imported chibound from {chibound.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload](args.seed)
    result = measure.measure(workload, args.seconds, bool(args.trace))
    if args.trace:
        metrics, raw = measure.per_layer(result), {}
    else:
        metrics, raw = measure.end_to_end(result)

    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus": workload.specs(),
        "bound": workload.bound,
        "python": platform.python_version(),
        "nproc": measure.cpu_count(),
        "chibound": chibound.__version__,
        "commit": git_commit(),
        "digest": digest(workload.digest_lines(result.reps[0].items, result.reps[0].records)),
        "digest_pinned": workload.pinned,
    }
    print("provenance " + json.dumps(provenance))
    for problem in result.problems[:20]:
        print("problem " + problem.rstrip().replace("\n", "\n        "))
    ratio = result.failed / result.attempted
    print(f"{'fail_ratio':<40} {ratio:<14.6g} {result.failed} of {result.attempted} graph checks")
    for name, (value, unit, note) in (metrics | raw).items():
        print(f"{name:<40} {value:<14.6g} {unit:<6} {note}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, so peak memory is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chibound" / "__init__.py").is_file():
        print(f"error: chibound sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
