"""subsym benchmark entry point.

    python3 perfbench/run.py --workload symmetry|materialize|robinson \\
        [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Times set-up in fresh processes (three before the workload, three after),
runs the workload in one child process
(`bench.py`), prints every metric by name with its unit and the run's
context, and ends with one JSON line:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
they are the per-layer ones of a traced pass.  `--out` also writes the
whole record, context and notes included, as JSON.

Exits 2 without a result line when the checkout has no `src/subsym`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_PROBES = 3  # before and again after the workload process
CHILD_TIMEOUT_S = 170


def setup_seconds(specs: list[str], warm_up: bool) -> list[float]:
    """Wall times of fresh processes that import `subsym.cli` and build the specs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *specs]
    times = []
    for i in range(SETUP_PROBES + warm_up):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=60, stdout=subprocess.DEVNULL)
        if i or not warm_up:
            times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    if not (ROOT / "src" / "subsym" / "__init__.py").is_file():
        print(f"error: no src/subsym under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    import workloads as wl

    ap = argparse.ArgumentParser(description="subsym benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full record here")
    args = ap.parse_args(argv)

    setup = []
    if not args.trace:
        setup = setup_seconds(wl.setup_specs(args.workload), warm_up=True)
    child = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0 or not child.stdout.strip():
        sys.stderr.write(child.stderr)
        print(f"error: workload process exited {child.returncode}", file=sys.stderr)
        return 1
    record = json.loads(child.stdout.strip().splitlines()[-1])
    metrics = record["metrics"]
    if setup:
        setup += setup_seconds(wl.setup_specs(args.workload), warm_up=False)
        metrics["setup_s"] = (statistics.median(setup), "s")
        record["setup_samples_s"] = setup

    ctx = record["context"]
    print(f"workload={ctx['workload']} seed={ctx['seed']} trace={args.trace} "
          f"nproc={ctx['nproc']} python={ctx['python']} src_lines={ctx['src_lines']}")
    print(f"passes={record['passes']} ops_per_pass={record['ops_per_pass']} "
          f"samples={record['samples']} attempted={record['attempted']} "
          f"failed={record['failed']} fail_ratio={record['fail_ratio']:.4f}")
    if "samples_beyond_p90" in record:
        print(f"op_p90_ms rests on {record['samples']} samples, "
              f"{record['samples_beyond_p90']} beyond it")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    for note in record["notes"]:
        print(f"note: {note}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
