"""Workload runner: runs one workload in this process and prints a JSON record.

One client, closed loop: each op starts when the previous one has been
checked.  Ops are in-process calls to `subsym.cli.main(argv)` with stdout
and stderr captured in memory, or (`sparse`) one library call.  Only the
op itself is timed; writing inputs and checking outputs happen between
ops.  The run repeats whole passes (a fresh seeded op list each) until
`--seconds` have gone by, so every run holds the same mix of op costs.

    python3 perfbench/bench.py --workload symmetry --seed 1 --seconds 30 --trace 0

`run.py` starts this as a child process and adds the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

MAX_FAILURE_NOTES = 10

# Op times are reported at the speed where `yardstick()` takes this long
# (about what it takes on an idle core of a 2-core x86_64 box, CPython 3.11).
YARDSTICK_REF_S = 0.0015
# An op is normalized by the median yardstick reading taken from this long
# before it started to this long after it ended.
YARDSTICK_WINDOW_S = 1.0


def yardstick() -> float:
    """Seconds taken by a fixed chunk of interpreter work shaped like subsym's.

    The two loops copy the shape of the program's hot paths: a per-cell
    tuple/zip/sum index computation into a byte buffer, and a divmod digit
    walk.  On a machine whose cores are shared, the same op runs up to 2x
    slower for minutes at a time, and this loop slows with it: over four
    minutes of mixed ops, op time divided by it stayed within 5% of its
    median in every 30 s window, against 2x for the raw time.  It runs between
    ops, outside the timed region, and is the benchmark's own code, so a
    change to the program does not move it.
    """
    t0 = time.perf_counter()
    size, strides = (4, 4), (1, 4)
    table = bytes(range(16))
    buf = bytearray(16)
    for rep in range(27):
        for rev in itertools.product(range(4), range(4)):
            k = tuple(reversed(rev))
            kk = tuple(x if (i + rep) % 2 else size[i] - 1 - x for i, x in enumerate(k))
            buf[sum(x * st for x, st in zip(kk, strides))] = table[sum(x * st for x, st in zip(k, strides))]
    acc = 0
    for q in range(90):
        rest = [q * 7919 + 3, q * 104729 + 5]
        digits = []
        while any(rest):
            digit = []
            for i, b in enumerate(size):
                rest[i], r = divmod(rest[i], b)
                digit.append(r)
            digits.append(tuple(digit))
        for digit in reversed(digits):
            acc = (acc + digit[0] + digit[1]) & 1
    return time.perf_counter() - t0


@dataclass
class OpRecord:
    kind: str
    seconds: float  # normalized to YARDSTICK_REF_S
    ok: bool
    stdout_digest: str
    note: str = ""
    raw_seconds: float = 0.0  # wall time of the op call
    yardstick_s: float = 0.0


class Runner:
    """Holds the imported program, prepared inputs and the work directory."""

    def __init__(self, workdir: Path) -> None:
        import subsym
        import subsym.cli
        import subsym.points
        import subsym.robinson
        from subsym.specio import bundled_substitution
        from subsym.substitution import corner_fixed

        if not Path(subsym.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"error: imported subsym from {subsym.__file__}, not from {ROOT / 'src'}")
        self.cli = subsym.cli
        self.points = subsym.points
        self.rob = subsym.robinson
        self.seed_cls = subsym.substitution.Seed
        self.theta_cf = {name: corner_fixed(bundled_substitution(name))[0] for name in wl.SPARSE_SPECS}
        self.pins = wl.load_pins()
        self.workdir = workdir
        self.verify_sources: dict[str, str] = {}

    def prepare(self, ops: list[wl.Op]) -> None:
        """Generate and write every input of a pass (outside the timed region)."""
        wl.fill_inputs(ops, self.rob, self.verify_sources)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for op in ops:
            for name, text in op.files.items():
                (self.workdir / name).write_text(text, encoding="utf-8")

    def _argv(self, op: wl.Op) -> list[str]:
        return [str(self.workdir / a[1:]) if a.startswith("@") else a for a in op.argv]

    def execute(self, op: wl.Op) -> tuple[int, str, str, float]:
        if op.kind == "sparse":
            p = op.params
            theta = self.theta_cf[p["spec"]]
            seed = self.seed_cls(theta.dim, tuple(p["seed"]))
            coords = [tuple(k) for k in p["coords"]]
            t0 = time.perf_counter()
            x = self.points.AddressablePoint(theta, seed, tuple(p["shift"]))
            symbols = [x.symbol_at(k) for k in coords]
            dt = time.perf_counter() - t0
            return 0, " ".join(map(str, symbols)), "", dt
        argv = self._argv(op)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = self.cli.main(argv)
            dt = time.perf_counter() - t0
        return rc, out.getvalue(), err.getvalue(), dt

    def run_pass(self, ops: list[wl.Op], tracer=None) -> list[OpRecord]:
        """Run and check ops in order; op times are normalized after the pass."""
        records = []
        readings = [(time.perf_counter(), yardstick())]
        intervals = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                rc, out, err, dt = self.execute(op)
            except Exception:  # the op failed; the run goes on and counts it
                records.append(OpRecord(op.kind, 0.0, False, "", traceback.format_exc(limit=3)))
                continue
            finally:
                intervals.append((start, time.perf_counter()))
                readings.append((time.perf_counter(), yardstick()))
            record = OpRecord(op.kind, dt, True, wl.digest(wl.normalize_stdout(out)), raw_seconds=dt)
            try:
                wl.check(op, rc, out, err, self.pins)
            except (wl.CheckFailed, ValueError, KeyError, IndexError) as exc:
                record.ok, record.note = False, f"{op.kind} {op.argv or ''}: {exc!r}"
            records.append(record)
        for record, (start, end) in zip(records, intervals):
            if record.ok:
                near = [y for t, y in readings if start - YARDSTICK_WINDOW_S <= t <= end + YARDSTICK_WINDOW_S]
                record.yardstick_s = statistics.median(near)
                record.seconds = record.raw_seconds * YARDSTICK_REF_S / record.yardstick_s
        return records


def pass_digest(records: list[OpRecord]) -> str:
    return wl.digest(" ".join(r.stdout_digest for r in records))


def src_line_count() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def context(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "src_lines": src_line_count(),
        "client": "one closed-loop client, no think time",
    }


def _default_seed_pins(runner: Runner, workload: str, seed: int, ops, records) -> list[str]:
    """Mismatches against the pinned op list and stdout of the default seed."""
    if seed != wl.DEFAULT_SEED:
        return []
    pin = runner.pins["default_seed"][workload]
    notes = []
    if wl.ops_digest(ops) != pin["ops_digest"]:
        notes.append("default-seed op list differs from the pinned one")
    if pass_digest(records) != pin["stdout_digest"]:
        notes.append("default-seed stdout differs from the pinned digests")
    return notes


def timed_run(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    records: list[OpRecord] = []
    notes: list[str] = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        ops = wl.build_pass(workload, seed, passes)
        runner.prepare(ops)
        pass_records = runner.run_pass(ops)
        if passes == 0:
            notes += _default_seed_pins(runner, workload, seed, ops, pass_records)
        records += pass_records
        passes += 1
    ok = [r for r in records if r.ok]
    lat = [r.seconds for r in ok]
    failed = len(records) - len(ok)
    if len(lat) < 2:
        raise SystemExit(f"error: {failed} of {len(records)} ops failed: {records[0].note}")
    p90 = statistics.quantiles(lat, n=10)[-1]
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {
        "correct": failed == 0 and not notes,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "fail_ratio": failed / len(records),
        "passes": passes,
        "ops_per_pass": len(records) // passes,
        "samples": len(lat),
        "samples_beyond_p90": sum(t > p90 for t in lat),
        "wall_s": time.perf_counter() - start,
        "yardstick_median_s": statistics.median(r.yardstick_s for r in ok),
        "raw_ops_per_s": len(ok) / sum(r.raw_seconds for r in ok),
        "notes": notes + [r.note for r in records if not r.ok][:MAX_FAILURE_NOTES],
    }


def traced_run(runner: Runner, workload: str, seed: int, spans_path: Path) -> dict:
    """Pass 0 untraced, then the same pass traced; compares stdout bytes."""
    from tracer import Tracer, layer_metrics

    ops = wl.build_pass(workload, seed, 0)
    runner.prepare(ops)
    plain = runner.run_pass(ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    notes = _default_seed_pins(runner, workload, seed, ops, plain)
    if [r.stdout_digest for r in plain] != [r.stdout_digest for r in traced]:
        notes.append("tracing changed stdout bytes")
    records = plain + traced
    failed = sum(not r.ok for r in records)
    metrics = layer_metrics(tracer)
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(tracer.spans_jsonl(), encoding="utf-8")
    return {
        "correct": failed == 0 and not notes,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "fail_ratio": failed / len(records),
        "passes": 2,
        "ops_per_pass": len(ops),
        "samples": len(records),
        "stdout_digest": pass_digest(plain),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "notes": notes + [r.note for r in records if not r.ok][:MAX_FAILURE_NOTES],
    }


def smoke_run(runner: Runner, workload: str, seed: int) -> dict:
    """One op of every kind the workload has, checked, untimed."""
    ops = wl.build_pass(workload, seed, 0)
    firsts = {}
    for op in ops:
        firsts.setdefault(op.kind, op)
    if workload == "robinson":  # a defective verify input as well as a clean one
        firsts["verify-defect"] = next(op for op in ops if op.kind == "verify" and op.expect_rc == 1)
    chosen = list(firsts.values())
    runner.prepare(chosen)
    records = runner.run_pass(chosen)
    failed = sum(not r.ok for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "kinds": sorted(r.kind for r in records),
        "notes": [r.note for r in records if not r.ok],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    scratch = ROOT / ".perfbench_work"
    runner = Runner(scratch / f"inputs-{os.getpid()}")
    try:
        if args.trace:
            spans = scratch / f"spans-{args.workload}-{args.seed}.jsonl"
            result = traced_run(runner, args.workload, args.seed, spans)
        else:
            result = timed_run(runner, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    result["context"] = context(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
