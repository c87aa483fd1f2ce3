"""Regenerate `pins.json`, the expected outputs the benchmark checks against.

    python3 perfbench/pin.py

Run it only when a change to the program is meant to change output bytes
or verdicts, and say so in CHANGES.md: every check in the benchmark
compares against these pins.  The catalogue invariants are taken from the
unconjugated specs; the benchmark checks conjugated copies against them
through `reference.py`, so a pin that the program and the conjugation
algebra disagree on fails every seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from subsym import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def catalogue_pin(spec: dict) -> dict:
    from subsym.specio import build_substitution, parse_spec
    from subsym.symmetry import (
        EXACT_YES,
        VERIFIED_UP_TO,
        _language_comparison,
        aut_group_description,
        sym_group_report,
    )

    theta = build_substitution(parse_spec(json.dumps(spec)))
    aut = aut_group_description(theta)
    report = sym_group_report(theta, depth=wl.SYM_DEPTH)
    matrices = {}
    for cand in report.candidates:
        if cand.verdict == EXACT_YES:
            taus = [list(t) for t in cand.taus]
        elif cand.verdict == VERIFIED_UP_TO:
            taus = [
                list(t) for t in itertools.permutations(range(len(spec["alphabet"])))
                if _language_comparison(theta, cand.a, [t], wl.SYM_DEPTH).verdict == VERIFIED_UP_TO
            ]
        else:
            taus = []
        matrices[ref.sp_text((cand.a.perm, cand.a.signs))] = {
            "verdict": cand.describe().partition(",tau=")[0],
            "taus": taus,
        }
    return {
        "relabel_group": [list(t) for t in aut.relabel_group],
        "structure": aut.structure,
        "summary": report.summary_line(),
        "matrices": matrices,
    }


def main() -> int:
    from subsym import robinson as rob

    pins: dict = {"catalogue": {}, "lang": {}, "robinson": {}}
    for entry in wl.SYM_PLAN:
        pins["catalogue"][entry] = catalogue_pin(wl.catalogue_spec(entry))
    for key in wl.all_lang_keys():
        spec_name, shape, mode = key.split(":")
        rc, out, _ = _cli(["lang", spec_name, "--shape", shape, "--mode", mode])
        assert rc == 0, key
        pins["lang"][key] = {"patterns": len(out.splitlines()), "digest": wl.digest(out)}
    assemble = {}
    for argv in wl.all_assemble_argvs():
        rc, out, err = _cli(argv)
        assert rc == 0 and err == "violations=0\n", argv
        assemble[wl.rob_key(argv)] = wl.digest(out)
    torus = {}
    for w, h in wl.TORUS_SIZES:
        for a, b in ((w, h), (h, w)):
            torus[f"{a}x{b}"] = rob.torus_tiling_search(a, b).decisions
    pins["robinson"] = {
        "assemble": assemble,
        "torus": torus,
        "verify_inputs": {k: wl.digest(wl.make_verify_text(rob, k)) for k in wl.verify_sources()},
    }
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    # default-seed digests: the first pass of each workload, checked against the pins above
    import bench

    pins["default_seed"] = {}
    runner = bench.Runner(wl.ROOT / ".perfbench_work" / "pin-inputs")
    for workload in wl.WORKLOADS:
        ops = wl.build_pass(workload, wl.DEFAULT_SEED, 0)
        runner.prepare(ops)
        records = runner.run_pass(ops)
        shutil.rmtree(runner.workdir)
        bad = [r.note for r in records if not r.ok]
        if bad:
            raise SystemExit(f"{workload}: pinned checks fail:\n" + "\n".join(bad))
        pins["default_seed"][workload] = {
            "ops_digest": wl.ops_digest(ops),
            "stdout_digest": bench.pass_digest(records),
        }
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {wl.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
