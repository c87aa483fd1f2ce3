"""Command-line front end.

Exit codes: 0 success, 1 verdict-negative (rule violations, refutations,
SAT counterexamples), 2 usage errors.  All output is deterministic for a
given spec + flags; `--threads` is validated but starts no threads.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import re
import sys
from importlib import resources
from pathlib import Path

from . import specio
from .errors import SubsymError, ValidationError
from .language import patch_language
from .lattice import Rect
from .points import AddressablePoint
from .substitution import (
    RectSubstitution,
    Seed,
    _seed_periods,
    corner_fixing_power,
    is_bijective,
    is_primitive,
    power,
)
from .symmetry import (
    aut_group_description,
    fracture_normal_witness,
    non_axis_fracture_refuter,
    sym_group_report,
)


def _load(spec_arg: str) -> tuple[specio.SubstitutionSpec, RectSubstitution]:
    if spec_arg in specio.BUNDLED and not os.path.exists(spec_arg):
        text = specio.bundled_text(spec_arg)
    else:
        text = specio.read_utf8(spec_arg)
    return specio.parse_and_build(text)


def _write_out(args, data, binary=False) -> None:
    """Write data, a str, bytes or an iterable of str written one at a time, to -o or stdout."""
    chunks = [data] if isinstance(data, (str, bytes)) else data
    if getattr(args, "output", None) is not None:
        with open(args.output, "wb" if binary else "w") as f:
            f.writelines(chunks)
    elif binary:
        sys.stdout.buffer.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _perm_to_str(a) -> str:
    signs = "".join("-" if t else "+" for t in a.signs)
    perm = "".join(str(p + 1) for p in a.perm)
    return f"{signs};{perm}"


def cmd_analyze(args) -> int:
    """The report is built whole before any of it is printed, so a refusal prints nothing."""
    spec, theta = _load(args.spec)
    prim = is_primitive(theta)
    bij = is_bijective(theta)
    lines = [
        f"name={spec.name}",
        f"dim={spec.dim}",
        f"size={','.join(str(s) for s in spec.size)}",
        f"alphabet={','.join(spec.alphabet)}",
        f"primitive=yes witness_power={prim.witness_power}"
        if prim.primitive
        else f"primitive=no missing_pairs={len(prim.missing)}",
        f"bijective={'yes' if bij else 'no'}",
    ]
    periods = _seed_periods(theta)
    cycles = sum(seeds // period for period, seeds in periods.items())
    lines.append(f"seed_cycles={cycles} fixed_seeds={periods.get(1, 0)}")
    if bij:
        m, n_seeds = corner_fixing_power(theta), len(theta.alphabet) ** (1 << theta.dim)
        lines += [f"corner_fixing_power={m}", f"fixed_seeds_after_corner_fixing={n_seeds}"]
    print("\n".join(lines))
    return 0


def cmd_aut(args) -> int:
    """Relabel group: each tau is fixed by tau(0) and found by propagating through the rules."""
    _, theta = _load(args.spec)
    desc = aut_group_description(theta)
    print(f"relabel_group_order={desc.relabel_order}")
    print(f"structure={desc.structure}")
    for tau in desc.relabel_group:
        print("tau=" + ",".join(str(t) for t in tau))
    return 0


def cmd_sym(args) -> int:
    """Verdict per signed permutation; ExactYes taus come from tau(0)-propagation as in `aut`."""
    _, theta = _load(args.spec)
    report = sym_group_report(theta, depth=args.depth)
    for cand in report.candidates:
        print(f"{_perm_to_str(cand.a)} -> {cand.describe()}")
    print(report.summary_line())
    return 0


def cmd_patch(args) -> int:
    _, theta = _load(args.spec)
    theta_m = power(theta, args.power)
    sym = theta.alphabet.index(args.symbol) if args.symbol is not None else 0
    patch = theta_m.rule(sym)
    if args.render == "txt":
        _write_out(args, specio.render_pattern_text(patch))
    else:  # argparse allows only "txt" and "ppm"
        _write_out(args, specio.render_pattern_ppm(patch, scale=args.scale), binary=True)
    return 0


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from None


def _window_radius(args) -> int:
    """The r of `--window r`, refused unless r >= 1.  `point` and `fracture --axis` read the
    box [-r, r-1]^d; `fracture --refute` looks for its block in [-r, r]^d."""
    if args.window < 1:
        raise ValidationError(f"--window must be a positive integer, got '{args.window}'")
    return args.window


def cmd_point(args) -> int:
    """The window is read before anything is printed, so a refusal prints nothing."""
    _, theta = _load(args.spec)
    seed = Seed(theta.dim, tuple(theta.alphabet.index(nm) for nm in args.seed.split(",")))
    shift = _parse_ints(args.shift) if args.shift is not None else (0,) * theta.dim
    rect = Rect.centered(theta.dim, _window_radius(args))
    window = AddressablePoint(theta, seed, shift).window(rect)
    if is_bijective(theta):  # corner_fixing_power exists only then, as in analyze
        print(f"corner_fixing_power={corner_fixing_power(theta)}")
    sys.stdout.write(specio.render_pattern_text(window))
    return 0


def _source_digest() -> str:
    """sha256 of the package's own .py files, by name."""
    h = hashlib.sha256()
    for f in sorted(resources.files(__package__).iterdir(), key=lambda f: f.name):
        if f.name.endswith(".py"):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def cmd_lang(args) -> int:
    _, theta = _load(args.spec)
    shape = _parse_ints(args.shape)
    cache_path = None
    if args.cache_dir == "":
        raise ValidationError("--cache-dir '' names no directory")
    if args.cache_dir is not None:
        # keyed by what decides the dump: theta's size and rule cells (not its names), the
        # parsed shape, the mode, and the code that computes it
        key = repr((theta.size, [r.cells for r in theta.rules], shape, args.mode, _source_digest()))
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        cache_path = Path(args.cache_dir) / f"lang-{digest}.txt"
        # an entry is the stats line and its newline, then the dump; one without
        # either, or not UTF-8, is rebuilt. It is decoded to the end before any
        # line is served, so a bad entry is never half served
        try:
            with open(cache_path, encoding="utf-8") as entry:
                stats = entry.readline()
                for _ in entry:
                    pass
                if stats.startswith("# patterns=") and stats.endswith("\n"):
                    entry.seek(0)
                    entry.readline()
                    _write_out(args, entry)
                    sys.stderr.write(stats)
                    return 0
        except (FileNotFoundError, UnicodeDecodeError):
            pass
    lang = patch_language(theta, shape, mode=args.mode)
    stats = f"# patterns={len(lang.patterns)} depth={lang.depth_reached}"
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        # a killed run must not leave a torn entry for later runs to serve
        tmp = cache_path.with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "w") as entry:
            entry.write(stats + "\n")
            entry.writelines(specio.language_lines(lang.shape, lang.patterns))
        os.replace(tmp, cache_path)
    _write_out(args, specio.language_lines(lang.shape, lang.patterns))  # never joined
    print(stats, file=sys.stderr)
    return 0


def cmd_fracture(args) -> int:
    _, theta = _load(args.spec)
    if args.refute is not None:
        v = _parse_ints(args.refute)
        report = non_axis_fracture_refuter(
            theta, v, args.threshold, window=_window_radius(args)
        )
        if report.conclusive:
            b = report.block
            lo, hi = (",".join(map(str, c)) for c in (b.block.lo, b.block.hi))
            print(
                f"refuted direction={args.refute} level={b.level} block=[{lo}]..[{hi}] "
                f"upper_cells={b.upper_count} lower_cells={b.lower_count}"
            )
            return 0
        print(f"inconclusive: window too small, need {report.required_window}")
        return 1
    witness = fracture_normal_witness(theta, args.axis, window=_window_radius(args))
    print(
        f"axis={args.axis} window={args.window} "
        f"equal_on_upper={'yes' if witness.equal_on_upper else 'no'} "
        f"unequal_on_lower={'yes' if witness.unequal_on_lower else 'no'}"
    )
    return 0 if witness.ok else 1


def cmd_robinson(args) -> int:
    from . import robinson as rob  # only robinson commands load it

    if args.rob_cmd == "torus":
        res = rob.torus_tiling_search(
            args.w, args.h, parity=(0, 0), time_cap=args.time_cap
        )
        print(
            f"torus {args.w}x{args.h}: {res.status} "
            f"decisions={res.decisions} elapsed={res.elapsed:.2f}s"
        )
        if res.status == "sat":
            print("counterexample:")
            grid = rob.RobinsonPatch(Rect.box((args.w, args.h)), res.assignment, res.parity)
            print(rob.save_patch_text(grid).split("\n", 2)[2], end="")  # the rows, no headers
            return 1
        if res.status == "timeout":
            print("inconclusive(timeout)")
        return 0
    if args.rob_cmd == "verify":
        patch = rob.load_patch_text(specio.read_utf8(args.file))
        violations = rob.verify_patch(patch)
        print(f"violations={len(violations)}")
        for v in violations[:50]:
            print(f"  {v.kind} at {v.at}: {v.detail}")
        return 1 if violations else 0

    if args.rob_cmd == "supertile":
        patch = rob.supertile(args.n, args.orient)
    elif args.rob_cmd == "window":
        patch = rob.four_quadrant_window(args.n, args.arm_config)
    else:
        patch = rob.fracture_shift_demo(args.n, args.k)
    violations = rob.verify_patch(patch)
    if args.render == "txt":
        _write_out(args, rob.save_patch_text(patch))
    elif args.render == "ppm":
        _write_out(args, rob.render_ppm(patch, scale=args.scale), binary=True)
    elif args.render == "svg":
        _write_out(args, rob.render_svg(patch))
    print(f"violations={len(violations)}", file=sys.stderr)
    return 1 if violations else 0


class _Parser(argparse.ArgumentParser):
    """Reads a comma list of integers that starts with a minus sign, such
    as the `-5,3` of `--shift -5,3`, as a value, as `--shift=-5,3` would.
    Subparsers inherit the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones:
    parsing reads it without changing it, and `main` may run many times in
    one process."""
    ap = _Parser(
        prog="subsym",
        description="Substitution subshifts and the Robinson tiling: "
        "analysis, symmetry search, fracture witnesses, renders.",
    )
    ap.add_argument(
        "--threads", type=int, default=None,
        help="accepted for compatibility; starts no threads",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def spec_arg(p):
        p.add_argument("spec", help="spec file path or bundled name "
                       f"({', '.join(specio.BUNDLED)})")

    p = sub.add_parser("analyze", help="primitivity, bijectivity, corner power, seeds")
    spec_arg(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("aut", help="relabeling automorphism group")
    spec_arg(p)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("sym", help="extended symmetry report over signed permutations")
    spec_arg(p)
    p.add_argument("--depth", type=int, default=3, help="language comparison depth, >= 2")
    p.set_defaults(func=cmd_sym)

    p = sub.add_parser("patch", help="render an iterated rule patch")
    spec_arg(p)
    p.add_argument("-m", "--power", type=int, default=1)
    p.add_argument("-a", "--symbol", default=None)
    p.add_argument("--render", choices=("txt", "ppm"), default="txt")
    p.add_argument("--scale", type=int, default=8)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_patch)

    p = sub.add_parser("point", help="window of a lazy fixed point")
    spec_arg(p)
    p.add_argument("--seed", required=True, help="comma-separated symbols, corner order")
    p.add_argument("--shift", default=None, help="comma-separated integers")
    p.add_argument("--window", type=int, default=8, help="radius r: window [-r, r-1]^d")
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("lang", help="patch language dump (extent:hex lines)")
    spec_arg(p)
    p.add_argument("--shape", required=True, help="comma-separated extents")
    p.add_argument("--mode", choices=("minimal", "full"), default="minimal")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_lang)

    p = sub.add_parser("fracture", help="axis fracture witness / non-axis refuter")
    spec_arg(p)
    p.add_argument("--axis", type=int, default=0, help="0-based axis")
    p.add_argument("--refute", default=None, help="non-axis direction, comma-separated integers")
    p.add_argument("--threshold", type=int, default=4)
    p.add_argument(
        "--window", type=int, default=64,
        help="radius r: --axis checks [-r, r-1]^d, --refute looks in [-r, r]^d",
    )
    p.set_defaults(func=cmd_fracture)

    p = sub.add_parser("robinson", help="Robinson tiling commands")
    rsub = p.add_subparsers(dest="rob_cmd", required=True)

    rp = rsub.add_parser("supertile")
    rp.add_argument("n", type=int)
    rp.add_argument("--orient", choices=("NE", "NW", "SE", "SW"), default="NE")  # robinson.ORIENTATIONS

    rw = rsub.add_parser("window")
    rw.add_argument("n", type=int)
    rw.add_argument("--arm-config", choices=("vertical", "horizontal"), default="vertical")

    rf = rsub.add_parser("fracture")
    rf.add_argument("n", type=int)
    rf.add_argument("k", type=int)

    rt = rsub.add_parser("torus")
    rt.add_argument("w", type=int)
    rt.add_argument("h", type=int)
    rt.add_argument("--time-cap", type=float, default=60.0)

    rv = rsub.add_parser("verify")
    rv.add_argument("file")

    for rp_ in (rp, rw, rf):
        rp_.add_argument("--render", choices=("txt", "ppm", "svg"), default="txt")
        rp_.add_argument("--scale", type=int, default=8)
        rp_.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_robinson)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.threads is not None and args.threads < 1:  # no command starts threads
            raise ValidationError(f"--threads must be a positive integer, got '{args.threads}'")
        if [] in vars(args).values():  # argparse leaves a positional empty after a second "--"
            raise ValidationError("a positional argument is missing")
        return args.func(args)
    except (SubsymError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
