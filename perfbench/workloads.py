"""Workload generation and output checks.

A workload seed and a pass number fix one pass: a list of operations
plus the input files they read.  The cost profile of a pass is fixed by
the plan tables below; the seed only picks cost-neutral inputs (a
conjugated copy of a catalogue spec, a seed and shift, an orientation, a
dihedral image), so two seeds time the same work on different bytes.

Checks compare each operation's output with the pins in `pins.json` and
with the slow recomputations in `reference.py`; they never ask the
program under test for the expected answer.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_PATH = HERE / "pins.json"

WORKLOADS = ("symmetry", "materialize", "robinson")
DEFAULT_SEED = 1
SYM_DEPTH = 3

# entry -> (source, copies of `sym`, copies of `aut`) per pass: 100 ops.
# The copy counts put the median inside the thirty `sym exact4`/`sym
# cyc4r` ops (14-26 ms) and the 90th percentile inside the twelve `sym
# cyc5r` ops, so neither percentile sits on the edge between two cost
# classes.  `rig3`'s reversal is RefutedAt after the whole power search.
SYM_PLAN = {
    "tm1d": ("bundled", 4, 3),
    "tm2d": ("bundled", 3, 3),
    "tm3d": ("bundled", 10, 3),
    "cyc3": ("bundled", 3, 3),
    "rig3": ("bundled", 9, 3),
    "cyc4r": ("cyclic", 10, 3),
    "cyc5r": ("cyclic", 12, 3),
    "cyc6r": ("cyclic", 1, 1),
    "exact4": ("pinned", 20, 3),
    "verified3": ("pinned", 1, 2),
}

# (command, spec, size parameter, copies) per pass for the dense ops of
# `materialize`; `sparse` ops are library calls, SPARSE_PER_SPEC per spec.
DENSE_PLAN = (
    ("point", "tm2d", 32, 4),
    ("point", "tm2d", 16, 4),
    ("point", "tm3d", 6, 4),
    ("point", "cyc3", 256, 4),
    ("fracture", "tm2d", 16, 4),
    ("fracture", "tm3d", 4, 2),
    ("fracture", "cyc3", 128, 2),
    ("patch", "tm2d", 6, 2),
    ("patch", "tm3d", 3, 2),
    ("patch", "cyc3", 6, 2),
    ("lang-minimal", "tm2d", (2, 3), 2),
    ("lang-full", "tm2d", (2, 3), 2),
    ("lang-minimal", "tm3d", (2, 2, 3), 2),
    ("lang-full", "tm3d", (2, 2, 2), 2),
    ("lang-full", "cyc3", (5,), 2),
)
SPARSE_SPECS = ("tm2d", "tm3d", "cyc3")
SPARSE_PER_SPEC = 20
SPARSE_QUERIES = 300
SPARSE_COORD_BITS = 60
SHIFT_BITS = 20

# (command, size parameter, copies) per pass for `robinson`: with the
# torus and verify ops, 100 ops.
ROB_PLAN = (
    ("supertile", 5, 4),
    ("supertile", 6, 3),
    ("supertile", 7, 2),
    ("supertile", 8, 1),
    ("supertile-svg", 4, 2),
    ("window", 16, 4),
    ("window", 32, 2),
    ("window", 64, 1),
    ("fracture", 16, 4),
    ("fracture", 32, 2),
)
TORUS_SIZES = ((4, 4), (4, 6), (6, 6), (6, 8), (8, 8), (10, 10))
TORUS_COPIES = 2
# (source, size parameter, copies); DEFECTS_PER_PASS of them get a tile swap.
# The fifty-five 15-25 ms checks of small patches hold the median.
VERIFY_PLAN = (
    ("supertile", 5, 35),
    ("supertile", 6, 4),
    ("supertile", 7, 2),
    ("window", 16, 20),
    ("window", 32, 2),
)
DEFECTS_PER_PASS = 15
FRACTURE_KS = 8
ORIENTATIONS = ("NE", "NW", "SE", "SW")
ARM_CONFIGS = ("vertical", "horizontal")
DIHEDRAL_ORDER = 8

_ELAPSED = re.compile(r"elapsed=[0-9.]+s")


class CheckFailed(Exception):
    """An operation's output disagrees with the pins or the reference."""


@dataclass
class Op:
    """One operation: a CLI argv (files named `@name`) or a library call."""

    kind: str
    argv: list | None
    expect_rc: int
    params: dict
    files: dict = field(default_factory=dict)  # name -> text written before timing
    input_digest: str | None = None  # digest of a generated input before defects

    def key(self) -> list:
        return [self.kind, self.argv, self.expect_rc, self.params]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def normalize_stdout(text: str) -> str:
    """Drop the torus wall-clock field, the one output byte that is not data."""
    return _ELAPSED.sub("elapsed=*", text)


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------


def catalogue_spec(name: str) -> dict:
    source = SYM_PLAN[name][0]
    if source == "bundled":
        path = ROOT / "src" / "subsym" / "data" / "specs" / f"{name}.json"
    elif source == "pinned":
        path = HERE / "specs" / f"{name}.json"
    else:
        return ref.cyclic_spec(int(name[3:-1]))
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def bundled_spec(name: str) -> dict:
    with open(ROOT / "src" / "subsym" / "data" / "specs" / f"{name}.json", encoding="utf-8") as f:
        return json.load(f)


def setup_specs(workload: str) -> list[str]:
    """Specs a workload's set-up probe loads: bundled names or spec file paths."""
    if workload == "symmetry":
        return [
            name if source == "bundled" else str(HERE / "specs" / f"{name}.json")
            for name, (source, _, _) in SYM_PLAN.items()
            if source != "cyclic"
        ]
    if workload == "materialize":
        return sorted({spec for _, spec, _, _ in DENSE_PLAN} | set(SPARSE_SPECS))
    return []


def random_signed_perm(rng: random.Random, d: int):
    return tuple(rng.sample(range(d), d)), tuple(rng.randrange(2) for _ in range(d))


def spec_text(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Pass generation
# ---------------------------------------------------------------------------


def build_pass(workload: str, seed: int, pass_no: int = 0) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}:{pass_no}")
    ops = {"symmetry": _symmetry_ops, "materialize": _materialize_ops, "robinson": _robinson_ops}[
        workload
    ](rng)
    rng.shuffle(ops)
    return ops


def _symmetry_ops(rng: random.Random) -> list[Op]:
    ops = []
    threads_next = False
    for entry, (_, n_sym, n_aut) in SYM_PLAN.items():
        base = catalogue_spec(entry)
        n, d = len(base["alphabet"]), base["dim"]
        for i in range(n_sym + n_aut):
            sigma = tuple(rng.sample(range(n), n))
            b = random_signed_perm(rng, d)
            fname = f"{entry}-{i}.json"
            files = {fname: spec_text(ref.conjugate_spec(base, sigma, b, f"{entry}-{i}"))}
            params = {"entry": entry, "sigma": list(sigma), "b": [list(b[0]), list(b[1])]}
            if i < n_sym:
                argv = ["sym", "@" + fname, "--depth", str(SYM_DEPTH)]
                if threads_next:
                    argv = ["--threads", "2"] + argv
                threads_next = not threads_next
                ops.append(Op("sym", argv, 0, params, files))
            else:
                ops.append(Op("aut", ["aut", "@" + fname], 0, params, files))
    return ops


def _random_shift(rng: random.Random, d: int, bits: int) -> list[int]:
    return [rng.choice((-1, 1)) * rng.randrange(1 << (bits - 1), 1 << bits) for _ in range(d)]


def _materialize_ops(rng: random.Random) -> list[Op]:
    ops = []
    for cmd, spec_name, size, copies in DENSE_PLAN:
        spec = bundled_spec(spec_name)
        n, d = len(spec["alphabet"]), spec["dim"]
        names = spec["alphabet"]
        for _ in range(copies):
            if cmd == "point":
                seed = [rng.randrange(n) for _ in range(1 << d)]
                shift = _random_shift(rng, d, SHIFT_BITS)
                argv = ["point", spec_name, "--seed", ",".join(names[s] for s in seed),
                        "--shift=" + ",".join(map(str, shift)), "--window", str(size)]
                ops.append(Op("point", argv, 0, {"spec": spec_name, "seed": seed, "shift": shift, "r": size}))
            elif cmd == "fracture":
                axis = rng.randrange(d)
                argv = ["fracture", spec_name, "--axis", str(axis), "--window", str(size)]
                ops.append(Op("fracture", argv, 0, {"axis": axis, "window": size}))
            elif cmd == "patch":
                symbol = rng.randrange(n)
                argv = ["patch", spec_name, "-m", str(size), "-a", names[symbol]]
                ops.append(Op("patch", argv, 0, {"spec": spec_name, "m": size, "symbol": symbol}))
            else:
                mode = cmd.split("-")[1]
                shape = list(size)
                rng.shuffle(shape)
                argv = ["lang", spec_name, "--shape", ",".join(map(str, shape)), "--mode", mode]
                ops.append(Op("lang", argv, 0, {"key": lang_key(spec_name, shape, mode)}))
    for spec_name in SPARSE_SPECS:
        spec = bundled_spec(spec_name)
        n, d = len(spec["alphabet"]), spec["dim"]
        for _ in range(SPARSE_PER_SPEC):
            params = {
                "spec": spec_name,
                "seed": [rng.randrange(n) for _ in range(1 << d)],
                "shift": _random_shift(rng, d, SHIFT_BITS),
                "coords": [
                    [rng.randrange(-(1 << SPARSE_COORD_BITS), 1 << SPARSE_COORD_BITS) for _ in range(d)]
                    for _ in range(SPARSE_QUERIES)
                ],
            }
            ops.append(Op("sparse", None, 0, params))
    return ops


def lang_key(spec_name: str, shape, mode: str) -> str:
    return f"{spec_name}:{','.join(map(str, shape))}:{mode}"


def rob_key(argv: list) -> str:
    return " ".join(argv[1:])


def _robinson_ops(rng: random.Random) -> list[Op]:
    ops = []
    for cmd, size, copies in ROB_PLAN:
        for _ in range(copies):
            if cmd.startswith("supertile"):
                argv = ["robinson", "supertile", str(size), "--orient", rng.choice(ORIENTATIONS)]
                if cmd == "supertile-svg":
                    argv += ["--render", "svg"]
            elif cmd == "window":
                argv = ["robinson", "window", str(size), "--arm-config", rng.choice(ARM_CONFIGS)]
            else:
                argv = ["robinson", "fracture", str(size), str(rng.randrange(FRACTURE_KS))]
            ops.append(Op("assemble", argv, 0, {"key": rob_key(argv)}))
    for w, h in TORUS_SIZES * TORUS_COPIES:
        if rng.random() < 0.5:
            w, h = h, w
        ops.append(Op("torus", ["robinson", "torus", str(w), str(h)], 0, {"w": w, "h": h}))
    sources = [(src, size) for src, size, copies in VERIFY_PLAN for _ in range(copies)]
    defective = set(rng.sample(range(len(sources)), DEFECTS_PER_PASS))
    for i, (src, size) in enumerate(sources):
        variant = rng.choice(ORIENTATIONS if src == "supertile" else ARM_CONFIGS)
        source_key = verify_source_key(src, size, variant, rng.randrange(DIHEDRAL_ORDER))
        params = {"source": source_key, "swap": None}
        if i in defective:
            params["swap"] = [rng.random(), rng.random()]
        fname = f"verify-{i}.txt"
        ops.append(Op("verify", ["robinson", "verify", "@" + fname], 1 if i in defective else 0,
                      params, {fname: None}))
    return ops


def verify_source_key(src: str, size: int, variant: str, g: int) -> str:
    return f"{src}:{size}:{variant}:{g}"


def verify_sources() -> list[str]:
    keys = []
    for src, size, _ in VERIFY_PLAN:
        for variant in ORIENTATIONS if src == "supertile" else ARM_CONFIGS:
            for g in range(DIHEDRAL_ORDER):
                keys.append(verify_source_key(src, size, variant, g))
    return sorted(set(keys))


def make_verify_text(rob, source_key: str) -> str:
    """Patch text for a verify input: a dihedral image of an assembled patch.

    `rob` is `subsym.robinson`; the bytes it produces are pinned.
    """
    src, size, variant, g = source_key.split(":")
    if src == "supertile":
        patch = rob.supertile(int(size), variant)
    else:
        patch = rob.four_quadrant_window(int(size), variant)
    return rob.save_patch_text(rob.dihedral_group()[int(g)].apply(patch))


def inject_swap(text: str, fracs) -> str:
    """Swap a cross-lattice cell with a cell of a no-cross class.

    Rule 3 then fails at both cells whatever the edge decorations are: the
    cross coset holds a non-cross and a cross sits off both cross cosets.
    """
    lines = text.splitlines()
    p1, p2 = (int(v) for v in lines[0].split("=")[1].split(","))
    x0, y0 = (int(v) for v in lines[1].split("=")[1].split(","))
    rows = [ln.split() for ln in lines[2:]]
    h, w = len(rows), len(rows[0])

    def cells(cls):
        return [(x, y) for y in range(h) for x in range(w)
                if ((x0 + x) % 2, (y0 + y) % 2) == cls]

    coset = cells((p1, p2))
    off = cells(((p1 + 1) % 2, p2)) + cells((p1, (p2 + 1) % 2))
    (ax, ay) = coset[int(fracs[0] * len(coset))]
    (bx, by) = off[int(fracs[1] * len(off))]
    # rows are stored top (largest y) first
    ra, rb = rows[h - 1 - ay], rows[h - 1 - by]
    ra[ax], rb[bx] = rb[bx], ra[ax]
    return "\n".join(lines[:2] + [" ".join(r) for r in rows]) + "\n"


def fill_inputs(ops: list[Op], rob, sources: dict | None = None) -> None:
    """Generate the patch files of `verify` ops with `rob` (subsym.robinson).

    `sources` caches patch texts by source key across passes.
    """
    sources = {} if sources is None else sources
    for op in ops:
        if op.kind == "verify":
            (fname,) = op.files
            key = op.params["source"]
            if key not in sources:
                sources[key] = make_verify_text(rob, key)
            text = sources[key]
            op.input_digest = digest(text)
            if op.params["swap"] is not None:
                text = inject_swap(text, op.params["swap"])
            op.files[fname] = text


def ops_digest(ops: list[Op]) -> str:
    """Digest of a pass's op list and the bytes of every input it names."""
    return digest(json.dumps(
        [[op.key(), {name: digest(text) for name, text in op.files.items()}] for op in ops],
        sort_keys=True,
    ))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check(op: Op, rc: int, out: str, err: str, pins: dict) -> None:
    """Raise CheckFailed unless the op's exit code and output are right."""
    _expect(rc == op.expect_rc, f"exit {rc}, expected {op.expect_rc}: {err.strip()[:200]}")
    _CHECKS[op.kind](op, out, err, pins)


def _check_aut(op, out, err, pins):
    pin = pins["catalogue"][op.params["entry"]]
    sigma = op.params["sigma"]
    lines = out.splitlines()
    _expect(lines[0] == f"relabel_group_order={len(pin['relabel_group'])}", f"order line {lines[0]!r}")
    _expect(lines[1] == f"structure={pin['structure']}", f"structure line {lines[1]!r}")
    got = {tuple(int(t) for t in ln[len("tau="):].split(",")) for ln in lines[2:]}
    want = {ref.perm_conjugate(sigma, t) for t in pin["relabel_group"]}
    _expect(len(lines) - 2 == len(want) and got == want, "tau set is not the conjugated group")


def _check_sym(op, out, err, pins):
    pin = pins["catalogue"][op.params["entry"]]
    sigma = op.params["sigma"]
    b = tuple(tuple(v) for v in op.params["b"])
    b_inv = ref.sp_inverse(b)
    lines = out.splitlines()
    _expect(lines[-1] == pin["summary"], f"summary {lines[-1]!r} != {pin['summary']!r}")
    seen = set()
    for ln in lines[:-1]:
        mat, desc = ln.split(" -> ")
        a = ref.sp_compose(b_inv, ref.sp_compose(ref.sp_parse(mat), b))
        want = pin["matrices"][ref.sp_text(a)]
        head, _, tau = desc.partition(",tau=")
        _expect(head == want["verdict"], f"{mat}: {head} != {want['verdict']}")
        if tau:
            taus = {ref.perm_conjugate(sigma, t) for t in want["taus"]}
            _expect(tuple(int(t) for t in tau.split(",")) in taus, f"{mat}: tau {tau} not valid")
        seen.add(mat)
    _expect(len(seen) == len(lines) - 1 == len(pin["matrices"]), "not one line per matrix")


def _check_point(op, out, err, pins):
    p = op.params
    spec = bundled_spec(p["spec"])
    size, d, r = spec["size"], spec["dim"], p["r"]
    m = ref.corner_fixing_power(spec)
    first, _, body = out.partition("\n")
    _expect(first == f"corner_fixing_power={m}", f"first line {first!r}")
    cells = ref.parse_render(body, (-r,) * d, (r - 1,) * d)
    tables = ref.rule_tables(spec)
    for k in _sample(cells, op):
        want = ref.fixed_point_symbol(tables, size, m, p["seed"], p["shift"], k)
        _expect(cells[k] == want, f"cell {k}: {cells[k]} != {want}")


def _check_fracture(op, out, err, pins):
    p = op.params
    want = f"axis={p['axis']} window={p['window']} equal_on_upper=yes unequal_on_lower=yes\n"
    _expect(out == want, f"fracture line {out!r}")


def _check_patch(op, out, err, pins):
    p = op.params
    spec = bundled_spec(p["spec"])
    size, m = spec["size"], p["m"]
    cells = ref.parse_render(out, (0,) * len(size), tuple(s**m - 1 for s in size))
    tables = ref.rule_tables(spec)
    for k in _sample(cells, op):
        want = ref.power_cell(tables, size, p["symbol"], m, k)
        _expect(cells[k] == want, f"cell {k}: {cells[k]} != {want}")


def _check_lang(op, out, err, pins):
    pin = pins["lang"][op.params["key"]]
    _expect(len(out.splitlines()) == pin["patterns"], "pattern count")
    _expect(err.startswith(f"# patterns={pin['patterns']} "), f"stats line {err!r}")
    _expect(digest(out) == pin["digest"], "language dump digest")


def _check_sparse(op, out, err, pins):
    p = op.params
    spec = bundled_spec(p["spec"])
    m = ref.corner_fixing_power(spec)
    tables = ref.rule_tables(spec)
    got = [int(v) for v in out.split()]
    _expect(len(got) == len(p["coords"]), "query count")
    for k, sym in zip(p["coords"], got):
        want = ref.fixed_point_symbol(tables, spec["size"], m, p["seed"], p["shift"], k)
        _expect(sym == want, f"symbol_at{tuple(k)}: {sym} != {want}")


def _check_assemble(op, out, err, pins):
    _expect(err == "violations=0\n", f"stderr {err!r}")
    _expect(digest(out) == pins["robinson"]["assemble"][op.params["key"]], "patch digest")


def _check_torus(op, out, err, pins):
    p = op.params
    decisions = pins["robinson"]["torus"][f"{p['w']}x{p['h']}"]
    want = f"torus {p['w']}x{p['h']}: unsat decisions={decisions} elapsed=*\n"
    _expect(normalize_stdout(out) == want, f"torus line {out!r}")


def _check_verify(op, out, err, pins):
    _expect(op.input_digest == pins["robinson"]["verify_inputs"][op.params["source"]],
            "verify input digest")
    if op.params["swap"] is None:
        _expect(out == "violations=0\n", f"verify output {out[:80]!r}")
    else:
        first = out.splitlines()[0]
        _expect(first.startswith("violations=") and int(first.split("=")[1]) >= 2,
                f"injected defect not found: {first!r}")


_CHECKS = {
    "aut": _check_aut,
    "sym": _check_sym,
    "point": _check_point,
    "fracture": _check_fracture,
    "patch": _check_patch,
    "lang": _check_lang,
    "sparse": _check_sparse,
    "assemble": _check_assemble,
    "torus": _check_torus,
    "verify": _check_verify,
}

CHECK_SAMPLE = 200


def _sample(cells: dict, op: Op) -> list:
    keys = sorted(cells)
    if len(keys) <= CHECK_SAMPLE:
        return keys
    return random.Random(json.dumps(op.key())).sample(keys, CHECK_SAMPLE)


def all_lang_keys() -> list[str]:
    keys = []
    for cmd, spec_name, size, _ in DENSE_PLAN:
        if cmd.startswith("lang"):
            for shape in sorted(set(itertools.permutations(size))):
                keys.append(lang_key(spec_name, shape, cmd.split("-")[1]))
    return keys


def all_assemble_argvs() -> list[list[str]]:
    out = []
    for cmd, size, _ in ROB_PLAN:
        if cmd.startswith("supertile"):
            extra = ["--render", "svg"] if cmd == "supertile-svg" else []
            out += [["robinson", "supertile", str(size), "--orient", o] + extra for o in ORIENTATIONS]
        elif cmd == "window":
            out += [["robinson", "window", str(size), "--arm-config", c] for c in ARM_CONFIGS]
        else:
            out += [["robinson", "fracture", str(size), str(k)] for k in range(FRACTURE_KS)]
    return out
