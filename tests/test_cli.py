import io
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import render_text_oracle, symbol_at_oracle

from subsym import robinson as rob
from subsym import specio, substitution, symmetry
from subsym.cli import build_parser, main
from subsym.errors import ValidationError
from subsym.lattice import Rect
from subsym.points import AddressablePoint
from subsym.specio import (
    bundled_substitution,
    canonical_text,
    dump_language,
    load_bundled,
    parse_spec,
)
from subsym.substitution import Pattern, Seed, fixed_seeds


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- spec parsing ---------------------------------------------------------------

def test_parse_tm1d_spec():
    spec = parse_spec(
        json.dumps(
            {
                "name": "t",
                "dim": 1,
                "size": [2],
                "alphabet": ["0", "1"],
                "rules": {"0": ["0", "1"], "1": ["1", "0"]},
            }
        )
    )
    assert spec.size == (2,)


def test_parse_tm2d_bijective():
    from subsym.specio import build_substitution
    from subsym.substitution import is_bijective

    spec = load_bundled("tm2d")
    assert is_bijective(build_substitution(spec))


def test_parse_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_spec('{"name":"x","dim":1,"size":[2],"alphabet":["a","b"],"rules":{},"extra":1}')


def test_parse_rejects_wrong_row_length():
    bad = {
        "name": "t",
        "dim": 1,
        "size": [2],
        "alphabet": ["0", "1"],
        "rules": {"0": ["0", "1", "0"], "1": ["1", "0"]},
    }
    with pytest.raises(ValidationError, match=r"\$\.rules\.0"):
        parse_spec(json.dumps(bad))


def test_parse_rejects_small_size():
    bad = {
        "name": "t",
        "dim": 1,
        "size": [1],
        "alphabet": ["0", "1"],
        "rules": {"0": ["0"], "1": ["1"]},
    }
    with pytest.raises(ValidationError, match=r"\$\.size"):
        parse_spec(json.dumps(bad))


def test_parse_rejects_unknown_symbol():
    bad = {
        "name": "t",
        "dim": 1,
        "size": [2],
        "alphabet": ["0", "1"],
        "rules": {"0": ["0", "2"], "1": ["1", "0"]},
    }
    with pytest.raises(ValidationError, match="unknown symbol"):
        parse_spec(json.dumps(bad))


def test_spec_roundtrip_byte_exact():
    spec = load_bundled("tm2d")
    text = canonical_text(spec)
    again = canonical_text(parse_spec(text))
    assert text == again


def test_language_dump_roundtrip(tm2d):
    from subsym.language import patch_language

    lang = patch_language(tm2d, (2, 2), mode="minimal")
    dump = dump_language(lang.shape, lang.patterns)
    shapes, hexes = zip(*(line.split(":") for line in dump.splitlines()))
    assert set(shapes) == {"2,2"} and set(map(bytes.fromhex, hexes)) == lang.patterns


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("tm1d", {"dim": True}, "$.dim: must be a positive integer"),
        ("tm2d", {"size": [2, True]}, "$.size: must be an array of 2 integers"),
        ("tm1d", {"size": [False]}, "$.size: must be an array of 1 integers"),
    ],
)
@pytest.mark.parametrize("command", [["analyze"], ["sym"], ["lang", "--shape", "2"]])
def test_spec_booleans_are_not_integers(tmp_path, name, edit, message, command):
    # JSON true is a Python int; a spec must still spell its integers as numbers
    obj = {**json.loads(canonical_text(load_bundled(name))), **edit}
    spec_file = tmp_path / "bool.json"
    spec_file.write_text(json.dumps(obj))
    assert run_cli(command[0], str(spec_file), *command[1:]) == (2, "", f"error: {message}\n")


def test_top_level_array_spec_exits_2(tmp_path):
    spec_file = tmp_path / "array.json"
    spec_file.write_text(json.dumps([json.loads(canonical_text(load_bundled("tm1d")))]))
    assert run_cli("analyze", str(spec_file)) == (2, "", "error: $: top level must be an object\n")


def test_patch_ppm_to_stdout_matches_file(tmp_path):
    # without -o the image goes to sys.stdout.buffer; a real process has one
    ppm = tmp_path / "out.ppm"
    assert run_cli("patch", "tm2d", "-m", "2", "--render", "ppm", "-o", str(ppm))[0] == 0
    src = os.path.dirname(os.path.dirname(specio.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys; from subsym.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "patch", "tm2d", "-m", "2", "--render", "ppm"]
    out = subprocess.run(argv, env=env, capture_output=True, check=True)
    assert out.stderr == b""
    assert out.stdout == ppm.read_bytes() and out.stdout.startswith(b"P6\n32 32\n")


# -- subcommands ------------------------------------------------------------------

def test_analyze_tm2d():
    code, out, _ = run_cli("analyze", "tm2d")
    assert code == 0
    assert "primitive=yes" in out
    assert "bijective=yes" in out
    assert "corner_fixing_power=2" in out
    assert "fixed_seeds_after_corner_fixing=16" in out


CF12_RULES = {
    "0": [["1", "2", "1"], ["0", "3", "0"]],
    "1": [["2", "3", "2"], ["1", "0", "1"]],
    "2": [["3", "0", "0"], ["2", "1", "2"]],
    "3": [["0", "1", "3"], ["3", "2", "3"]],
}


def test_analyze_counts_seeds_without_building_the_corner_fixing_power(tmp_path):
    # theta^12 would need 3^12 * 2^12 cells per rule, far over the cell cap
    code, out, err = run_cli("analyze", write_spec(tmp_path, "cf12", (3, 2), CF12_RULES))
    assert (code, err) == (0, "")
    assert "corner_fixing_power=12" in out.splitlines()
    assert "fixed_seeds_after_corner_fixing=256" in out.splitlines()


def test_point_and_fracture_grow_cf12_by_theta_itself(tmp_path):
    # theta^12 would need 3^12 * 2^12 cells per rule; no seed of theta is fixed
    # here, and each corner cycle is read from theta's corner maps
    spec = write_spec(tmp_path, "cf12", (3, 2), CF12_RULES)
    code, out, err = run_cli("point", spec, "--seed", "0,1,2,3", "--shift=-5,700", "--window", "6")
    assert (code, err) == (0, "")
    theta = specio.parse_and_build(specio.read_utf8(spec))[1]
    x = AddressablePoint(theta, Seed(2, (0, 1, 2, 3)), (-5, 700))
    rect = Rect.centered(2, 6)
    want = Pattern(rect.lo, rect.extent(), bytes(symbol_at_oracle(x, k) for k in rect.cells()))
    assert out == "corner_fixing_power=12\n" + render_text_oracle(want)
    for axis in (0, 1):
        code, out, err = run_cli("fracture", spec, "--axis", str(axis), "--window", "16")
        assert (code, out, err) == (0, f"axis={axis} window=16 equal_on_upper=yes unequal_on_lower=yes\n", "")


def ten_symbol_spec(tmp_path, name="ten", outer=tuple(range(10))):
    """A 10-symbol 3x2x2 spec: the columns at x = 0 and x = 2, which hold the
    corner cells, are `outer` (by default the identity, so every corner map is
    and the spec is bijective), and the x = 1 columns are seeded random
    permutations."""
    rng = random.Random(10)
    columns = {}
    for y, z in itertools.product(range(2), repeat=2):
        columns[0, y, z] = columns[2, y, z] = outer
        columns[1, y, z] = rng.sample(range(10), 10)
    rules = {
        str(a): [[[str(columns[x, y, z][a]) for x in range(3)] for y in range(2)] for z in range(2)]
        for a in range(10)
    }
    return write_spec(tmp_path, name, (3, 2, 2), rules)


def test_fracture_builds_its_pair_without_enumerating_seeds(tmp_path):
    # fixed_seeds would step 10^8 seeds, over the cell cap
    code, out, err = run_cli("fracture", ten_symbol_spec(tmp_path), "--axis", "0", "--window", "4")
    assert (code, err) == (0, "")
    assert "equal_on_upper=yes unequal_on_lower=yes" in out


def test_analyze_counts_the_seeds_of_the_ten_symbol_spec(tmp_path):
    # every corner map is the identity: 10^8 seeds, each fixed, counted without stepping one
    code, out, err = run_cli("analyze", ten_symbol_spec(tmp_path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == [
        "seed_cycles=100000000 fixed_seeds=100000000",
        "corner_fixing_power=1",
        "fixed_seeds_after_corner_fixing=100000000",
    ]


def test_seed_questions_step_only_the_seeds_on_cycles(tmp_path):
    # every corner map sends all symbols to 0: of the 10^8 seeds only the
    # constant 0 one is on a cycle, and it is fixed
    spec = ten_symbol_spec(tmp_path, "sink", [0] * 10)
    code, out, err = run_cli("analyze", spec)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "seed_cycles=1 fixed_seeds=1"
    # its complete 2x2x2 language stops only at depth 216
    code, out, err = run_cli("lang", spec, "--shape", "2,2,2", "--mode", "full")
    assert (code, err) == (0, "# patterns=11277 depth=216\n")


def test_aut_tm2d():
    code, out, _ = run_cli("aut", "tm2d")
    assert code == 0
    assert "relabel_group_order=2" in out
    assert "structure=Z^2 x C2" in out


@pytest.mark.parametrize("spec", ["tm2d", "file"])
def test_aut_builds_and_checks_the_spec_once(spec, monkeypatch, tmp_path):
    if spec == "file":
        spec = str(tmp_path / "tm2d.json")
        (tmp_path / "tm2d.json").write_text(canonical_text(load_bundled("tm2d")))
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for module, name in ((specio, "build_substitution"), (symmetry, "is_primitive")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, out, _ = run_cli("aut", spec)
    assert code == 0 and "relabel_group_order=2" in out
    assert sorted(calls) == ["build_substitution", "is_primitive"]


def test_sym_tm2d():
    code, out, _ = run_cli("sym", "tm2d", "--depth", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "psi_image_order=8 split=yes"
    verdict_lines = [ln for ln in lines[:-1]]
    assert len(verdict_lines) == 8
    assert all("ExactYes" in ln for ln in verdict_lines)
    assert verdict_lines[0].startswith("++;12 ->")


def test_sym_deterministic_across_threads():
    outputs = []
    for threads in ("1", "4"):
        code, out, err = run_cli("--threads", threads, "sym", "tm2d", "--depth", "2")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_patch_render_txt():
    code, out, _ = run_cli("patch", "tm1d", "-m", "3")
    assert code == 0
    assert out.strip() == "01101001"


def test_patch_render_txt_labels_the_slices_of_3d():
    code, out, err = run_cli("patch", "tm3d", "-m", "1")
    want = render_text_oracle(bundled_substitution("tm3d").rule(0))
    assert (code, out, err) == (0, want, "")
    assert out == "[slice 0]\n10\n01\n\n[slice 1]\n01\n10\n"


def write_spec(tmp_path, name, size, rules):
    """A spec file whose rules are lists of rows, bottom row first."""
    alphabet = sorted(rules)
    spec = {"alphabet": alphabet, "dim": len(size), "name": name, "rules": rules, "size": list(size)}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_sym_prints_size_mismatch_for_axes_of_different_sizes(tmp_path):
    spec = write_spec(tmp_path, "r23", (2, 3), {"0": [["0", "1"]] * 3, "1": [["1", "0"]] * 3})
    code, out, err = run_cli("sym", spec, "--depth", "2")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 9)
    assert lines[4:8] == [f"{signs};21 -> SizeMismatch" for signs in ("++", "+-", "-+", "--")]
    assert all(line.endswith("ExactYes,tau=0,1") for line in lines[:4])


def test_aut_names_a_noncyclic_relabel_group(tmp_path):
    # a -> (a, a xor 1, a xor 2) commutes with every xor: the Klein four-group
    spec = write_spec(tmp_path, "xor", (3,), {str(a): [str(a), str(a ^ 1), str(a ^ 2)] for a in range(4)})
    code, out, err = run_cli("aut", spec)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["relabel_group_order=4", "structure=Z^1 x R (order 4)"]


def test_point_window():
    code, out, _ = run_cli("point", "tm1d", "--seed", "1,0", "--window", "8")
    assert code == 0
    assert "corner_fixing_power=2" in out
    assert "0110100101101001" in out


@pytest.mark.parametrize("argv, message", [
    (["point", "tm1d", "--seed", "0,1", "--window", "100000000"], "window of 200000000 cells exceeds cap 67108864"),
    (["point", "tm1d", "--seed", "0,1", "--window", "0"], "--window must be a positive integer, got '0'"),
    (["point", "tm2d", "--seed", "0,0,0,0", "--window", "-3"], "--window must be a positive integer, got '-3'"),
    (["fracture", "tm2d", "--axis", "0", "--window", "0"], "--window must be a positive integer, got '0'"),
    (["fracture", "tm2d", "--refute", "1,1", "--window=-1"], "--window must be a positive integer, got '-1'"),
    (["fracture", "tm2d", "--refute", "1,1", "--window", "0"], "--window must be a positive integer, got '0'"),
])
def test_window_refusals_print_nothing_to_stdout(argv, message):
    # the window is checked and read before the corner_fixing_power line is printed,
    # and before the refuter prints a verdict
    assert run_cli(*argv) == (2, "", f"error: {message}\n")


#: a -> ab, b -> aa and its 2-d kin: primitive, not bijective, so no corner-fixing power
NON_BIJECTIVE = {
    1: ((2,), {"a": ["a", "b"], "b": ["a", "a"]}),
    2: ((2, 2), {"a": [["a", "b"], ["b", "b"]], "b": [["a", "a"], ["a", "a"]]}),
}


@pytest.mark.parametrize("d", [1, 2])
def test_point_on_a_non_bijective_spec_prints_the_library_window(tmp_path, d):
    path = write_spec(tmp_path, f"nb{d}", *NON_BIJECTIVE[d])
    theta = specio.parse_and_build(specio.read_utf8(path))[1]
    seeds = fixed_seeds(theta).on_cycles
    assert seeds
    for seed in seeds:
        names = ",".join(theta.alphabet.names[a] for a in seed.symbols)
        want = specio.render_pattern_text(AddressablePoint(theta, seed).window(Rect.centered(d, 4)))
        assert run_cli("point", path, "--seed", names, "--window", "4") == (0, want, ""), names


def test_point_on_a_non_bijective_spec_checks_its_seed(tmp_path):
    path = write_spec(tmp_path, "nb1", *NON_BIJECTIVE[1])
    assert run_cli("point", path, "--seed", "b,a", "--window", "4") == (0, "01010100\n", "")
    code, out, err = run_cli("point", path, "--seed", "a,b", "--window", "4")
    assert (code, out, err) == (2, "", "error: seed symbol 1 is not on a cycle of its corner map\n")


@pytest.mark.parametrize("argv, message", [
    (["fracture", "tm2d", "--axis", "2"], "axis 2 out of range"),
    (["fracture", "tm2d", "--axis", "-1"], "axis -1 out of range"),
    (["fracture", "{nb1}", "--axis", "0"], "half_space_fracture_pair requires a bijective substitution"),
    (["fracture", "{nb2}", "--refute", "1,1", "--threshold", "2"],
     "the refuter argument needs a bijective substitution"),
    (["fracture", "tm2d", "--refute", "1,1", "--threshold", "0"], "threshold must be >= 1"),
    (["analyze", "{norules}"], "$.rules: must be an object"),
])
def test_fracture_and_spec_input_checks_exit_2(tmp_path, argv, message):
    files = {f"nb{d}": write_spec(tmp_path, f"nb{d}", *NON_BIJECTIVE[d]) for d in NON_BIJECTIVE}
    norules = {"alphabet": ["a", "b"], "dim": 1, "name": "norules", "rules": [], "size": [2]}
    files["norules"] = str(tmp_path / "norules.json")
    (tmp_path / "norules.json").write_text(json.dumps(norules))
    assert run_cli(*(a.format(**files) for a in argv)) == (2, "", f"error: {message}\n")


def test_lang_dump_and_cache(tmp_path):
    cache = tmp_path / "cache"
    code1, out1, _ = run_cli(
        "lang", "tm2d", "--shape", "2,2", "--mode", "minimal",
        "--cache-dir", str(cache),
    )
    assert code1 == 0
    assert len(list(cache.glob("lang-*.txt"))) == 1
    code2, out2, _ = run_cli(
        "lang", "tm2d", "--shape", "2,2", "--mode", "minimal",
        "--cache-dir", str(cache),
    )
    assert out2 == out1
    shapes, hexes = zip(*(line.split(":") for line in out1.splitlines()))
    assert set(shapes) == {"2,2"} and len(set(hexes)) == 8


def test_lang_prints_the_complete_language():
    # tm1d has 654 words of length 200 and 932 of length 298, where a growth
    # cut at depth 8 holds 57 and none; `lang` has no option that cuts it
    code, out, err = run_cli("lang", "tm1d", "--shape", "200")
    assert (code, len(out.splitlines()), err) == (0, 654, "# patterns=654 depth=11\n")
    assert run_cli("lang", "tm1d", "--shape", "298")[1].count("\n") == 932
    assert run_cli("lang", "tm1d", "--shape", "2", "--depth", "3")[:2] == (2, "")


def test_lang_cache_hit_prints_what_the_miss_printed(tmp_path):
    argv = ("lang", "tm2d", "--shape", "2,3", "--mode", "full", "--cache-dir", str(tmp_path))
    miss, hit = run_cli(*argv), run_cli(*argv)
    assert miss == hit
    assert miss[2].startswith("# patterns=") and miss[1]


def test_lang_cache_entry_without_stats_is_rebuilt(tmp_path):
    argv = ("lang", "tm2d", "--shape", "2,2", "--cache-dir", str(tmp_path))
    fresh = run_cli(*argv)
    (entry,) = tmp_path.glob("lang-*.txt")
    # an entry holding only the dump, one holding only its stats line, and one that is not UTF-8
    for stale in (fresh[1].encode(), b"# patterns=8 depth=3", b"\xff\xfe# patterns=8\n"):
        entry.write_bytes(stale)
        assert run_cli(*argv) == fresh
        assert entry.read_text().startswith("# patterns=")


def test_lang_cache_key_uses_parsed_shape(tmp_path):
    cache = tmp_path / "cache"
    outs = {
        run_cli("lang", "tm2d", "--shape", shape, "--cache-dir", str(cache))[1]
        for shape in ("2,2", "2, 2")
    }
    assert len(outs) == 1
    assert len(list(cache.iterdir())) == len(list(cache.glob("lang-*.txt"))) == 1


def test_fracture_witness_cli():
    code, out, _ = run_cli("fracture", "tm2d", "--axis", "1", "--window", "32")
    assert code == 0
    assert "equal_on_upper=yes" in out and "unequal_on_lower=yes" in out


def test_fracture_refuter_cli():
    code, out, _ = run_cli("fracture", "tm2d", "--refute", "1,1", "--threshold", "4")
    assert code == 0
    assert "refuted direction=1,1 level=4 block=[-64,48]..[-49,63] " in out


def test_fracture_refuter_cli_prints_every_coordinate():
    code, out, _ = run_cli("fracture", "tm3d", "--refute", "1,1,0", "--threshold", "2")
    assert code == 0
    assert "refuted direction=1,1,0 level=3 block=[-64,56,-64]..[-57,63,-57] " in out


def test_fracture_refuter_cli_window_too_small():
    # the least window --window accepts; --window 0 is refused with exit 2
    code, out, err = run_cli("fracture", "tm2d", "--refute", "1,1", "--window", "1")
    assert (code, out, err) == (1, "inconclusive: window too small, need about 56\n", "")


def test_fracture_refuter_solves_for_its_block_on_a_large_window():
    # the grid has 10^5 blocks per axis inside the window; only one axis is enumerated
    src = os.path.dirname(os.path.dirname(specio.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys; from subsym.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "fracture", "tm3d", "--refute", "1,1,0", "--window", "800000"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == (
        "refuted direction=1,1,0 level=4 block=[-800000,799984,-800000]..[-799985,799999,-799985] "
        "upper_cells=1056 lower_cells=1456\n"
    )


@pytest.mark.parametrize("v, message", [
    ("1,1,1", "v (1, 1, 1) does not have 2 coordinates"),
    ("1", "v (1,) does not have 2 coordinates"),
    ("0,0", "v must be a nonzero vector"),
])
def test_fracture_refuter_cli_names_the_bad_vector(v, message):
    assert run_cli("fracture", "tm2d", "--refute", v) == (2, "", f"error: {message}\n")


def test_fracture_refuter_cli_refuses_a_block_over_the_cell_cap(monkeypatch):
    # the 1024^3 block is 2^30 cells, 16 times the cap: exit 2 before any cell is read
    monkeypatch.setattr(Rect, "cells", None)
    code, out, err = run_cli("fracture", "tm3d", "--refute", "1,1,1", "--threshold", "600", "--window", "2048")
    assert (code, out, err) == (2, "", "error: the straddling block has 1073741824 cells\n")


def test_robinson_supertile_cli(tmp_path):
    out_file = tmp_path / "st.txt"
    code, _, err = run_cli("robinson", "supertile", "2", "-o", str(out_file))
    assert code == 0
    assert "violations=0" in err
    text = out_file.read_text()
    assert text.startswith("parity=0,0\n")
    assert len(text.strip().splitlines()) == 2 + 3  # headers + 3 rows


def test_robinson_verify_roundtrip(tmp_path):
    out_file = tmp_path / "win.txt"
    code, _, _ = run_cli("robinson", "window", "8", "-o", str(out_file))
    assert code == 0
    code, out, _ = run_cli("robinson", "verify", str(out_file))
    assert code == 0
    assert "violations=0" in out


def test_robinson_verify_detects_violation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("parity=0,0\n3.0 3.0\n")
    code, out, _ = run_cli("robinson", "verify", str(bad))
    assert code == 1
    assert "violations=" in out and "violations=0" not in out


def test_robinson_torus_cli():
    code, out, _ = run_cli("robinson", "torus", "2", "2")
    assert code == 0
    assert "unsat" in out


def test_robinson_torus_timeout_is_inconclusive():
    code, out, err = run_cli("robinson", "torus", "4", "4", "--time-cap", "1e-9")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 2)
    assert lines[0].startswith("torus 4x4: timeout decisions=0 elapsed=")
    assert lines[1] == "inconclusive(timeout)"


def test_robinson_torus_sat_prints_the_counterexample(monkeypatch):
    # the rows are the assignment's tokens, top row first, as in a patch file body
    res = rob.TorusResult("sat", 4, 2, (0, 0), (0, 5, 10, 27, 3, 8, 13, 20), 7, 0.5)
    monkeypatch.setattr(rob, "torus_tiling_search", lambda *args, **kwargs: res)
    code, out, err = run_cli("robinson", "torus", "4", "2")
    assert code == 1 and err == ""
    assert out == (
        "torus 4x2: sat decisions=7 elapsed=0.50s\n"
        "counterexample:\n"
        "1.3 2.0M 3.1 5.0\n"
        "1.0 2.1 2.2M 5.3M\n"
    )


_TILE_TOKENS = [t.token() for t in rob.TILES]
_JUNK = st.one_of(
    st.sampled_from(["3.0M", "9.9", "01.0", "1.4", "x", "=", ",", "parity=0,0", "anchor=1,x"]),
    st.text(max_size=6),
)


@st.composite
def _patch_files(draw):
    """Patch file bytes: random tokens in rectangular rows, or a supertile's own
    rows, under parity and anchor headers, with junk headers, junk tokens and
    ragged rows mixed in; now and then raw bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))

    def maybe_junk(good):
        return draw(_JUNK) if draw(st.integers(0, 7)) == 0 else good

    pair = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda v: "{},{}".format(*v))
    lines = [maybe_junk("parity=" + draw(pair))]
    if draw(st.booleans()):
        lines.append(maybe_junk("anchor=" + draw(pair)))
    if draw(st.booleans()):
        n, orient = draw(st.integers(1, 3)), draw(st.sampled_from(rob.ORIENTATIONS))
        rows = [ln.split() for ln in rob.save_patch_text(rob.supertile(n, orient)).splitlines()[2:]]
    else:
        width = draw(st.integers(1, 4))
        rows = draw(st.lists(st.lists(st.sampled_from(_TILE_TOKENS), min_size=width, max_size=width), max_size=4))
    if rows and draw(st.integers(0, 3)) == 0:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):  # ragged
            row[:] = row[:-1] if draw(st.booleans()) else row + ["3.0"]
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(_JUNK)
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    return "\n".join(lines + [sep.join(r) for r in rows]).encode()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_patch_files())
def test_robinson_verify_fuzz(tmp_path, data):
    path = tmp_path / "patch.txt"
    path.write_bytes(data)
    code, out, err = run_cli("robinson", "verify", str(path))
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == ""
        count = int(out.splitlines()[0].removeprefix("violations="))
        assert (count > 0) == (code == 1)


@pytest.mark.parametrize("w, h", [("0", "4"), ("-2", "4"), ("4", "0"), ("2", "-2")])
def test_robinson_torus_period_below_two_exits_2(w, h):
    # an empty torus is no counterexample to aperiodicity
    code, out, err = run_cli("robinson", "torus", w, h)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["patch", "tm2d", "-m", "2"],
        ["robinson", "supertile", "2"],
        ["robinson", "window", "4"],
        ["robinson", "fracture", "4", "1"],
    ],
)
@pytest.mark.parametrize("scale", ["0", "-2"])
def test_ppm_scale_below_one_exits_2(tmp_path, argv, scale):
    ppm = tmp_path / "out.ppm"
    code, out, err = run_cli(*argv, "--render", "ppm", "--scale", scale, "-o", str(ppm))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not ppm.exists()


@pytest.mark.parametrize("argv", [["patch", "tm2d", "-m", "2"], ["robinson", "supertile", "2"]])
def test_ppm_over_pixel_cap_exits_2(tmp_path, argv):
    ppm = tmp_path / "out.ppm"
    code, out, err = run_cli(*argv, "--render", "ppm", "--scale", "100000", "-o", str(ppm))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not ppm.exists()


def test_ppm_pixel_cap_boundary(monkeypatch):
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 36)
    assert specio.ppm_image((2, 2), bytes(4), 3).startswith(b"P6\n6 6\n")
    with pytest.raises(ValidationError, match="exceeds cap 36"):
        specio.ppm_image((2, 2), bytes(4), 4)


def test_seed_enumeration_over_cap_exits_2(monkeypatch):
    # the full language of tm2d steps its 16 seeds of 4 cells before anything else
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 63)
    code, out, err = run_cli("lang", "tm2d", "--shape", "2,2", "--mode", "full")
    assert (code, out) == (2, "")
    assert err == "error: fixed_seeds would step 16 seeds of 4 cells\n"


def test_robinson_renders(tmp_path):
    ppm = tmp_path / "st.ppm"
    code, _, _ = run_cli("robinson", "supertile", "2", "--render", "ppm",
                         "--scale", "2", "-o", str(ppm))
    assert code == 0
    assert ppm.read_bytes().startswith(b"P6\n6 6\n")
    svg = tmp_path / "st.svg"
    code, _, _ = run_cli("robinson", "supertile", "2", "--render", "svg",
                         "-o", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<?xml")


def test_orient_choices_are_the_robinson_orientations():
    # the parser spells them out, so building it loads no robinson
    (commands,) = build_parser()._subparsers._group_actions
    (robinson,) = commands.choices["robinson"]._subparsers._group_actions
    (orient,) = (a for a in robinson.choices["supertile"]._actions if a.dest == "orient")
    assert orient.choices == rob.ORIENTATIONS


def test_only_robinson_commands_import_robinson():
    src = os.path.dirname(os.path.dirname(specio.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys; from subsym.cli import main; rc = main(sys.argv[1:]); "
            "print('subsym.robinson' in sys.modules); sys.exit(rc)")
    for argv, loaded in ((["aut", "tm2d"], "False"), (["robinson", "supertile", "1"], "True")):
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                             timeout=60)
        assert (out.returncode, out.stdout.splitlines()[-1]) == (0, loaded), argv


def test_usage_error_exit_code():
    code, _, _ = run_cli("no-such-command")
    assert code == 2


ISOLATION_CALLS = [
    ["fracture", "tm2d", "--refute"],  # a parse error inside a subcommand
    ["--help"],
    ["robinson", "torus", "--help"],
    ["fracture", "tm2d", "--refute", "-1,1"],
    ["--threads", "0", "aut", "tm2d"],
    ["aut", "tm2d"],
    ["robinson", "torus", "4"],
    ["point", "tm2d", "--seed", "0,0,0,0", "--window", "2", "--shift", "-5,3"],
    ["point", "tm2d", "--seed", "0,0,0,0"],  # the defaults, after a call that set them
    ["sym", "tm1d"],
    ["fracture", "tm2d", "--refute"],
]


def test_repeated_main_calls_see_no_earlier_state():
    # main shares one parser across calls: no default, func or prog may leak
    fresh = []
    for argv in ISOLATION_CALLS:
        build_parser.cache_clear()
        fresh.append(run_cli(*argv))
    build_parser.cache_clear()
    assert [run_cli(*argv) for argv in ISOLATION_CALLS] == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 2, 0, 2, 0, 0, 0, 2]
    assert fresh[0][2].startswith("usage: subsym fracture ")
    assert fresh[2][1].startswith("usage: subsym robinson torus ")


def test_file_spec_loading(tmp_path):
    spec_file = tmp_path / "mine.json"
    spec_file.write_text(canonical_text(load_bundled("tm1d")))
    code, out, _ = run_cli("analyze", str(spec_file))
    assert code == 0 and "bijective=yes" in out


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("SUBSYM_THREADS", "3")
    code, out, _ = run_cli("sym", "tm1d", "--depth", "2")
    assert code == 0
    assert "psi_image_order=2" in out


@pytest.mark.parametrize("depth", ["1", "0", "-2"])
def test_sym_depth_below_two_exits_2(depth):
    code, out, err = run_cli("sym", "rig3", "--depth", depth)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_lang_empty_cache_dir_names_no_directory(tmp_path, monkeypatch):
    # like -o "", an empty --cache-dir is refused before any file is written
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("lang", "tm1d", "--shape", "2", "--cache-dir", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--threads", "-5"], ["--threads", "0"]])
def test_bad_thread_count_exits_2(argv):
    code, out, err = run_cli(*argv, "sym", "tm1d", "--depth", "2")
    assert code == 2 and out == ""
    assert err == f"error: --threads must be a positive integer, got '{argv[1]}'\n"


def test_threads_env_is_not_read(monkeypatch):
    # no command starts threads, so no environment value can make one fail
    want = run_cli("sym", "tm1d", "--depth", "2")
    monkeypatch.setenv("SUBSYM_THREADS", "abc")
    assert run_cli("sym", "tm1d", "--depth", "2") == want
    assert want[0] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fracture", "tm2d", "--refute", ""], "expected comma-separated integers, got ''"),
        (["point", "tm2d", "--seed", "0,0,0,0", "--shift", "", "--window", "2"],
         "expected comma-separated integers, got ''"),
        (["patch", "tm1d", "-a", ""], "unknown symbol ''"),
        (["patch", "tm1d", "-o", ""], ""),  # the OS names the file that cannot be opened
    ],
    ids=["refute", "shift", "symbol", "output"],
)
def test_empty_option_value_reaches_its_parser(argv, message):
    # an empty value is a value, not an absent option
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "head, flag, value",
    [
        (["point", "tm2d", "--seed", "0,0,0,0", "--window", "3"], "--shift", "-5,3"),
        (["point", "tm1d", "--seed", "1,0", "--window", "3"], "--shift", "-7"),
        (["fracture", "tm2d"], "--refute", "-1,1"),
        (["fracture", "tm2d"], "--refute", "-1,-1"),
    ],
)
def test_negative_list_parses_as_a_separate_argument(head, flag, value):
    joined = run_cli(*head, f"{flag}={value}")
    assert joined[0] in (0, 1) and joined[1]
    assert run_cli(*head, flag, value) == joined


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "tm2d", "--seed", "0,0,0,0", "--shift"],
        ["point", "tm2d", "--seed", "0,0,0,0", "--shift", "--window", "3"],
        ["fracture", "tm2d", "--refute"],
        ["fracture", "tm2d", "--refute", "-x,1"],
    ],
)
def test_missing_list_value_exits_2(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "expected one argument" in err


#: spellings of tile 1.0 that int() would read; only the 40 kind.rot[M] spellings are tokens
NON_CANONICAL_TOKENS = ("01.0", "+1.0", "1.-0", "1.00", "\u0661.0")


@pytest.mark.parametrize(
    "argv",
    [
        ["lang", "tm2d", "--shape", "2,x"],
        ["point", "tm1d", "--seed", "1,0", "--shift", "1,q"],
        ["fracture", "tm2d", "--refute", "1,x"],
        ["point", "tm2d", "--seed", "0,0,0,0", "--shift", "1"],
        ["analyze", "{dir}"],
        ["robinson", "verify", "{dir}/parity_ab.txt"],
        ["robinson", "verify", "{dir}/parity_0.txt"],
        ["robinson", "verify", "{dir}/anchor_x.txt"],
        ["analyze", "{dir}/utf16.json"],
        ["robinson", "verify", "{dir}/utf16.txt"],
        ["analyze", "{dir}/nested.json"],
        ["robinson", "torus", "4", "4", "--time-cap", "-1"],
        ["robinson", "torus", "4", "4", "--time-cap", "nan"],
        ["fracture", "tm2d", "--refute", "1,1", "--window", "-5"],
        *(["robinson", "verify", f"{{dir}}/token_{i}.txt"] for i in range(len(NON_CANONICAL_TOKENS))),
        ["robinson", "fracture", "--", "1", "--"],
    ],
)
def test_malformed_input_exits_2(tmp_path, argv):
    (tmp_path / "parity_ab.txt").write_text("parity=a,b\n3.0 3.0\n")
    (tmp_path / "parity_0.txt").write_text("parity=0\n3.0 3.0\n")
    (tmp_path / "anchor_x.txt").write_text("parity=0,0\nanchor=1,x\n3.0 3.0\n")
    (tmp_path / "utf16.json").write_bytes("{}".encode("utf-16"))  # starts with ff fe
    (tmp_path / "utf16.txt").write_bytes("parity=0,0\n3.0\n".encode("utf-16"))
    (tmp_path / "nested.json").write_text("[" * 200_000)
    for i, token in enumerate(NON_CANONICAL_TOKENS):
        (tmp_path / f"token_{i}.txt").write_text(f"parity=1,1\n3.0 {token}\n", encoding="utf-8")
    code, out, err = run_cli(*(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
