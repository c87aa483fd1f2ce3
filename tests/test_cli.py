import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subsym import robinson as rob
from subsym import specio, substitution, symmetry
from subsym.cli import build_parser, main
from subsym.errors import ValidationError
from subsym.lattice import Rect
from subsym.specio import (
    canonical_text,
    dump_language,
    load_bundled,
    parse_language_dump,
    parse_spec,
)


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
    shape, cells = parse_language_dump(dump)
    assert shape == (2, 2) and cells == lang.patterns


# -- subcommands ------------------------------------------------------------------

def test_analyze_tm2d():
    code, out, _ = run_cli("analyze", "tm2d")
    assert code == 0
    assert "primitive=yes" in out
    assert "bijective=yes" in out
    assert "corner_fixing_power=2" in out
    assert "fixed_seeds_after_corner_fixing=16" in out


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


def test_point_window():
    code, out, _ = run_cli("point", "tm1d", "--seed", "1,0", "--window", "8")
    assert code == 0
    assert "corner_fixing_power=2" in out
    assert "0110100101101001" in out


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
    shape, cells = parse_language_dump(out1)
    assert shape == (2, 2) and len(cells) == 8


def test_lang_cache_hit_prints_what_the_miss_printed(tmp_path):
    argv = ("lang", "tm2d", "--shape", "2,3", "--mode", "full", "--cache-dir", str(tmp_path))
    miss, hit = run_cli(*argv), run_cli(*argv)
    assert miss == hit
    assert miss[2].startswith("# patterns=") and miss[1]


def test_lang_cache_entry_without_stats_is_rebuilt(tmp_path):
    argv = ("lang", "tm2d", "--shape", "2,2", "--cache-dir", str(tmp_path))
    fresh = run_cli(*argv)
    (entry,) = tmp_path.glob("lang-*.txt")
    # an entry holding only the dump, and one that is not UTF-8
    for stale in (fresh[1].encode(), b"\xff\xfe# patterns=8\n"):
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
    # tm2d steps 16 seeds of 4 cells; nothing else analyze runs comes near 63 cells
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 63)
    code, out, err = run_cli("analyze", "tm2d")
    assert code == 2 and "seed_cycles" not in out
    assert err.startswith("error:") and "seeds of 4 cells" in err and err.count("\n") == 1


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


@pytest.mark.parametrize("argv, env", [(["--threads", "-5"], None), ([], "abc")])
def test_bad_thread_count_exits_2(monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("SUBSYM_THREADS", env)
    code, out, err = run_cli(*argv, "sym", "tm1d", "--depth", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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
