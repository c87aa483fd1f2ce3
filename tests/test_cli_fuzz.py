"""The CLI input contract as a fuzz test: random argv over the real
subcommands, and mutated spec JSON files, run in-process through `main`.

Whatever the input, `main` returns 0, 1 or 2 and raises nothing; 2 ends
stderr with an argparse usage error or one `error:` line; 1 only ever comes
from a command with a negative verdict (`fracture`, `robinson`)."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subsym import robinson as rob
from subsym.cli import main
from subsym.specio import BUNDLED, canonical_text, load_bundled

#: Commands that may exit 1: a refuter or witness that fails, rule violations, a torus counterexample.
VERDICT_COMMANDS = {"fracture", "robinson"}

_JUNK = st.sampled_from(["", "x", "-", "--", "1.5", "nan", "1,,2", "-0", "+3", "٣", "1e3", " 2"])


#: True about one draw in ten; Hypothesis leans toward the first element.
_RARELY = st.sampled_from([False] * 9 + [True])


def _mostly(good):
    """Values of `good`, with junk now and then."""
    return st.one_of(good, _JUNK)


def _ints(lo, hi):
    """Small integers as argv text, with junk now and then."""
    return _mostly(st.integers(lo, hi).map(str))


def _int_lists(lengths, lo=-3, hi=3):
    """Comma lists of small integers, of one of the `lengths`, with junk now and then."""
    return _mostly(st.sampled_from(lengths).flatmap(
        lambda n: st.lists(st.integers(lo, hi), min_size=n, max_size=n)).map(lambda v: ",".join(map(str, v))))


_SPECS = st.one_of(st.sampled_from(sorted(BUNDLED)), st.sampled_from(["no-such-spec", "{dir}", "{dir}/no.json"]))
_PERIODS = _mostly(st.sampled_from(["2", "4", "6", "8", "3", "0", "-2"]))
#: Seeds of 2^d symbols for d = 1, 2, 3, over the bundled alphabets, and some of the wrong length.
_SEEDS = st.sampled_from([2, 4, 8, 3]).flatmap(
    lambda n: st.lists(st.sampled_from("012x"), min_size=n, max_size=n)).map(",".join)

# command -> its arguments in order, each (flag, or None for a positional; value strategy; required?).
# Sizes stay small so that one example costs milliseconds: the fuzz is about
# the contract, not about how far each command scales.
COMMANDS = {
    "analyze": [(None, _SPECS, True)],
    "aut": [(None, _SPECS, True)],
    "sym": [(None, _SPECS, True), ("--depth", _ints(-1, 4), False)],
    "patch": [
        (None, _SPECS, True),
        ("-m", _ints(-1, 4), False),
        ("-a", st.sampled_from(["0", "1", "2", "x"]), False),
        ("--render", st.sampled_from(["txt", "ppm", "svg"]), False),
        ("--scale", _ints(-1, 3), False),
    ],
    "point": [
        (None, _SPECS, True),
        ("--seed", _SEEDS, True),
        ("--shift", _int_lists([1, 2, 3], -9, 9), False),
        ("--window", _ints(-1, 4), True),
    ],
    "lang": [
        (None, _SPECS, True),
        ("--shape", _int_lists([1, 2, 2, 3], 0, 3), True),
        ("--mode", st.sampled_from(["minimal", "full", "max"]), False),
    ],
    "fracture": [
        (None, _SPECS, True),
        ("--axis", _ints(-1, 3), False),
        ("--refute", _int_lists([1, 2, 2, 3]), False),
        ("--threshold", _ints(-1, 5), False),
        ("--window", _ints(-2, 12), True),
    ],
    "robinson supertile": [
        (None, _ints(-1, 5), True),
        ("--orient", st.sampled_from([*rob.ORIENTATIONS, "EN"]), False),
        ("--render", st.sampled_from(["txt", "ppm", "svg", "png"]), False),
        ("--scale", _ints(-1, 2), False),
    ],
    "robinson window": [
        (None, _ints(-1, 6), True),
        ("--arm-config", st.sampled_from(["vertical", "horizontal", "diagonal"]), False),
        ("--render", st.sampled_from(["txt", "ppm", "svg"]), False),
    ],
    "robinson fracture": [(None, _ints(-1, 6), True), (None, _ints(-(10**12), 10**12), True)],
    "robinson torus": [
        (None, _PERIODS, True),
        (None, _PERIODS, True),
        ("--time-cap", st.sampled_from(["5", "0", "-1", "nan", "inf", "x"]), False),
    ],
    "robinson verify": [(None, st.sampled_from(["{dir}/patch.txt", "{dir}/bad.txt", "{dir}/no.txt", "{dir}"]), True)],
}


@st.composite
def _argv(draw):
    """An argv over one real subcommand: required arguments now and then left
    out, optional flags drawn at random, flags shuffled, a stray token or a
    `--threads` value now and then."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positional, flags = [], []
    for flag, values, required in COMMANDS[command]:
        left_out = draw(_RARELY if required else st.booleans())
        if left_out:
            continue
        value = draw(values)
        if flag is None:
            positional.append(value)
        else:
            flags.append([flag, value])
    flags = draw(st.permutations(flags))
    argv = command.split() + positional + [a for pair in flags for a in pair]
    if draw(_RARELY):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-h", "extra", "--"])))
    if draw(_RARELY):
        argv = ["--threads", draw(_ints(-1, 3))] + argv
    return command, argv


def run_main(argv):
    """main(argv) with both streams captured; stdout has a byte buffer, as a real one does."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def check_contract(code, err, may_fail_verdict):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert may_fail_verdict
    if code == 2:
        last = err.splitlines()[-1]
        assert last.startswith("error:") or (last.startswith("subsym") and ": error: " in last), err


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
def test_argv_fuzz(tmp_path, drawn):
    command, argv = drawn
    (tmp_path / "patch.txt").write_text(rob.save_patch_text(rob.supertile(2)))
    (tmp_path / "bad.txt").write_text("parity=0,0\n3.0 3.0\n")
    code, _, err = run_main([a.format(dir=tmp_path) for a in argv])
    check_contract(code, err, command.split()[0] in VERDICT_COMMANDS)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.sampled_from(["0", "1", "2", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["0", "1", "x"]), inner, max_size=2),
    max_leaves=6,
)


_BUNDLED_TEXTS = [canonical_text(load_bundled(name)) for name in sorted(BUNDLED)]


def _cell_paths(rows):
    """The index paths of the cells of one nested rule."""
    if not isinstance(rows, list):
        return [()]
    return [(i, *path) for i, row in enumerate(rows) for path in _cell_paths(row)]


@st.composite
def _spec_text(draw):
    """A bundled spec's canonical JSON with one mutation: a value replaced, a
    key dropped or added, rule cells changed (mostly to other symbols, which
    keeps the spec valid but changes what the rule does), or the text cut or
    spliced."""
    text = draw(st.sampled_from(_BUNDLED_TEXTS))
    spec = json.loads(text)
    kind = draw(st.sampled_from(["value", "drop", "add", "cells", "cells", "cells", "size", "splice"]))
    if kind == "value":
        spec[draw(st.sampled_from(sorted(spec)))] = draw(_JSON_VALUES)
    elif kind == "drop":
        del spec[draw(st.sampled_from(sorted(spec)))]
    elif kind == "add":
        spec[draw(st.sampled_from(["extra", "name2", ""]))] = draw(_JSON_VALUES)
    elif kind == "cells":
        cells = [(symbol, *path) for symbol, rows in spec["rules"].items() for path in _cell_paths(rows)]
        for symbol, *path in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3)):
            row = spec["rules"][symbol]
            for i in path[:-1]:
                row = row[i]
            row[path[-1]] = draw(st.one_of(st.sampled_from(spec["alphabet"]), _JSON_VALUES))
    elif kind == "size":
        spec["size"] = draw(st.lists(st.integers(-1, 4), max_size=4))
    else:
        cut = draw(st.integers(0, len(text)))
        splice = draw(st.text(st.sampled_from('{}[]",:-.01 9xé\x00\ud800'), max_size=3))
        return text[:cut] + splice + text[cut + draw(st.integers(0, 2)):]
    return json.dumps(spec)


_SPEC_COMMANDS = st.sampled_from([
    ["analyze"],
    ["aut"],
    ["sym", "--depth", "2"],
    ["lang", "--shape", "2"],
    ["lang", "--shape", "2,2"],
    ["patch", "-m", "2"],
])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_spec_text(), _SPEC_COMMANDS)
def test_spec_json_fuzz(tmp_path, text, command):
    path = tmp_path / "spec.json"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))  # a lone surrogate makes the file non-UTF-8
    code, _, err = run_main([command[0], str(path), *command[1:]])
    check_contract(code, err, False)
