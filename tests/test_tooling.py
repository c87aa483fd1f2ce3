"""The benchmark's tracer wraps `subsym` functions by name, and its op
checks compare against the verdicts, `lang` dumps and Robinson patch
digests pinned in `perfbench/pins.json`; a change that breaks any of
them shows only in a benchmark run, which this suite never starts.  The
tracer source is parsed and the pins and spec files are read, nothing
under perfbench/ is imported, and nothing is written there."""

import ast
import functools
import hashlib
import importlib
import itertools
import json
from pathlib import Path

import pytest

from subsym import robinson as rob
from subsym.cli import _perm_to_str, main
from subsym.language import patch_language
from subsym.specio import BUNDLED, build_substitution, bundled_substitution, load_spec_file, parse_spec
from subsym.symmetry import (
    EXACT_YES,
    VERIFIED_UP_TO,
    aut_group_description,
    sym_group_report,
    transformed_substitution,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
PINS = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
#: the depth of the benchmark's `sym` ops
PIN_DEPTH = 3


def tracer_targets():
    """(layer, attribute path) for every entry of the tracer's TARGETS table."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    return [
        (layer.value, entry.elts[0].value)
        for layer, entries in zip(table.keys, table.values)
        for entry in entries.elts
    ]


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert len(targets) > 30
    missing = []
    for layer, path in targets:
        module = importlib.import_module(f"subsym.{layer}")
        try:
            functools.reduce(getattr, path.split("."), module)
        except AttributeError:
            missing.append(f"subsym.{layer}.{path}")
    assert not missing


def catalogue_substitution(name):
    """A bundled spec, a pinned spec file, or the cyclic rule cycNr: a -> (a, a+1 mod N)."""
    if name in BUNDLED:
        return bundled_substitution(name)
    spec_file = PERFBENCH / "specs" / f"{name}.json"
    if spec_file.exists():
        return build_substitution(load_spec_file(str(spec_file)))
    assert name.startswith("cyc") and name.endswith("r"), name
    n = int(name[3:-1])
    rules = {str(a): [str(a), str((a + 1) % n)] for a in range(n)}
    spec = {"name": name, "dim": 1, "size": [2], "alphabet": [str(a) for a in range(n)], "rules": rules}
    return build_substitution(parse_spec(json.dumps(spec)))


def agreeing_taus(theta, a):
    """Every tau whose conjugate has theta's minimal cube languages up to PIN_DEPTH."""
    shapes = [(side,) * theta.dim for side in range(2, PIN_DEPTH + 1)]
    base = [patch_language(theta, sh).patterns for sh in shapes]
    return [
        list(tau)
        for tau in itertools.permutations(range(len(theta.alphabet)))
        if [patch_language(transformed_substitution(theta, a, tau), sh).patterns for sh in shapes] == base
    ]


@pytest.mark.parametrize("name", sorted(PINS["catalogue"]))
def test_catalogue_pins_hold(name):
    pin = PINS["catalogue"][name]
    theta = catalogue_substitution(name)
    aut = aut_group_description(theta)
    report = sym_group_report(theta, depth=PIN_DEPTH)
    assert [list(t) for t in aut.relabel_group] == pin["relabel_group"]
    assert aut.structure == pin["structure"]
    assert report.summary_line() == pin["summary"]
    matrices = {}
    for cand in report.candidates:
        if cand.verdict == EXACT_YES:
            taus = [list(t) for t in cand.taus]
        elif cand.verdict == VERIFIED_UP_TO:
            taus = agreeing_taus(theta, cand.a)
        else:
            taus = []
        matrices[_perm_to_str(cand.a)] = {"verdict": cand.describe().partition(",tau=")[0], "taus": taus}
    assert matrices == pin["matrices"]


@pytest.mark.parametrize("key", sorted(PINS["lang"]))
def test_lang_pins_hold(key, capsys):
    # the benchmark's `lang` check: stats-line count and the digest of the dump
    pin = PINS["lang"][key]
    spec_name, shape, mode = key.split(":")
    assert main(["lang", spec_name, "--shape", shape, "--mode", mode]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == pin["patterns"]
    assert err.startswith(f"# patterns={pin['patterns']} ")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == pin["digest"]


ROBINSON_PINS = [
    (section, key) for section in ("assemble", "torus", "verify_inputs") for key in sorted(PINS["robinson"][section])
]


@functools.cache
def verify_source(src, size, variant):
    if src == "supertile":
        return rob.supertile(size, variant)
    return rob.four_quadrant_window(size, variant)


@pytest.mark.parametrize("section,key", ROBINSON_PINS, ids=[f"{s}:{k}" for s, k in ROBINSON_PINS])
def test_robinson_pins_hold(section, key, capsys):
    # the benchmark's `assemble`, `torus` and verify-input checks: the patch
    # digest, the decision count, or the digest of a dihedral image's text
    pin = PINS["robinson"][section][key]
    if section == "assemble":
        assert main(["robinson", *key.split()]) == 0
        out, err = capsys.readouterr()
        assert err == "violations=0\n"
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == pin
    elif section == "verify_inputs":
        src, size, variant, g = key.split(":")
        text = rob.save_patch_text(rob.dihedral_group()[int(g)].apply(verify_source(src, int(size), variant)))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == pin
    else:
        assert main(["robinson", "torus", *key.split("x")]) == 0
        out, _ = capsys.readouterr()
        assert out.startswith(f"torus {key}: unsat decisions={pin} elapsed=")


def test_ci_runs_the_tier1_command():
    # the workflow's test step runs exactly the command ROADMAP.md gives for Tier-1
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    roadmap = (root / "ROADMAP.md").read_text(encoding="utf-8")
    command = roadmap.split("**Tier-1 verify:** `", 1)[1].split("`", 1)[0]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    steps = workflow["jobs"]["tier1"]["steps"]
    assert [step["run"] for step in steps if step.get("name") == "Tier-1 tests"] == [command]
    setup = next(step for step in steps if step.get("uses", "").startswith("actions/setup-python"))
    assert setup["with"]["python-version"] == "3.11"
    install = next(step["run"] for step in steps if step.get("name") == "Install test dependencies")
    assert install.split()[-2:] == ["pytest", "hypothesis"]


def test_ci_checks_every_benchmark_workload():
    # one short run per workload, untraced and traced, and the step itself
    # fails on a run that is not correct or has failed ops, since run.py
    # exits 0 either way
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    workloads = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS"
    )
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    (step,) = [step for step in workflow["jobs"]["tier1"]["steps"] if step.get("name") == "Benchmark outputs"]
    script = step["run"]
    loop = script.split("for workload in ", 1)[1].split(";", 1)[0]
    assert tuple(loop.split()) == workloads
    assert 'python3 perfbench/run.py --workload "$workload" --seconds 1 --trace "$trace"' in script
    assert "for trace in 0 1;" in script
    assert 'r["correct"] is not True or r["failed"] != 0' in script
    assert step["shell"] == "bash"  # -eo pipefail: a run that exits non-zero fails the step too
