"""The README's examples run as written and print what their comments say.

The Python example is executed, and each commented CLI example of the
"Examples:" block is run in-process through `subsym.cli.main`.  Every
name that the "Library tour" table gives a module resolves in it.  The
examples and their comments are read from README.md itself, so editing
either there without editing the checks here fails a test.
"""

import importlib
import re
import shlex
from pathlib import Path

from subsym.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(lang, after):
    """The body of the first ```lang block that follows the text `after`."""
    start = README.index(f"```{lang}\n", README.index(after)) + len(f"```{lang}\n")
    return README[start : README.index("```", start)]


def check_aut(out, err):
    assert out.startswith("relabel_group_order=2\nstructure=Z^2 x C2\n")


def check_sym(out, err):
    lines = out.splitlines()
    assert len(lines) == 9 and all(" -> ExactYes," in line for line in lines[:8])
    assert lines[8] == "psi_image_order=8 split=yes"


def check_supertile(out, err):
    rows = out.splitlines()[2:]
    assert [len(row.split()) for row in rows] == [3, 3, 3]
    assert err == "violations=0\n"


def check_torus(out, err):
    assert out.startswith("torus 4x4: unsat ")


def check_refute(out, err):
    assert re.fullmatch(r"refuted direction=1,1 level=4 block=\S+ upper_cells=\d+ lower_cells=\d+\n", out)


#: each README CLI example, its comment, and the check of what the comment states
CLI_EXAMPLES = {
    "aut tm2d": ("relabel_group_order=2, Z^2 x C2", check_aut),
    "sym tm2d": ("8 x ExactYes, psi_image_order=8 split=yes", check_sym),
    "robinson supertile 2": ("the 3x3 second-order assembly, violations=0", check_supertile),
    "robinson torus 4 4": ("unsat (not yet a certificate)", check_torus),
    "fracture tm2d --refute 1,1 --threshold 4": ("straddling level-4 block", check_refute),
}


def test_readme_cli_examples_print_what_their_comments_say(capsys):
    examples = {}
    for line in fenced_block("sh", "\nExamples:\n").splitlines():
        command, _, comment = line.partition("#")
        examples[command.strip().removeprefix("subsym ")] = comment.strip()
    assert examples == {command: comment for command, (comment, _) in CLI_EXAMPLES.items()}
    for command, (_, check) in CLI_EXAMPLES.items():
        assert main(shlex.split(command)) == 0, command
        check(*capsys.readouterr())


def test_readme_python_example_runs(capsys):
    source = fenced_block("python", "\nExample:\n")
    assert "print(sym_group_report(theta, depth=2).summary_line())  # psi_image_order=8 split=yes" in source
    namespace = {}
    exec(compile(source, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "psi_image_order=8 split=yes\n"
    assert namespace["patch"].extent == (16, 16)  # "exact 16x16 window"


#: backticked names in the tour that name no subsym API
TOUR_EXEMPT = {"bytes.translate", "unsat"}


def test_readme_library_tour_names_resolve():
    rows = re.findall(r"^\| `(subsym\.\w+)` \| (.*) \|$", README.split("## Library tour", 1)[1], re.M)
    assert len(rows) == 7
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module_name]
        for name in re.findall(r"`([^`]+)`", contents):
            name = name.removesuffix("()")
            if name not in TOUR_EXEMPT:
                assert hasattr(module, name) or any(hasattr(c, name) for c in classes), (module_name, name)
