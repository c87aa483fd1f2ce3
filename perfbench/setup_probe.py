"""Set-up probe: what every CLI invocation pays before it does any work.

    python3 perfbench/setup_probe.py SPEC...

Imports `subsym.cli` from this checkout's `src/`, then loads and builds
each spec (a bundled name or a spec file path).  `run.py` times whole
fresh processes of this script, interpreter start-up included.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import subsym.cli  # noqa: E402,F401
from subsym import specio  # noqa: E402

for arg in sys.argv[1:]:
    spec = specio.load_bundled(arg) if arg in specio.BUNDLED else specio.load_spec_file(arg)
    specio.build_substitution(spec)
