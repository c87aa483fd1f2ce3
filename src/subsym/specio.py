"""Substitution spec files: parsing, validation, canonical serialization.

Format: a single JSON object with keys `name` (string), `dim` (int),
`size` (array of dim ints), `alphabet` (array of strings), `rules`
(object symbol -> nested arrays, outermost index = coordinate dim,
innermost = coordinate 1, index 0 = lowest coordinate).  Unknown keys
are rejected; every diagnostic carries the offending path.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources

from . import substitution
from .errors import ValidationError
from .lattice import Rect, Vec
from .substitution import Alphabet, Pattern, RectSubstitution, _run_starts

_REQUIRED_KEYS = {"name", "dim", "size", "alphabet", "rules"}


@dataclass(frozen=True)
class SubstitutionSpec:
    name: str
    dim: int
    size: tuple[int, ...]
    alphabet: tuple[str, ...]
    rules: dict[str, object]  # nested lists as parsed

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "size": list(self.size),
            "alphabet": list(self.alphabet),
            "rules": self.rules,
        }


def _fail(path: str, msg: str) -> ValidationError:
    return ValidationError(f"{path}: {msg}")


def parse_spec(text: str) -> SubstitutionSpec:
    return parse_and_build(text)[0]


def parse_and_build(text: str) -> tuple[SubstitutionSpec, RectSubstitution]:
    """The spec in `text` and its substitution, built once: the build is
    also the last validation step."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail("$", f"not valid JSON ({exc.msg} at line {exc.lineno})") from None
    except RecursionError:
        raise _fail("$", "not valid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise _fail("$", "top level must be an object")
    unknown = set(obj) - _REQUIRED_KEYS
    if unknown:
        raise _fail("$", f"unknown keys {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(obj)
    if missing:
        raise _fail("$", f"missing keys {sorted(missing)}")
    if not isinstance(obj["name"], str):
        raise _fail("$.name", "must be a string")
    dim = obj["dim"]  # JSON true and false parse as ints: `type` keeps them out
    if type(dim) is not int or dim < 1:
        raise _fail("$.dim", "must be a positive integer")
    size = obj["size"]
    if (
        not isinstance(size, list)
        or len(size) != dim
        or any(type(s) is not int for s in size)
    ):
        raise _fail("$.size", f"must be an array of {dim} integers")
    if any(s < 2 for s in size):
        raise _fail("$.size", "every component must be >= 2")
    alphabet = obj["alphabet"]
    if not isinstance(alphabet, list) or any(not isinstance(a, str) for a in alphabet):
        raise _fail("$.alphabet", "must be an array of strings")
    rules = obj["rules"]
    if not isinstance(rules, dict):
        raise _fail("$.rules", "must be an object")
    if set(rules) != set(alphabet):
        raise _fail("$.rules", "must have exactly one entry per alphabet symbol")
    spec = SubstitutionSpec(
        obj["name"], dim, tuple(size), tuple(alphabet), rules
    )
    return spec, build_substitution(spec)  # the rule cells are validated during the build


def _flatten_rule(node, size, alphabet_idx, path: str, depth: int, out: list) -> None:
    """Walk nested arrays, outermost axis = coordinate dim."""
    axis = len(size) - 1 - depth
    if depth == len(size):
        if not isinstance(node, str):
            raise _fail(path, "rule cell must be a symbol string")
        if node not in alphabet_idx:
            raise _fail(path, f"unknown symbol {node!r}")
        out.append(alphabet_idx[node])
        return
    if not isinstance(node, list) or len(node) != size[axis]:
        raise _fail(path, f"expected an array of length {size[axis]} (coordinate {axis + 1})")
    for i, sub in enumerate(node):
        _flatten_rule(sub, size, alphabet_idx, f"{path}[{i}]", depth + 1, out)


def build_substitution(spec: SubstitutionSpec) -> RectSubstitution:
    alphabet = Alphabet(spec.alphabet)
    idx = {name: i for i, name in enumerate(spec.alphabet)}
    rules = []
    zero = (0,) * spec.dim
    for name in spec.alphabet:
        flat: list[int] = []
        _flatten_rule(spec.rules[name], spec.size, idx, f"$.rules.{name}", 0, flat)
        # flat is ordered with coordinate dim outermost, i.e. coordinate 1 fastest
        rules.append(Pattern(zero, spec.size, bytes(flat)))
    return RectSubstitution(alphabet, spec.size, tuple(rules))


def canonical_text(spec: SubstitutionSpec) -> str:
    """Byte-stable serialization: sorted keys, two-space indent, newline."""
    return json.dumps(spec.to_obj(), sort_keys=True, indent=2) + "\n"


def spec_digest(spec: SubstitutionSpec) -> str:
    return hashlib.sha256(canonical_text(spec).encode()).hexdigest()[:16]


def read_utf8(path: str) -> str:
    """The text of a file, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None


def load_spec_file(path: str) -> SubstitutionSpec:
    return parse_spec(read_utf8(path))


BUNDLED = ("tm1d", "tm2d", "tm3d", "cyc3", "rig3", "dbl")


def bundled_text(name: str) -> str:
    """The JSON text of the bundled spec `name`."""
    if name not in BUNDLED:
        raise ValidationError(f"no bundled spec named {name!r}; have {BUNDLED}")
    return resources.files("subsym.data").joinpath(f"specs/{name}.json").read_text()


def load_bundled(name: str) -> SubstitutionSpec:
    return parse_spec(bundled_text(name))


def bundled_substitution(name: str) -> RectSubstitution:
    return parse_and_build(bundled_text(name))[1]


# ---------------------------------------------------------------------------
# Language dump format: one `extent:hex-bytes` line per pattern, sorted.
# ---------------------------------------------------------------------------


def dump_language(shape: tuple[int, ...], patterns) -> str:
    ext = ",".join(str(s) for s in shape)
    lines = sorted(f"{ext}:{cells.hex()}" for cells in patterns)
    return "\n".join(lines) + "\n" if lines else ""


def parse_language_dump(text: str) -> tuple[tuple[int, ...], frozenset[bytes]]:
    shape: tuple[int, ...] | None = None
    cells = set()
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            ext, hx = line.split(":")
            this_shape = tuple(int(v) for v in ext.split(","))
            buf = bytes.fromhex(hx)
        except ValueError:
            raise ValidationError(f"line {i}: bad language dump entry") from None
        if shape is None:
            shape = this_shape
        elif shape != this_shape:
            raise ValidationError(f"line {i}: mixed shapes in language dump")
        if len(buf) != math.prod(this_shape):
            raise ValidationError(f"line {i}: cell count does not match extent")
        cells.add(buf)
    if shape is None:
        raise ValidationError("empty language dump")
    return shape, frozenset(cells)


# ---------------------------------------------------------------------------
# Text rendering of substitution patterns
# ---------------------------------------------------------------------------

#: `bytes.translate` table from symbol to glyph: 91 glyphs, then `?`
_GLYPHS = (
    b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    b"!#$%&()*+,-./:;<=>?@[]^_`{|}~"
).ljust(256, b"?")


def render_pattern_text(p: Pattern) -> str:
    """One char per cell; rows printed top to bottom, 3d+ slices separated
    by blank lines (last coordinate outermost)."""
    text, w = p.cells.translate(_GLYPHS).decode("ascii"), p.extent[0]
    rows = [text[i : i + w] for i in _run_starts(p.extent, (0,) * p.dim, p.extent)]
    if p.dim == 1:
        return rows[0] + "\n"
    h = p.extent[1]
    r = p.rect()
    lines = []
    for j, outer in enumerate(Rect(r.lo[2:], r.hi[2:]).cells()):
        if j:
            lines.append("")
        if outer:
            lines.append(f"[slice {','.join(str(v) for v in outer)}]")
        lines.extend(reversed(rows[j * h : (j + 1) * h]))
    return "\n".join(lines) + "\n"


def render_pattern_ppm(p: Pattern, scale: int = 8) -> bytes:
    """P6 image of a 2d pattern using the shared palette."""
    if p.dim != 2:
        raise ValidationError("ppm rendering requires a 2d pattern")
    return ppm_image(p.extent, p.cells, scale)


def _load_palette() -> list[bytes]:
    text = resources.files("subsym.data").joinpath("palette256.txt").read_text()
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        r, g, b = (int(v) for v in line.split())
        out.append(bytes((r, g, b)))
    if len(out) < 256:
        raise ValidationError("palette file must provide 256 entries")
    return out


def ppm_image(extent: Vec, cells: bytes, scale: int) -> bytes:
    """P6 image of a 2d cell buffer in `Pattern`'s layout, top row first; cells are palette indices."""
    if scale < 1:
        raise ValidationError("ppm scale must be >= 1")
    w, h = extent
    cap = substitution.DEFAULT_CELL_CAP
    if w * h * scale * scale > cap:
        raise ValidationError(f"ppm of {w * scale}x{h * scale} pixels exceeds cap {cap}")
    scaled = [color * scale for color in _load_palette()]
    rows = [b"".join(map(scaled.__getitem__, cells[i : i + w])) for i in _run_starts(extent, (0, 0), extent)]
    return b"P6\n%d %d\n255\n" % (w * scale, h * scale) + b"".join(r for r in reversed(rows) for _ in range(scale))
