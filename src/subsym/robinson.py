"""The Robinson tile set, its local rules, and supertile machinery.

The five base tiles are transcribed as arrow paths on a 4x4 quarter-unit
grid; edge signatures (which arrow heads/tails touch which edge, on which
channel, in which color) are derived from the paths, and the 28-symbol
alphabet is the set of distinct signatures under the dihedral action.
The test suite checks the transcription behaviorally (28-count, every
supertile verifies). The torus search's `unsat` is not evidence for it:
its propagation prunes too much (see `torus_tiling_search`).

Local rules:

(1) every arrow head must meet an arrow tail of the same color on the
    same channel of the shared edge (tails may stay exposed);
(2) a chosen translate of the doubled lattice carries only crosses;
(3) any other cross sits diagonally offset from that translate.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from itertools import chain

from .errors import CapExceeded, ScopeError, ValidationError
from .lattice import IntMatrix, Rect, SignedPerm, vadd, vsub
from .specio import ppm_image
from .substitution import _moved, _relabel_table, _run_starts

# Edge indices.
N, E, S, W = 0, 1, 2, 3
BLACK, RED = "K", "R"

# A path: (color, points in quarter units, heads) with heads 'end' or 'both'.
_Path = tuple[str, tuple[tuple[int, int], ...], str]

_BASE_PATHS: dict[int, tuple[_Path, ...]] = {
    1: (
        (BLACK, ((2, 4), (2, 0)), "end"),
        (BLACK, ((0, 2), (2, 2)), "end"),
        (BLACK, ((4, 2), (2, 2)), "end"),
    ),
    2: (
        (BLACK, ((2, 4), (2, 0)), "end"),
        (RED, ((1, 4), (1, 0)), "end"),
        (BLACK, ((0, 2), (1, 2)), "end"),
        (BLACK, ((4, 2), (2, 2)), "end"),
        (RED, ((0, 1), (1, 1)), "end"),
        (RED, ((4, 1), (2, 1)), "end"),
    ),
    3: (
        (BLACK, ((2, 4), (2, 0)), "both"),
        (RED, ((1, 4), (1, 1), (4, 1)), "both"),
        (BLACK, ((0, 2), (4, 2)), "both"),
    ),
    4: (
        (BLACK, ((2, 4), (2, 0)), "end"),
        (BLACK, ((0, 2), (2, 2)), "end"),
        (BLACK, ((4, 2), (2, 2)), "end"),
        (RED, ((0, 1), (2, 1)), "end"),
        (RED, ((4, 1), (2, 1)), "end"),
    ),
    5: (
        (BLACK, ((2, 4), (2, 0)), "end"),
        (RED, ((1, 4), (1, 0)), "end"),
        (BLACK, ((0, 2), (1, 2)), "end"),
        (BLACK, ((4, 2), (2, 2)), "end"),
    ),
}


def _edge_of(pt: tuple[int, int]) -> int | None:
    x, y = pt
    if y == 4:
        return N
    if y == 0:
        return S
    if x == 0:
        return W
    if x == 4:
        return E
    return None


def _edge_pos(edge: int, pt: tuple[int, int]) -> int:
    return pt[0] if edge in (N, S) else pt[1]


# Edge marks: (pos in {1,2,3}, color, sense 'h'/'t').
Signature = tuple[frozenset, frozenset, frozenset, frozenset]


def _signature_of(paths: tuple[_Path, ...]) -> Signature:
    marks: list[set] = [set(), set(), set(), set()]
    for color, pts, heads in paths:
        for pt, is_head in ((pts[0], heads == "both"), (pts[-1], True)):
            edge = _edge_of(pt)
            if edge is None:
                continue
            marks[edge].add((_edge_pos(edge, pt), color, "h" if is_head else "t"))
    return tuple(frozenset(m) for m in marks)  # type: ignore[return-value]


#: The tile motions about the tile centre (2, 2), which `PatchSymmetry` also
#: applies to patches: the quarter turn counterclockwise and the mirror x -> -x.
_QUARTER_TURN = SignedPerm((1, 0), (0, 1))
_MIRROR = SignedPerm((0, 1), (1, 0))
_CENTRE = (2, 2)


def _transform_paths(paths: tuple[_Path, ...], rot: int, mirror: int) -> tuple[_Path, ...]:
    a = _MIRROR if mirror else SignedPerm.identity(2)
    for _ in range(rot):
        a = _QUARTER_TURN.compose(a)
    return tuple(
        (color, tuple(vadd(a.apply(vsub(p, _CENTRE)), _CENTRE) for p in pts), heads)
        for color, pts, heads in paths
    )


@dataclass(frozen=True)
class RobinsonTile:
    tid: int
    kind: int
    rot: int  # quarter turns ccw, applied after the optional mirror
    mirror: int
    sig: Signature
    paths: tuple[_Path, ...] = field(repr=False)

    def token(self) -> str:
        return _token(self.kind, self.rot, self.mirror)


def _token(kind: int, rot: int, mirror: int) -> str:
    return f"{kind}.{rot}" + ("M" if mirror else "")


def _build_tiles() -> tuple[list[RobinsonTile], dict[tuple[int, int, int], int]]:
    """The 28 tiles, and their ids by (kind, rot, mirror) spelling."""
    tiles: list[RobinsonTile] = []
    by_sig: dict[Signature, int] = {}
    by_spelling: dict[tuple[int, int, int], int] = {}
    for kind in range(1, 6):
        for mirror in (0, 1):
            for rot in range(4):
                paths = _transform_paths(_BASE_PATHS[kind], rot, mirror)
                sig = _signature_of(paths)
                if sig not in by_sig:
                    by_sig[sig] = len(tiles)
                    tiles.append(RobinsonTile(len(tiles), kind, rot, mirror, sig, paths))
                by_spelling[(kind, rot, mirror)] = by_sig[sig]
    if len(tiles) != 28:
        raise AssertionError(
            f"decoration table self-check failed: {len(tiles)} distinct tiles"
        )
    return tiles, by_spelling


TILES, _SPELLING_TO_ID = _build_tiles()
_TOKENS = tuple(t.token() for t in TILES)
#: Tile id by token, one entry for each of the 40 spellings.
_TOKEN_TO_ID = {_token(*spelling): tid for spelling, tid in _SPELLING_TO_ID.items()}
CROSS_KIND = 3
_TILE_IDS = bytes(range(len(TILES)))
_CROSSES = bytes(t.tid for t in TILES if t.kind == CROSS_KIND)
_NON_CROSSES = _TILE_IDS.translate(None, _CROSSES)
#: Rules (2)-(3): the tiles allowed at (x, y), indexed by ((y - p2) % 2, (x - p1) % 2).
#: The cross coset holds crosses, its diagonal offset anything, the other two no cross.
#: As `bytes.translate` deletions, the cells of one class are allowed exactly
#: when deleting the class's tiles from them leaves nothing.
_COSET_TILES = ((_CROSSES, _NON_CROSSES), (_NON_CROSSES, _TILE_IDS))


def enumerate_tiles() -> list[RobinsonTile]:
    return list(TILES)


def tile_by_token(token: str) -> RobinsonTile:
    try:
        return TILES[_TOKEN_TO_ID[token]]
    except KeyError:
        raise ValidationError(f"bad tile token {token!r}") from None


#: Quarter-turn rotation acting on the alphabet.
ROTATE_TABLE = tuple(_SPELLING_TO_ID[(t.kind, (t.rot + 1) % 4, t.mirror)] for t in TILES)
#: Horizontal-axis-inverting reflection acting on the alphabet: mirroring
#: rot^r after mirror^m gives rot^-r after mirror^(1-m).
MIRROR_TABLE = tuple(_SPELLING_TO_ID[(t.kind, -t.rot % 4, 1 - t.mirror)] for t in TILES)


def _heads(marks) -> frozenset:
    return frozenset((p, c) for p, c, s in marks if s == "h")


def _tails(marks) -> frozenset:
    return frozenset((p, c) for p, c, s in marks if s == "t")


def _edge_classes(a_edge: int, b_edge: int) -> tuple[bytes, bytes]:
    """`bytes.translate` tables of rule (1) across one pair of edges: tile b
    fits across edge `a_edge` of tile a exactly when a's class in the first
    table equals b's class in the second.

    The matching is complementary (every head meets a tail and every tail
    receives a head; a dent left unfilled would be a hole), so a's class is
    its (heads, tails) on `a_edge` and b's is its (tails, heads) on `b_edge`.
    Bytes past the alphabet get a class per table that matches nothing.
    """
    classes: dict[tuple[frozenset, frozenset], int] = {}
    a_keys = [(_heads(t.sig[a_edge]), _tails(t.sig[a_edge])) for t in TILES]
    b_keys = [(_tails(t.sig[b_edge]), _heads(t.sig[b_edge])) for t in TILES]
    a_side, b_side = (bytes(classes.setdefault(k, len(classes)) for k in keys) for keys in (a_keys, b_keys))
    pad = 256 - len(TILES)
    return a_side + b"\xfe" * pad, b_side + b"\xff" * pad


_EAST_CLASS, _WEST_CLASS = _edge_classes(E, W)
_NORTH_CLASS, _SOUTH_CLASS = _edge_classes(N, S)


def matches(a: int | RobinsonTile, b: int | RobinsonTile, direction: str) -> bool:
    """Can tile b sit east (or north) of tile a?"""
    ai = a.tid if isinstance(a, RobinsonTile) else a
    bi = b.tid if isinstance(b, RobinsonTile) else b
    if direction not in ("E", "N"):
        raise ValidationError(f"direction must be 'E' or 'N', got {direction!r}")
    if not (0 <= ai < len(TILES) and 0 <= bi < len(TILES)):
        raise ValidationError(f"tile ids must be in [0, {len(TILES)})")
    if direction == "E":
        return _EAST_CLASS[ai] == _WEST_CLASS[bi]
    return _NORTH_CLASS[ai] == _SOUTH_CLASS[bi]


def is_cross(tid: int) -> bool:
    # `in` on bytes raises for an int outside [0, 256)
    return 0 <= tid < len(TILES) and tid in _CROSSES


# ---------------------------------------------------------------------------
# Patches and verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "mismatch" | "coset_not_cross" | "stray_cross"
    at: tuple[int, int]
    detail: str


@dataclass(frozen=True, slots=True)
class RobinsonPatch:
    """Finite grid of tile ids plus the chosen cross-lattice parity.

    `tiles` (any sequence of ids, stored as bytes) is in `Pattern`'s cell
    layout: x varies fastest, so each row is one slice of `width` bytes.
    """

    rect: Rect
    tiles: bytes
    parity: tuple[int, int]

    def __post_init__(self) -> None:
        if self.rect.dim != 2:
            raise ValidationError("robinson patches are two-dimensional")
        if len(self.tiles) != self.rect.cell_count():
            raise ValidationError("tile buffer does not match support")
        try:
            tiles = bytes(self.tiles)
        except ValueError:  # an id outside [0, 256)
            tiles = None
        if tiles is None or tiles.translate(None, _TILE_IDS):
            raise ValidationError(f"tile ids must be in [0, {len(TILES)})")
        object.__setattr__(self, "tiles", tiles)
        object.__setattr__(self, "parity", (self.parity[0] % 2, self.parity[1] % 2))

    @property
    def width(self) -> int:
        return self.rect.extent()[0]

    @property
    def height(self) -> int:
        return self.rect.extent()[1]

    def get(self, x: int, y: int) -> int:
        x0, y0 = self.rect.lo
        return self.tiles[(x - x0) + self.width * (y - y0)]

    def rows(self, r: Rect | None = None) -> list[bytes]:
        """The rows of the sub-box r (default: the whole patch), bottom first."""
        r = r or self.rect
        extent = r.extent()
        starts = _run_starts(self.rect.extent(), vsub(r.lo, self.rect.lo), extent)
        width = extent[0]
        return [self.tiles[i : i + width] for i in starts]


def verify_patch(patch: RobinsonPatch) -> list[Violation]:
    """All rule violations inside the patch (empty list means locally valid).

    Each row is first checked whole, in C: rule (1) as equal edge-class
    strings on the two sides of its east and north edges, rules (2)-(3) as
    deletions of the allowed tiles from its two cell classes.  Only a row
    that fails is walked cell by cell, so violations come out in cell order.
    """
    out: list[Violation] = []
    x0, y0 = patch.rect.lo
    p1, p2 = patch.parity
    c = (p1 - x0) % 2  # row[c::2] are the cells with (x - p1) % 2 == 0
    rows = patch.rows()
    for j, (row, above) in enumerate(zip(rows, rows[1:] + [b""])):
        y = y0 + j
        coset = (y - p2) % 2
        if (
            row[:-1].translate(_EAST_CLASS) == row[1:].translate(_WEST_CLASS)
            and (not above or row.translate(_NORTH_CLASS) == above.translate(_SOUTH_CLASS))
            and not row[c::2].translate(None, _COSET_TILES[coset][0])
            and not row[1 - c :: 2].translate(None, _COSET_TILES[coset][1])
        ):
            continue
        allowed = _COSET_TILES[coset]
        east, west = row.translate(_EAST_CLASS), row.translate(_WEST_CLASS)
        north, south = row.translate(_NORTH_CLASS), above.translate(_SOUTH_CLASS)
        for i, t in enumerate(row):
            x = x0 + i
            if i + 1 < len(row) and east[i] != west[i + 1]:
                out.append(Violation("mismatch", (x, y), "east neighbor"))
            if above and north[i] != south[i]:
                out.append(Violation("mismatch", (x, y), "north neighbor"))
            if t not in allowed[(x - p1) % 2]:
                # a disallowed cross is off both cross cosets; a disallowed non-cross is on the coset
                kind = "stray_cross" if t in _CROSSES else "coset_not_cross"
                out.append(Violation(kind, (x, y), _TOKENS[t]))
    return out


# ---------------------------------------------------------------------------
# Supertiles
# ---------------------------------------------------------------------------

ORIENTATIONS = ("NE", "NW", "SE", "SW")
_SUPERTILE_ORDER_CAP = 8
_WINDOW_RADIUS_CAP = 256


def _ids(tokens: str) -> tuple[int, ...]:
    return tuple(_TOKEN_TO_ID[t] for t in tokens.split())


#: The center cross of the NE supertile, whose L-arrow opens north and east.
_NE_CROSS = _TOKEN_TO_ID["3.0"]
#: The (plain, crossing) cells of its arms toward N, E, S and W: rails (kinds
#: 5/2) along the L-arrow, blanks (kinds 1/4) pointing out along the other two.
_NE_ARMS = tuple(map(_ids, ("5.2M 2.2M", "5.1 2.1", "1.0 4.0", "1.3 4.3")))
#: The kind-1 tile whose black arrow points across edge N, E, S or W.
_TILE1_POINTING = _ids("1.2 1.1 1.0 1.3")
#: `bytes.translate` tables of the reflections x -> -x and y -> -y (rot^2 after x -> -x).
_FLIP_X = _relabel_table(MIRROR_TABLE)
_FLIP_Y = _relabel_table([ROTATE_TABLE[ROTATE_TABLE[t]] for t in MIRROR_TABLE])


def _oriented(rows: list[bytes], orient: str) -> list[bytes]:
    """The NE-facing block `rows` (bottom first) reflected to face `orient`:
    upside down to face south, left to right to face west."""
    if orient[0] == "S":
        rows = [r.translate(_FLIP_Y) for r in reversed(rows)]
    if orient[1] == "W":
        rows = [r.translate(_FLIP_X)[::-1] for r in rows]
    return rows


def cross_tile(orient: str) -> int:
    """The cross whose L-arrow opens toward the two letters of `orient`:
    the order-1 supertile, the NE cross reflected."""
    return supertile(1, orient).tiles[0]


def _arm_run(edge: int, n: int, length: int) -> bytes:
    """The `length` outermost cells of the order-n NE arm toward `edge`, outer end first.

    The crossing cell sits 2^(n-2) cells from the center: the middle one of
    the 2^(n-1) - 1 arm cells, so a whole arm reads the same from either end.
    """
    plain, crossing = _NE_ARMS[edge]
    middle = (1 << (n - 2)) - 1
    return bytes(crossing if i == middle else plain for i in range(length))


def _supertile_rows(n: int) -> list[bytes]:
    """Rows, bottom first, of the order-n NE supertile.

    Order k is four inward-facing order-(k-1) supertiles, named after the
    corner they face, joined by the arm row and the arm column around the
    central cross (Robinson 1971). The NE one sits at the lower left, and
    the NW, SE and SW ones are its mirror images (`_oriented`), so only the
    NE hierarchy is ever assembled.
    """
    rows = [bytes([_NE_CROSS])]
    for k in range(2, n + 1):
        c = (1 << (k - 1)) - 1
        nw, se, sw = (_oriented(rows, o) for o in ORIENTATIONS[1:])
        rows = (
            [a + bytes([t]) + b for a, t, b in zip(rows, _arm_run(S, k, c), nw)]
            + [_arm_run(W, k, c) + bytes([_NE_CROSS]) + _arm_run(E, k, c)]
            + [a + bytes([t]) + b for a, t, b in zip(se, _arm_run(N, k, c), sw)]
        )
    return rows


def supertile(n: int, orient: str = "NE") -> RobinsonPatch:
    """The (2^n - 1)-sided cross-like block, anchored at (0, 0)."""
    if orient not in ORIENTATIONS:
        raise ValidationError(f"orientation must be one of {ORIENTATIONS}")
    if not 1 <= n <= _SUPERTILE_ORDER_CAP:
        raise CapExceeded(f"supertile order {n} outside [1, {_SUPERTILE_ORDER_CAP}]")
    side = (1 << n) - 1
    rows = _oriented(_supertile_rows(n), orient)
    return RobinsonPatch(Rect.box((side, side)), b"".join(rows), (0, 0))


def _limit_row(blocks: list[bytes], orient: str, d: int, width: int) -> bytes:
    """The `width` cells nearest the corner of row d (counted from the
    corner) of the quadrant-filling limit supertile `orient`.

    The limit is the union of the order-n supertiles `orient` that share
    that corner, since the corner block of each is the one before it.  The
    walk runs down the NE hierarchy, one level per base-2 digit of d, to the
    smallest order m at least `width` wide; `blocks` is `_supertile_rows(m)`.
    A south-facing block is an NE block upside down, so entering the one
    above an arm row flips one bit and counts d from its corner again; the
    row found is reflected to face `orient` at the end.
    """
    m = width.bit_length()
    n = max(m, (d + 1).bit_length())
    flip = orient[0] == "S"
    while n > m:
        c = (1 << (n - 1)) - 1
        if d == c:  # the arm row
            row = _arm_run(W, n, width)
            break
        if d > c:  # the south-facing block above the arm row
            d, flip = 2 * c - d, not flip
        n -= 1
    else:
        row = blocks[d][:width]
    if flip:
        row = row.translate(_FLIP_Y)
    return row.translate(_FLIP_X)[::-1] if orient[1] == "W" else row


def _half_row(blocks: list[bytes], y: int, n: int, vertical: bool, east: bool) -> bytes:
    """Cells x = 1..n (east) or x = -n..-1 of row y of the four-supertile point."""
    if y == 0:  # the horizontal strip: uniform, or pointing toward the center
        return bytes([_TILE1_POINTING[W if east and vertical else E]]) * n
    return _limit_row(blocks, ("N" if y > 0 else "S") + ("E" if east else "W"), abs(y) - 1, n)


def four_quadrant_window(n: int, arm_config: str = "vertical") -> RobinsonPatch:
    """(2N+1)^2 window of the four-infinite-supertile point around the origin.

    The four quadrants are separated by a row and a column of kind-1 tiles;
    the strip named by `arm_config` has all its tiles in one orientation,
    the other points toward the center.
    """
    return _shifted_window(n, 0, arm_config)


def _shifted_window(n: int, dy_right: int, arm_config: str = "vertical") -> RobinsonPatch:
    """The four-supertile window with the open right half-plane (x >= 1)
    shifted vertically by dy_right, built row by row."""
    if arm_config not in ("vertical", "horizontal"):
        raise ValidationError("arm_config must be 'vertical' or 'horizontal'")
    if not 1 <= n <= _WINDOW_RADIUS_CAP:
        raise CapExceeded(f"window radius {n} outside [1, {_WINDOW_RADIUS_CAP}]")
    vertical, blocks = arm_config == "vertical", _supertile_rows(n.bit_length())
    rows = []
    for y in range(-n, n + 1):
        axis = N if vertical or y < 0 else S if y > 0 else E
        rows.append(
            _half_row(blocks, y, n, vertical, False)
            + bytes([_TILE1_POINTING[axis]])
            + _half_row(blocks, y - dy_right, n, vertical, True)
        )
    return RobinsonPatch(Rect((-n, -n), (n, n)), b"".join(rows), (1, 1))


def fracture_shift_demo(n: int, k: int) -> RobinsonPatch:
    """Re-glue the right half-plane of the four-quadrant point shifted by
    (0, 2k); the result still verifies, demonstrating the vertical fracture.

    Only the vertical-uniform strip absorbs a vertical shift, so the demo
    always builds on that configuration.
    """
    return _shifted_window(n, 2 * k, "vertical")


# ---------------------------------------------------------------------------
# Dihedral symmetry action on patches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchSymmetry:
    """Lattice transform plus cellwise tile relabeling: out(A k) = table[in(k)]."""

    a: SignedPerm
    table: tuple[int, ...]

    @classmethod
    def identity(cls) -> "PatchSymmetry":
        return cls(SignedPerm.identity(2), tuple(range(28)))

    @classmethod
    def rotation(cls) -> "PatchSymmetry":
        return cls(_QUARTER_TURN, ROTATE_TABLE)

    @classmethod
    def reflection(cls) -> "PatchSymmetry":
        return cls(_MIRROR, MIRROR_TABLE)

    @property
    def mat(self) -> IntMatrix:
        return self.a.matrix()

    def compose(self, other: "PatchSymmetry") -> "PatchSymmetry":
        return PatchSymmetry(
            self.a.compose(other.a),
            tuple(self.table[other.table[i]] for i in range(28)),
        )

    def apply(self, patch: RobinsonPatch) -> RobinsonPatch:
        # a signed permutation sends opposite corners of the box to opposite corners
        u, v = self.a.apply(patch.rect.lo), self.a.apply(patch.rect.hi)
        rect = Rect(tuple(map(min, u, v)), tuple(map(max, u, v)))
        idx = _moved(patch.rect.extent(), self.a)
        tiles = bytes(map(patch.tiles.__getitem__, idx)).translate(_relabel_table(self.table))
        parity = tuple(c % 2 for c in self.a.apply(patch.parity))
        return RobinsonPatch(rect, tiles, parity)  # type: ignore[arg-type]


def dihedral_group() -> list[PatchSymmetry]:
    """The eight symmetries generated by the quarter turn and the reflection."""
    rho = PatchSymmetry.rotation()
    mu = PatchSymmetry.reflection()
    out = [PatchSymmetry.identity()]
    frontier = [PatchSymmetry.identity()]
    seen = {out[0]}
    while frontier:
        nxt = []
        for g in frontier:
            for h in (rho, mu):
                gh = g.compose(h)
                if gh not in seen:
                    seen.add(gh)
                    out.append(gh)
                    nxt.append(gh)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# Periodic (torus) tiling search
# ---------------------------------------------------------------------------

TORUS_CELL_CAP = 100


@dataclass(frozen=True)
class TorusResult:
    status: str  # "unsat" | "sat" | "timeout"
    width: int
    height: int
    parity: tuple[int, int]
    assignment: tuple[int, ...] | None
    decisions: int
    elapsed: float


def _support_table(mine: bytes, theirs: bytes) -> tuple[tuple[int, ...], ...]:
    """Rule (1) supports across one edge, as four tuples indexed by one byte
    of a tile mask (bit t set for tile t).

    For a set S of tiles at the neighbour, the tiles a with `mine[a] ==
    theirs[b]` for some b in S are the mask OR of `table[k][S >> 8k & 255]`
    over k = 0..3.  `fits[b]` is the mask of the tiles that fit b, and each
    tuple is built by doubling: the entries with bit j set are the ones
    below 2^j with `fits` of that bit ORed in.
    """
    by_class: dict[int, int] = {}
    for a, c in enumerate(mine[: len(TILES)]):
        by_class[c] = by_class.get(c, 0) | 1 << a
    fits = [by_class.get(c, 0) for c in theirs[:32]]  # bytes past the alphabet fit nothing
    table = []
    for k in range(0, 32, 8):
        row = [0]
        for f in fits[k : k + 8]:
            row += [r | f for r in row]
        table.append(tuple(row))
    return tuple(table)


@functools.cache
def _support_tables() -> dict[tuple[bytes, bytes], tuple[tuple[int, ...], ...]]:
    """The support table of each ordered pair of class tables that meet
    across an edge, built on the first torus search, the only reader."""
    return {
        (mine, theirs): _support_table(mine, theirs)
        for pair in ((_EAST_CLASS, _WEST_CLASS), (_NORTH_CLASS, _SOUTH_CLASS))
        for mine, theirs in (pair, pair[::-1])
    }


#: `_COSET_TILES` as tile masks, the torus search's start domains.
_COSET_MASKS = tuple(tuple(sum(1 << t for t in tiles) for tiles in row) for row in _COSET_TILES)


def torus_tiling_search(
    w: int,
    h: int,
    parity: tuple[int, int] = (0, 0),
    time_cap: float = 60.0,
) -> TorusResult:
    """Backtracking search for a w x h torus tiling.

    Cell i is (i % w, i // w). Its domain is an int with bit t set when
    tile t is still possible there; it starts as the tiles rules (2)-(3)
    allow. Each neighbour entry `(j, table)` holds rule (1) as the support
    table (`_support_table`) of the class tables of i and of j: a tile a at
    i has support in j when `mine[a]` is the class of some tile of j under
    `theirs`, so revising i against j is four lookups, an OR and an AND.
    The branch cell is the open cell with the fewest tiles, lowest index
    first, and its tiles are tried in ascending id order.

    A `sat` assignment would be a counterexample and is returned verbatim.
    An `unsat` is not a certificate: after revising i, `ac3` re-queues each
    neighbour k as `(k, i, table)` with i's own entry for k, the support
    table as seen from i, so it revises k against transposed class tables
    and can prune real solutions.  The fix (the ROADMAP item on a correct
    torus search) is to queue k's entry for i instead.
    """
    if w % 2 or h % 2:
        raise ScopeError("torus periods must be even to keep the cross coset consistent")
    if w < 2 or h < 2:
        raise ValidationError("torus periods must be >= 2")
    if not time_cap > 0:  # also rejects nan, which would never time out
        raise ValidationError(f"torus time cap must be > 0, got {time_cap}")
    if w * h > TORUS_CELL_CAP:
        raise CapExceeded(f"torus search capped at {TORUS_CELL_CAP} cells")

    p1, p2 = parity[0] % 2, parity[1] % 2
    n = w * h
    domains = [_COSET_MASKS[(i // w - p2) % 2][(i % w - p1) % 2] for i in range(n)]
    support = _support_tables()
    neighbors: list[list[tuple[int, tuple[tuple[int, ...], ...]]]] = [[] for _ in range(n)]
    for i in range(n):
        x, y = i % w, i // w
        for j, mine, theirs in (
            (y * w + (x + 1) % w, _EAST_CLASS, _WEST_CLASS),
            ((y + 1) % h * w + x, _NORTH_CLASS, _SOUTH_CLASS),
        ):
            neighbors[i].append((j, support[mine, theirs]))
            neighbors[j].append((i, support[theirs, mine]))

    start = time.monotonic()
    decisions = 0

    def ac3() -> bool:
        queue = [(i, j, table) for i in range(n) for (j, table) in neighbors[i]]
        while queue:
            i, j, (t0, t1, t2, t3) = queue.pop()
            dj = domains[j]
            allowed = t0[dj & 255] | t1[dj >> 8 & 255] | t2[dj >> 16 & 255] | t3[dj >> 24]
            if domains[i] & ~allowed:
                domains[i] &= allowed
                if not domains[i]:
                    return False
                queue.extend((k, i, table_i) for (k, table_i) in neighbors[i])
        return True

    def solve() -> str:
        nonlocal decisions
        if time.monotonic() - start > time_cap:
            return "timeout"
        open_cells = [i for i in range(n) if domains[i] & (domains[i] - 1)]
        if not open_cells:
            return "sat"
        i = min(open_cells, key=lambda c: (domains[c].bit_count(), c))
        d = domains[i]
        while d:
            val = d & -d  # the lowest tile id left
            d ^= val
            decisions += 1
            saved = domains[:]
            domains[i] = val
            if ac3():
                res = solve()
                if res != "unsat":
                    return res
            domains[:] = saved
        return "unsat"

    if not ac3():
        return TorusResult("unsat", w, h, (p1, p2), None, decisions, time.monotonic() - start)
    status = solve()
    assignment = tuple(d.bit_length() - 1 for d in domains) if status == "sat" else None
    return TorusResult(status, w, h, (p1, p2), assignment, decisions, time.monotonic() - start)


# ---------------------------------------------------------------------------
# Patch files and renders
# ---------------------------------------------------------------------------


def save_patch_text(patch: RobinsonPatch) -> str:
    """Serialize: parity header, anchor header, then rows from top to bottom."""
    lines = [
        f"parity={patch.parity[0]},{patch.parity[1]}",
        f"anchor={patch.rect.lo[0]},{patch.rect.lo[1]}",
    ]
    lines += (" ".join(map(_TOKENS.__getitem__, row)) for row in reversed(patch.rows()))
    return "\n".join(lines) + "\n"


def load_patch_text(text: str) -> RobinsonPatch:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("parity="):
        raise ValidationError("patch file must start with a parity header")
    body = lines[1:]
    anchor = (0, 0)
    try:
        p1, p2 = (int(v) for v in lines[0].split("=", 1)[1].split(","))
        if body and body[0].startswith("anchor="):
            ax, ay = (int(v) for v in body.pop(0).split("=", 1)[1].split(","))
            anchor = (ax, ay)
    except ValueError:
        raise ValidationError("parity and anchor headers need two integers") from None
    rows = [ln.split() for ln in body]
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValidationError("patch rows must be nonempty and of equal length")
    (width,), height = widths, len(rows)
    rect = Rect(anchor, (anchor[0] + width - 1, anchor[1] + height - 1))
    # bottom row first, each left to right: the first bad token in cell order is reported
    try:
        tiles = bytes(map(_TOKEN_TO_ID.__getitem__, chain.from_iterable(reversed(rows))))
    except KeyError as exc:
        raise ValidationError(f"bad tile token {exc.args[0]!r}") from None
    return RobinsonPatch(rect, tiles, (p1, p2))


def render_ppm(patch: RobinsonPatch, scale: int = 8) -> bytes:
    """P6 image, one palette color per tile id."""
    return ppm_image(patch.rect.extent(), patch.tiles, scale)


_SVG_COLORS = {BLACK: "#202020", RED: "#c0342b"}


def render_svg(patch: RobinsonPatch, cell: int = 24) -> str:
    """SVG 1.1 render with arrow glyphs per tile."""
    width, height = patch.width * cell, patch.height * cell
    q = cell / 4.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<defs>",
    ]
    for key, color in _SVG_COLORS.items():
        parts.append(
            f'<marker id="arrow{key}" viewBox="0 0 10 10" refX="9" refY="5" '
            f'markerWidth="5" markerHeight="5" orient="auto-start-reverse">'
            f'<path d="M 0 1 L 9 5 L 0 9 z" fill="{color}"/></marker>'
        )
    parts.append("</defs>")
    parts.append(
        f'<rect width="{width}" height="{height}" fill="white" stroke="none"/>'
    )
    for j, row in enumerate(patch.rows()):
        oy = (patch.height - 1 - j) * cell
        for i, tid in enumerate(row):
            ox = i * cell
            parts.append(
                f'<rect x="{ox}" y="{oy}" width="{cell}" height="{cell}" '
                f'fill="none" stroke="#d9d9d9" stroke-width="0.5"/>'
            )
            for color, pts, heads in TILES[tid].paths:
                coords = [(ox + px * q, oy + (4 - py) * q) for px, py in pts]
                d = "M " + " L ".join(f"{cx:.2f} {cy:.2f}" for cx, cy in coords)
                markers = f'marker-end="url(#arrow{color})"'
                if heads == "both":
                    markers += f' marker-start="url(#arrow{color})"'
                parts.append(
                    f'<path d="{d}" fill="none" stroke="{_SVG_COLORS[color]}" '
                    f'stroke-width="1.2" {markers}/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
