"""The Robinson tile set, its local rules, and supertile machinery.

The five base tiles are transcribed as arrow paths on a 4x4 quarter-unit
grid; edge signatures (which arrow heads/tails touch which edge, on which
channel, in which color) are derived from the paths, and the 28-symbol
alphabet is the set of distinct signatures under the dihedral action.
Correctness of the transcription is enforced behaviorally by the test
suite (28-count, supertile recursion verifies, torus search is UNSAT).

Local rules:

(1) every arrow head must meet an arrow tail of the same color on the
    same channel of the shared edge (tails may stay exposed);
(2) a chosen translate of the doubled lattice carries only crosses;
(3) any other cross sits diagonally offset from that translate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import CapExceeded, ScopeError, ValidationError
from .lattice import IntMatrix, Rect, mat_inverse_unimodular, mat_mul, mat_vec
from .specio import ppm_image

# Edge indices.
N, E, S, W = 0, 1, 2, 3
EDGE_NAMES = "NESW"
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


def _rot_pt(pt: tuple[int, int]) -> tuple[int, int]:
    """Quarter turn counterclockwise about the tile center."""
    x, y = pt
    return (4 - y, x)


def _mir_pt(pt: tuple[int, int]) -> tuple[int, int]:
    x, y = pt
    return (4 - x, y)


def _transform_paths(paths: tuple[_Path, ...], rot: int, mirror: int) -> tuple[_Path, ...]:
    out = []
    for color, pts, heads in paths:
        q = list(pts)
        if mirror:
            q = [_mir_pt(p) for p in q]
        for _ in range(rot % 4):
            q = [_rot_pt(p) for p in q]
        out.append((color, tuple(q), heads))
    return tuple(out)


@dataclass(frozen=True)
class RobinsonTile:
    tid: int
    kind: int
    rot: int  # quarter turns ccw, applied after the optional mirror
    mirror: int
    sig: Signature
    paths: tuple[_Path, ...] = field(repr=False)

    def token(self) -> str:
        return f"{self.kind}.{self.rot}" + ("M" if self.mirror else "")


def _build_tiles() -> tuple[list[RobinsonTile], dict[Signature, int]]:
    tiles: list[RobinsonTile] = []
    by_sig: dict[Signature, int] = {}
    for kind in range(1, 6):
        for mirror in (0, 1):
            for rot in range(4):
                paths = _transform_paths(_BASE_PATHS[kind], rot, mirror)
                sig = _signature_of(paths)
                if sig in by_sig:
                    continue
                tid = len(tiles)
                tiles.append(RobinsonTile(tid, kind, rot, mirror, sig, paths))
                by_sig[sig] = tid
    if len(tiles) != 28:
        raise AssertionError(
            f"decoration table self-check failed: {len(tiles)} distinct tiles"
        )
    return tiles, by_sig


TILES, _SIG_TO_ID = _build_tiles()
CROSS_KIND = 3


def enumerate_tiles() -> list[RobinsonTile]:
    return list(TILES)


def tile_by_token(token: str) -> RobinsonTile:
    mirror = 1 if token.endswith("M") else 0
    body = token[:-1] if mirror else token
    try:
        kind_s, rot_s = body.split(".")
        kind, rot = int(kind_s), int(rot_s)
    except ValueError:
        raise ValidationError(f"bad tile token {token!r}") from None
    if kind not in _BASE_PATHS or not 0 <= rot <= 3:
        raise ValidationError(f"bad tile token {token!r}")
    sig = _signature_of(_transform_paths(_BASE_PATHS[kind], rot, mirror))
    return TILES[_SIG_TO_ID[sig]]


def _sig_rot(sig: Signature) -> Signature:
    flip = lambda marks: frozenset((4 - p, c, s) for p, c, s in marks)
    return (flip(sig[E]), sig[S], flip(sig[W]), sig[N])


def _sig_mir(sig: Signature) -> Signature:
    flip = lambda marks: frozenset((4 - p, c, s) for p, c, s in marks)
    return (flip(sig[N]), sig[W], flip(sig[S]), sig[E])


def _table_from(sig_map) -> tuple[int, ...]:
    return tuple(_SIG_TO_ID[sig_map(t.sig)] for t in TILES)


#: Quarter-turn rotation acting on the alphabet.
ROTATE_TABLE = _table_from(_sig_rot)
#: Horizontal-axis-inverting reflection acting on the alphabet.
MIRROR_TABLE = _table_from(_sig_mir)


def _heads(marks) -> frozenset:
    return frozenset((p, c) for p, c, s in marks if s == "h")


def _tails(marks) -> frozenset:
    return frozenset((p, c) for p, c, s in marks if s == "t")


def _matches_once(a_sig, b_sig, a_edge: int, b_edge: int) -> bool:
    # Complementary jigsaw matching: every head meets a tail and every
    # tail receives a head (a dent left unfilled would be a hole).
    am, bm = a_sig[a_edge], b_sig[b_edge]
    return _heads(am) == _tails(bm) and _heads(bm) == _tails(am)


def _build_compat() -> tuple[list[list[bool]], list[list[bool]]]:
    east = [[False] * 28 for _ in range(28)]
    north = [[False] * 28 for _ in range(28)]
    for a in TILES:
        for b in TILES:
            east[a.tid][b.tid] = _matches_once(a.sig, b.sig, E, W)
            north[a.tid][b.tid] = _matches_once(a.sig, b.sig, N, S)
    return east, north


_EAST_OK, _NORTH_OK = _build_compat()


def matches(a: int | RobinsonTile, b: int | RobinsonTile, direction: str) -> bool:
    """Can tile b sit east (or north) of tile a?"""
    ai = a.tid if isinstance(a, RobinsonTile) else a
    bi = b.tid if isinstance(b, RobinsonTile) else b
    if direction == "E":
        return _EAST_OK[ai][bi]
    if direction == "N":
        return _NORTH_OK[ai][bi]
    raise ValidationError(f"direction must be 'E' or 'N', got {direction!r}")


def is_cross(tid: int) -> bool:
    return TILES[tid].kind == CROSS_KIND


# ---------------------------------------------------------------------------
# Patches and verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "mismatch" | "coset_not_cross" | "stray_cross"
    at: tuple[int, int]
    detail: str


class RobinsonPatch:
    """Finite grid of tile ids plus the chosen cross-lattice parity."""

    __slots__ = ("rect", "tiles", "parity")

    def __init__(self, rect: Rect, tiles: tuple[int, ...], parity: tuple[int, int]):
        if rect.dim != 2:
            raise ValidationError("robinson patches are two-dimensional")
        if len(tiles) != rect.cell_count():
            raise ValidationError("tile buffer does not match support")
        self.rect = rect
        self.tiles = tuple(tiles)
        self.parity = (parity[0] % 2, parity[1] % 2)

    @property
    def width(self) -> int:
        return self.rect.extent()[0]

    @property
    def height(self) -> int:
        return self.rect.extent()[1]

    def get(self, x: int, y: int) -> int:
        x0, y0 = self.rect.lo
        return self.tiles[(x - x0) + self.width * (y - y0)]

    def subpatch(self, r: Rect) -> "RobinsonPatch":
        if not self.rect.contains_rect(r):
            raise ValidationError("subpatch outside support")
        cells = tuple(self.get(x, y) for (x, y) in r.cells())
        return RobinsonPatch(r, cells, self.parity)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RobinsonPatch)
            and self.rect == other.rect
            and self.tiles == other.tiles
            and self.parity == other.parity
        )

    def __hash__(self) -> int:
        return hash((self.rect, self.tiles, self.parity))


def verify_patch(patch: RobinsonPatch) -> list[Violation]:
    """All rule violations inside the patch (empty list means locally valid)."""
    out: list[Violation] = []
    (x0, y0), (x1, y1) = patch.rect.lo, patch.rect.hi
    p1, p2 = patch.parity
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            t = patch.get(x, y)
            if x < x1 and not _EAST_OK[t][patch.get(x + 1, y)]:
                out.append(Violation("mismatch", (x, y), "east neighbor"))
            if y < y1 and not _NORTH_OK[t][patch.get(x, y + 1)]:
                out.append(Violation("mismatch", (x, y), "north neighbor"))
            on_coset = (x % 2, y % 2) == (p1, p2)
            if on_coset and not is_cross(t):
                out.append(Violation("coset_not_cross", (x, y), TILES[t].token()))
            if is_cross(t) and not on_coset:
                if (x % 2, y % 2) != ((p1 + 1) % 2, (p2 + 1) % 2):
                    out.append(Violation("stray_cross", (x, y), TILES[t].token()))
    return out


# ---------------------------------------------------------------------------
# Supertiles
# ---------------------------------------------------------------------------

ORIENTATIONS = ("NE", "NW", "SE", "SW")
_EDGE_IDX = {"N": N, "E": E, "S": S, "W": W}
_DEFAULT_SUPERTILE_CAP = 8


def _find_tile(pred) -> int:
    hits = [t.tid for t in TILES if pred(t)]
    if len(hits) != 1:
        raise AssertionError(f"tile selection not unique: {hits}")
    return hits[0]


def _black_head_edges(t: RobinsonTile) -> frozenset[int]:
    return frozenset(e for e in range(4) if (2, BLACK, "h") in t.sig[e])


def _red_head_edges(t: RobinsonTile) -> frozenset[int]:
    return frozenset(
        e for e in range(4) if any(c == RED for _, c, s in t.sig[e] if s == "h")
    )


def cross_tile(orient: str) -> int:
    """The cross whose L-arrow opens toward the two letters of `orient`."""
    want = frozenset(_EDGE_IDX[ch] for ch in orient)
    return _find_tile(
        lambda t: t.kind == CROSS_KIND and _red_head_edges(t) == want
    )


def _rail_quarter(orient: str, edge: int) -> int:
    sig = TILES[cross_tile(orient)].sig[edge]
    reds = [p for p, c, s in sig if c == RED and s == "h"]
    assert len(reds) == 1
    return reds[0]


def _arm_tile(orient: str, edge: int, crossing: bool) -> int:
    """Arm cell tile: rail kinds (5/2) along the L-arrow directions, blank
    kinds (1/4) along the other two; crossing cells receive the flanking
    red channels on their side rails."""
    rail = edge in {_EDGE_IDX[ch] for ch in orient}
    if rail:
        q = _rail_quarter(orient, edge)
        kind = 2 if crossing else 5
        return _find_tile(
            lambda t: t.kind == kind
            and _black_head_edges(t) == frozenset({edge})
            and (q, RED, "h") in t.sig[edge]
        )
    kind = 4 if crossing else 1
    return _find_tile(
        lambda t: t.kind == kind and _black_head_edges(t) == frozenset({edge})
    )


_ARM_TILES = {
    (o, e, c): _arm_tile(o, e, c)
    for o in ORIENTATIONS
    for e in range(4)
    for c in (False, True)
}

_SUB_ORIENT = {
    (False, False): "NE",
    (True, False): "NW",
    (False, True): "SE",
    (True, True): "SW",
}


def supertile_cell(n: int, orient: str, x: int, y: int) -> int:
    """Tile id at local position (x, y) of the order-n supertile."""
    if n == 1:
        return cross_tile(orient)
    c = (1 << (n - 1)) - 1
    if x == c and y == c:
        return cross_tile(orient)
    if x == c or y == c:
        if x == c:
            edge, t = (N, y - c) if y > c else (S, c - y)
        else:
            edge, t = (E, x - c) if x > c else (W, c - x)
        return _ARM_TILES[(orient, edge, t == 1 << (n - 2))]
    qx, qy = x > c, y > c
    sub = _SUB_ORIENT[(qx, qy)]
    return supertile_cell(n - 1, sub, x - (c + 1) if qx else x, y - (c + 1) if qy else y)


def supertile(n: int, orient: str = "NE", cap: int = _DEFAULT_SUPERTILE_CAP) -> RobinsonPatch:
    """The (2^n - 1)-sided cross-like block, anchored at (0, 0)."""
    if orient not in ORIENTATIONS:
        raise ValidationError(f"orientation must be one of {ORIENTATIONS}")
    if not 1 <= n <= cap:
        raise CapExceeded(f"supertile order {n} outside [1, {cap}]")
    side = (1 << n) - 1
    rect = Rect.box((side, side))
    tiles = tuple(supertile_cell(n, orient, x, y) for (x, y) in rect.cells())
    return RobinsonPatch(rect, tiles, (0, 0))


def _infinite_supertile_cell(orient: str, dx: int, dy: int) -> int:
    """Cell of the quadrant-filling limit supertile, indexed by the distance
    from its corner nearest the origin."""
    n = 1
    while (1 << n) - 1 <= max(dx, dy):
        n += 1
    side = (1 << n) - 1
    if orient == "NE":
        lx, ly = dx, dy
    elif orient == "NW":
        lx, ly = side - 1 - dx, dy
    elif orient == "SE":
        lx, ly = dx, side - 1 - dy
    else:
        lx, ly = side - 1 - dx, side - 1 - dy
    return supertile_cell(n, orient, lx, ly)


_TILE1_POINTING = {
    e: _find_tile(lambda t, e=e: t.kind == 1 and _black_head_edges(t) == frozenset({e}))
    for e in range(4)
}


def _four_quadrant_cell(x: int, y: int, uniform: str, dy_right: int = 0) -> int:
    """One cell of the four-supertile point, optionally with the open right
    half-plane (x >= 1) shifted vertically by dy_right."""
    if x >= 1 and dy_right:
        return _four_quadrant_cell(x, y - dy_right, uniform, 0)
    if x == 0 and y == 0:
        return _TILE1_POINTING[N if uniform == "vertical" else E]
    if x == 0:
        if uniform == "vertical":
            return _TILE1_POINTING[N]
        return _TILE1_POINTING[S if y > 0 else N]
    if y == 0:
        if uniform == "horizontal":
            return _TILE1_POINTING[E]
        return _TILE1_POINTING[W if x > 0 else E]
    if x > 0 and y > 0:
        return _infinite_supertile_cell("NE", x - 1, y - 1)
    if x < 0 and y > 0:
        return _infinite_supertile_cell("NW", -1 - x, y - 1)
    if x > 0:
        return _infinite_supertile_cell("SE", x - 1, -1 - y)
    return _infinite_supertile_cell("SW", -1 - x, -1 - y)


def four_quadrant_window(
    n: int, arm_config: str = "vertical", cap: int = 256
) -> RobinsonPatch:
    """(2N+1)^2 window of the four-infinite-supertile point around the origin.

    The four quadrants are separated by a row and a column of kind-1 tiles;
    the strip named by `arm_config` has all its tiles in one orientation,
    the other points toward the center.
    """
    return _shifted_window(n, 0, arm_config, cap)


def _shifted_window(
    n: int, dy_right: int, arm_config: str = "vertical", cap: int = 256
) -> RobinsonPatch:
    if arm_config not in ("vertical", "horizontal"):
        raise ValidationError("arm_config must be 'vertical' or 'horizontal'")
    if not 1 <= n <= cap:
        raise CapExceeded(f"window radius {n} outside [1, {cap}]")
    rect = Rect((-n, -n), (n, n))
    tiles = tuple(
        _four_quadrant_cell(x, y, arm_config, dy_right) for (x, y) in rect.cells()
    )
    return RobinsonPatch(rect, tiles, (1, 1))


def fracture_shift_demo(n: int, k: int, cap: int = 256) -> RobinsonPatch:
    """Re-glue the right half-plane of the four-quadrant point shifted by
    (0, 2k); the result still verifies, demonstrating the vertical fracture.

    Only the vertical-uniform strip absorbs a vertical shift, so the demo
    always builds on that configuration.
    """
    return _shifted_window(n, 2 * k, "vertical", cap)


# ---------------------------------------------------------------------------
# Dihedral symmetry action on patches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchSymmetry:
    """Lattice transform plus cellwise tile relabeling: out(A k) = table[in(k)]."""

    mat: IntMatrix
    table: tuple[int, ...]

    @classmethod
    def identity(cls) -> "PatchSymmetry":
        return cls(((1, 0), (0, 1)), tuple(range(28)))

    @classmethod
    def rotation(cls) -> "PatchSymmetry":
        return cls(((0, -1), (1, 0)), ROTATE_TABLE)

    @classmethod
    def reflection(cls) -> "PatchSymmetry":
        return cls(((-1, 0), (0, 1)), MIRROR_TABLE)

    def compose(self, other: "PatchSymmetry") -> "PatchSymmetry":
        return PatchSymmetry(
            mat_mul(self.mat, other.mat),
            tuple(self.table[other.table[i]] for i in range(28)),
        )

    def apply(self, patch: RobinsonPatch) -> RobinsonPatch:
        inv = mat_inverse_unimodular(self.mat)
        corners = [
            mat_vec(self.mat, c)
            for c in (
                patch.rect.lo,
                patch.rect.hi,
                (patch.rect.lo[0], patch.rect.hi[1]),
                (patch.rect.hi[0], patch.rect.lo[1]),
            )
        ]
        lo = (min(c[0] for c in corners), min(c[1] for c in corners))
        hi = (max(c[0] for c in corners), max(c[1] for c in corners))
        rect = Rect(lo, hi)
        tiles = tuple(
            self.table[patch.get(*mat_vec(inv, (x, y)))] for (x, y) in rect.cells()
        )
        parity = tuple(c % 2 for c in mat_vec(self.mat, patch.parity))
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


def torus_tiling_search(
    w: int,
    h: int,
    parity: tuple[int, int] = (0, 0),
    time_cap: float = 60.0,
) -> TorusResult:
    """Exhaustive backtracking search for a w x h torus tiling.

    UNSAT certifies there is no doubly periodic point with these periods;
    a SAT assignment would be a counterexample and is returned verbatim.
    """
    if w % 2 or h % 2:
        raise ScopeError("torus periods must be even to keep the cross coset consistent")
    if w * h > TORUS_CELL_CAP:
        raise CapExceeded(f"torus search capped at {TORUS_CELL_CAP} cells")

    crosses = frozenset(t.tid for t in TILES if t.kind == CROSS_KIND)
    non_crosses = frozenset(range(28)) - crosses
    p1, p2 = parity[0] % 2, parity[1] % 2

    cells = [(x, y) for y in range(h) for x in range(w)]
    idx = {c: i for i, c in enumerate(cells)}
    domains: list[set[int]] = []
    for x, y in cells:
        if (x % 2, y % 2) == (p1, p2):
            domains.append(set(crosses))
        elif (x % 2, y % 2) == ((p1 + 1) % 2, (p2 + 1) % 2):
            domains.append(set(range(28)))
        else:
            domains.append(set(non_crosses))

    # directed arcs: (i, j, table) meaning table[a][b] must hold for a@i, b@j
    arcs = []
    for x, y in cells:
        i = idx[(x, y)]
        arcs.append((i, idx[((x + 1) % w, y)], _EAST_OK))
        arcs.append((i, idx[(x, (y + 1) % h)], _NORTH_OK))
    neighbors: list[list[tuple[int, list[list[bool]], bool]]] = [[] for _ in cells]
    for i, j, table in arcs:
        neighbors[i].append((j, table, True))
        neighbors[j].append((i, table, False))

    start = time.monotonic()
    decisions = 0

    def revise(i: int, j: int, table, forward: bool) -> bool:
        """Prune values of i lacking support in j; True if changed."""
        di, dj = domains[i], domains[j]
        if forward:
            bad = {a for a in di if not any(table[a][b] for b in dj)}
        else:
            bad = {a for a in di if not any(table[b][a] for b in dj)}
        if bad:
            di -= bad
        return bool(bad)

    def ac3() -> bool:
        queue = [(i, j, t, fwd) for i in range(len(cells)) for (j, t, fwd) in neighbors[i]]
        while queue:
            i, j, t, fwd = queue.pop()
            if revise(i, j, t, fwd):
                if not domains[i]:
                    return False
                queue.extend((k, i, tt, fw) for (k, tt, fw) in neighbors[i])
        return True

    def solve() -> str:
        nonlocal decisions
        if time.monotonic() - start > time_cap:
            return "timeout"
        open_cells = [i for i in range(len(cells)) if len(domains[i]) > 1]
        if not open_cells:
            return "sat"
        i = min(open_cells, key=lambda c: (len(domains[c]), c))
        for val in sorted(domains[i]):
            decisions += 1
            saved = [set(d) for d in domains]
            domains[i] = {val}
            if ac3():
                res = solve()
                if res != "unsat":
                    return res
            for c in range(len(cells)):
                domains[c] = saved[c]
        return "unsat"

    if not ac3():
        return TorusResult("unsat", w, h, (p1, p2), None, decisions, time.monotonic() - start)
    status = solve()
    assignment = None
    if status == "sat":
        assignment = tuple(next(iter(domains[idx[(x, y)]])) for y in range(h) for x in range(w))
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
    (x0, y0), (x1, y1) = patch.rect.lo, patch.rect.hi
    for y in range(y1, y0 - 1, -1):
        lines.append(" ".join(TILES[patch.get(x, y)].token() for x in range(x0, x1 + 1)))
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
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError("patch rows must be nonempty and of equal length")
    height, width = len(rows), len(rows[0])
    rect = Rect(anchor, (anchor[0] + width - 1, anchor[1] + height - 1))
    tiles = []
    for y in range(height):
        for x in range(width):
            tiles.append(tile_by_token(rows[height - 1 - y][x]).tid)
    return RobinsonPatch(rect, tuple(tiles), (p1, p2))


def render_ppm(patch: RobinsonPatch, scale: int = 8) -> bytes:
    """P6 image, one palette color per tile id."""
    return ppm_image(patch.rect, patch.get, scale)


_SVG_COLORS = {BLACK: "#202020", RED: "#c0342b"}


def render_svg(patch: RobinsonPatch, cell: int = 24) -> str:
    """SVG 1.1 render with arrow glyphs per tile."""
    (x0, y0), (x1, y1) = patch.rect.lo, patch.rect.hi
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
    for (gx, gy) in patch.rect.cells():
        tile = TILES[patch.get(gx, gy)]
        ox = (gx - x0) * cell
        oy = (y1 - gy) * cell
        parts.append(
            f'<rect x="{ox}" y="{oy}" width="{cell}" height="{cell}" '
            f'fill="none" stroke="#d9d9d9" stroke-width="0.5"/>'
        )
        for color, pts, heads in tile.paths:
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
