"""Cell-by-cell reference implementations of the materialization kernels.

Each function is the per-cell code that the row kernel in
`subsym.substitution` replaced (index_of arithmetic on a throwaway
Pattern), or that the block assembly in `subsym.robinson` replaced (one
recursion per cell, over tiles picked by edge-signature predicates, where
the module reads the NE tiles from tokens and mirrors them), or the
language fallback of `subsym.symmetry` that regenerated the language of
every conjugate, or the primitivity test that stepped the occurrence
matrix one power at a time, or the per-matrix symmetry check that rebuilt every
theta^m from theta and checked closure with `SignedPerm.compose`, or the seed step read through `Pattern.get` and the
one-digit-per-level walk of `symbol_at` that the per-quadrant tables of
theta^c replaced, or the language loop that inflated whole patches where
`language._grow` now inflates their distinct windows, or the dihedral
action on Robinson edge signatures that the spelling tables replaced, or
the set-domain torus search over pairwise rule (1) tables that the
search over edge-class tables replaced.  Some are the earlier table
kernels themselves: the walk of `symbol_at` one theta^c digit per
`divmod`, the window image of `language._grow` as `apply` plus
`subpattern_keys`, the per-cell glyph lookup of the text render and
the seed pattern read one corner lookup per cell.
The differential tests compare the fast paths against these.
"""

import functools
import itertools
import math

from subsym import robinson as rob
from subsym import substitution
from subsym.errors import CapExceeded, ValidationError
from subsym.language import patch_language
from subsym.lattice import Rect, mat_inverse_unimodular, mat_vec, signed_perm_group, spow, vadd, vmul, zero
from subsym.points import _digit_tables
from subsym.robinson import E, N, S, W, RobinsonPatch, Violation
from subsym.substitution import (
    Pattern,
    RectSubstitution,
    Seed,
    apply,
    corner_fixing_power,
    _strides,
    corner_order,
    position_map,
)
from subsym.symmetry import (
    ALIGN_POWER_CAP,
    EXACT_YES,
    REFUTED_AT,
    SIZE_MISMATCH,
    VERIFIED_UP_TO,
    SymmetryCandidate,
    SymReport,
    _language_comparison,
    _require_primitive_bijective,
    _size_mismatch,
    compose_relabelings,
    conjugating_relabelings,
)


def apply_oracle(theta, p):
    """Output cell at m*s + k is theta(p_m)_k, written one cell at a time."""
    s = theta.size
    anchor = vmul(p.anchor, s)
    extent = vmul(p.extent, s)
    buf = bytearray(math.prod(extent))
    out = Pattern(anchor, extent, bytes(buf))
    for m in p.rect().cells():
        patch = theta.rule(p.get(m))
        corner = vmul(m, s)
        for k in Rect.box(s).cells():
            buf[out.index_of(vadd(corner, k))] = patch.get(k)
    return Pattern(anchor, extent, bytes(buf))


def subpattern_oracle(p, r):
    buf = bytearray(r.cell_count())
    out = Pattern(r.lo, r.extent(), bytes(buf))
    for k in r.cells():
        buf[out.index_of(k)] = p.get(k)
    return Pattern(r.lo, r.extent(), bytes(buf))


def subpattern_keys_oracle(p, shape):
    """Every shape-window, offsets in cell order, each read cell by cell."""
    if any(sh > e for sh, e in zip(shape, p.extent)):
        return []
    offsets = Rect.box(tuple(e - sh + 1 for sh, e in zip(shape, p.extent)))
    out = []
    for o in offsets.cells():
        lo = vadd(p.anchor, o)
        window = Rect(lo, tuple(x + sh - 1 for x, sh in zip(lo, shape)))
        out.append(bytes(p.get(k) for k in window.cells()))
    return out


def grow_oracle(theta, patches, shape, max_depth):
    """`language._grow` inflating every whole patch at every level and
    hashing every shape-window of it."""
    seen = set()
    cap = substitution.DEFAULT_CELL_CAP
    for depth in range(1, max_depth + 1):
        if any(p.rect().cell_count() * math.prod(theta.size) > cap for p in patches):
            raise CapExceeded("language generation exceeded the cell cap")
        patches = [apply(theta, p) for p in patches]
        before = len(seen)
        for p in patches:
            seen.update(p.subpattern_keys(shape))
        if depth > 1 and len(seen) == before and seen:
            return seen, depth, True
    return seen, depth, False


def is_primitive_oracle(theta):
    """`substitution.is_primitive` stepping the boolean occurrence matrix one
    power at a time, up to |A|^2, each step an O(|A|^3) product of lists."""
    n = len(theta.alphabet)
    occ = [[False] * n for _ in range(n)]
    for a in range(n):
        for c in set(theta.rule(a).cells):
            occ[a][c] = True
    reach = [row[:] for row in occ]
    for k in range(1, n * n + 1):
        if all(all(row) for row in reach):
            return substitution.PrimitivityReport(True, k, ())
        reach = [
            [any(reach[a][c] and occ[c][b] for c in range(n)) for b in range(n)]
            for a in range(n)
        ]
    missing = tuple(
        (a, b) for a in range(n) for b in range(n) if not reach[a][b]
    )
    return substitution.PrimitivityReport(False, None, missing)


def from_rows_oracle(anchor, rows):
    """Walk the nested lists once per cell; outermost index is the last coordinate."""
    dims = []
    probe = rows
    while isinstance(probe, (list, tuple)):
        dims.append(len(probe))
        probe = probe[0]
    extent = tuple(reversed(dims))
    buf = bytearray(math.prod(extent))
    pat = Pattern(anchor, extent, bytes(buf))
    for k in pat.rect().cells():
        node = rows
        for c in reversed(tuple(x - a for x, a in zip(k, anchor))):
            node = node[c]
        buf[pat.index_of(k)] = node
    return Pattern(anchor, extent, bytes(buf))


def seed_pattern_oracle(seed):
    ext = (2,) * seed.dim
    buf = bytearray(1 << seed.dim)
    p = Pattern((-1,) * seed.dim, ext, bytes(buf))
    for u, sym in zip(corner_order(seed.dim), seed.symbols):
        buf[p.index_of(u)] = sym
    return Pattern((-1,) * seed.dim, ext, bytes(buf))


def seed_pattern_by_corner_oracle(seed):
    """The seed's 2x...x2 pattern, one `Seed.corner` lookup per cell."""
    box = Rect((-1,) * seed.dim, (0,) * seed.dim)
    return Pattern(box.lo, box.extent(), bytes(map(seed.corner, box.cells())))


def window_image_oracle(theta, q, w, shape):
    """The shape-windows and the q-windows of theta(w): `apply` on the
    q-window, then `subpattern_keys` over the image."""
    image = apply(theta, Pattern(zero(len(q)), q, w))
    keys = set(image.subpattern_keys(shape))
    return keys, keys if q == shape else set(image.subpattern_keys(q))


_GLYPHS = (
    "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "!#$%&()*+,-./:;<=>?@[]^_`{|}~"
)


def glyph_oracle(symbol):
    """The text-render character of one symbol; `?` past the glyph list."""
    return _GLYPHS[symbol] if symbol < len(_GLYPHS) else "?"


def digit_walk_oracle(x, k):
    """`symbol_at` reading one base-s^c digit per `divmod`, through the same
    per-quadrant rules of theta^c, the levels joined by `zip_longest`."""
    bases, quadrants, _ = _digit_tables(x.theta)
    q, axes = 0, []
    for c, v, b, st in zip(k, x.shift, bases, _strides(bases)):
        c -= v
        q = q << 1 | (c >= 0)
        c = c if c >= 0 else ~c
        digits = []
        while c:
            c, r = divmod(c, b)
            digits.append(r * st)
        axes.append(digits)
    rules, sym = quadrants[q], x.seed.symbols[q]
    for level in reversed(list(itertools.zip_longest(*axes, fillvalue=0))):
        sym = rules[sym][sum(level)]
    return sym


def window_oracle(x, r):
    """symbol_at over an inclusive rect, one query per cell."""
    buf = bytearray(r.cell_count())
    out = Pattern(r.lo, r.extent(), bytes(buf))
    for k in r.cells():
        buf[out.index_of(k)] = x.symbol_at(k)
    return Pattern(r.lo, r.extent(), bytes(buf))


def seed_step_oracle(theta, seed):
    """One inflation step, each corner read through `Pattern.get` at its expansion corner."""
    syms = []
    for u in corner_order(theta.dim):
        expansion_corner = tuple(0 if ui == 0 else s - 1 for ui, s in zip(u, theta.size))
        syms.append(theta.rule(seed.corner(u)).get(expansion_corner))
    return Seed(theta.dim, tuple(syms))


@functools.lru_cache(maxsize=64)
def _quadrant_maps(theta, u):
    """The position map of theta read by each base-s digit in quadrant u,
    digits in cell order: a digit on a sign-flipped axis reads patch
    position s - 1 - digit."""
    s = theta.size
    return [
        position_map(theta, tuple(d if ui == 0 else si - 1 - d for d, ui, si in zip(digit, u, s)))
        for digit in Rect.box(s).cells()
    ]


def symbol_at_oracle(x, k, depth=None):
    """Symbol of point x at k by one position map of theta per base-s digit.

    The coordinate is routed to the quadrant of its seed cell and made a
    non-negative in-quadrant offset, whose digits pick the quadrant's
    position maps.  With `depth` the walk reads exactly that many digits
    (and asserts that they cover the offset), else it stops at the last
    non-zero one.
    """
    s = x.theta.size
    w = tuple(a - b for a, b in zip(k, x.shift))
    u = tuple(0 if c >= 0 else -1 for c in w)
    maps = _quadrant_maps(x.theta, u)
    rest = [c if ui == 0 else -1 - c for c, ui in zip(w, u)]
    walk = []
    while any(rest) if depth is None else len(walk) < depth:
        index, stride = 0, 1
        for i, b in enumerate(s):
            rest[i], r = divmod(rest[i], b)
            index += r * stride
            stride *= b
        walk.append(maps[index])
    assert not any(rest), "oracle depth too small"
    sym = x.seed.corner(u)
    for table in reversed(walk):
        sym = table[sym]
    return sym


def transform_oracle(theta, a, tau):
    """Cell-by-cell conjugation by (A, tau); None when A moves the size vector."""
    s = theta.size
    inv = a.inverse_perm()
    if tuple(s[inv[j]] for j in range(a.dim)) != s:
        return None

    def re_anchor(k):
        return tuple(
            k[inv[j]] if a.signs[inv[j]] == 0 else s[j] - 1 - k[inv[j]]
            for j in range(a.dim)
        )

    new_rules = [None] * len(theta.alphabet)
    for sym in range(len(theta.alphabet)):
        patch = theta.rule(sym)
        buf = bytearray(len(patch.cells))
        for k in Rect.box(s).cells():
            buf[patch.index_of(re_anchor(k))] = tau[patch.get(k)]
        new_rules[tau[sym]] = Pattern(patch.anchor, patch.extent, bytes(buf))
    return RectSubstitution(theta.alphabet, s, tuple(new_rules))


def language_comparison_oracle(theta, a, depth):
    """The language fallback by regeneration: the minimal cube languages of
    every conjugate (A, tau) theta, tau in lexicographic order, against
    theta's, each grown until it stabilizes (or the cell cap stops it)."""
    shapes = [(side,) * theta.dim for side in range(2, depth + 1)]
    max_depth = substitution.DEFAULT_CELL_CAP.bit_length()

    def language(theta, sh):
        lang = patch_language(theta, sh, mode="minimal", max_depth=max_depth)
        assert lang.stabilized
        return lang

    base = {sh: language(theta, sh) for sh in shapes}
    first_witness = None
    for tau in itertools.permutations(range(len(theta.alphabet))):
        cand = transform_oracle(theta, a, tau)
        agree = True
        for sh in shapes:
            lang_t = language(cand, sh)
            extra = lang_t.patterns - base[sh].patterns
            missing = base[sh].patterns - lang_t.patterns
            if extra or missing:
                agree = False
                if first_witness is None:
                    if extra:
                        first_witness = (Pattern((0,) * theta.dim, sh, min(extra)), "original")
                    else:
                        first_witness = (Pattern((0,) * theta.dim, sh, min(missing)), "transformed")
                break
        if agree:
            return SymmetryCandidate(a, VERIFIED_UP_TO, tau=tau, depth=depth)
    return SymmetryCandidate(
        a,
        REFUTED_AT,
        depth=depth,
        witness=first_witness[0],
        witness_missing_from=first_witness[1],
    )


# ---------------------------------------------------------------------------
# Extended symmetries: one matrix at a time
# ---------------------------------------------------------------------------


def power_oracle(theta, m):
    """theta^m, each rule inflated m - 1 times from theta's."""
    if m < 1:
        raise ValidationError("power requires m >= 1")
    per_rule = math.prod(x**m for x in theta.size)
    if per_rule * len(theta.alphabet) > substitution.DEFAULT_CELL_CAP:
        raise CapExceeded(f"theta^{m} needs {per_rule} cells per rule")
    if m == 1:
        return theta
    rules = []
    for a in range(len(theta.alphabet)):
        patch = theta.rule(a)
        for _ in range(m - 1):
            patch = apply(theta, patch)
        rules.append(patch)
    return RectSubstitution(theta.alphabet, spow(theta.size, m), tuple(rules))


def extended_symmetry_check_oracle(theta, a, depth=3):
    """Validate theta, then try every alignment power, each built from theta."""
    if depth < 2:
        raise ValidationError("depth must be >= 2: no shape below 2 is compared")
    _require_primitive_bijective(theta, "extended_symmetry_check")
    if _size_mismatch(theta.size, a) is not None:
        return SymmetryCandidate(a, SIZE_MISMATCH)
    top = min(ALIGN_POWER_CAP, max(2 * corner_fixing_power(theta), 2))
    for m in range(1, top + 1):
        try:
            theta_m = power_oracle(theta, m)
        except CapExceeded:
            break
        hits = conjugating_relabelings(theta_m, a)
        if hits:
            return SymmetryCandidate(a, EXACT_YES, tau=hits[0], taus=tuple(hits), align_power=m)
    return _language_comparison(theta, a, depth, {})


def closure_oracle(candidates):
    """Every product of two ExactYes pairs, composed with `SignedPerm.compose`."""
    by_a = {c.a: c for c in candidates}
    exact = [c for c in candidates if c.verdict == EXACT_YES]
    products = (
        (by_a[c1.a.compose(c2.a)], compose_relabelings(c1.tau, c2.tau))
        for c1 in exact
        for c2 in exact
    )
    return all(p.verdict == EXACT_YES and tau in p.taus for p, tau in products)


def sym_group_report_oracle(theta, depth=3):
    results = [
        extended_symmetry_check_oracle(theta, a, depth=depth)
        for a in signed_perm_group(theta.dim)
    ]
    exact = [c for c in results if c.verdict == EXACT_YES]
    closure_ok = closure_oracle(results)
    any_verified = any(c.verdict == VERIFIED_UP_TO for c in results)
    split = "yes" if (exact and closure_ok and not any_verified) else (
        "unknown" if any_verified else "no"
    )
    return SymReport(theta.dim, depth, tuple(results), len(exact), split, closure_ok)


# ---------------------------------------------------------------------------
# Robinson: one recursion per cell, over tiles picked by edge signature
# ---------------------------------------------------------------------------


def black_head_edges(t):
    """The edges carrying the head of a tile's black middle arrow."""
    return frozenset(e for e in range(4) if (2, rob.BLACK, "h") in t.sig[e])


def red_head_edges(t):
    return frozenset(e for e in range(4) if any(c == rob.RED and s == "h" for _, c, s in t.sig[e]))


def _find_tile(pred):
    hits = [t.tid for t in rob.TILES if pred(t)]
    assert len(hits) == 1, f"tile selection not unique: {hits}"
    return hits[0]


_EDGE_IDX = {"N": N, "E": E, "S": S, "W": W}


@functools.cache
def cross_pick(orient):
    """The cross whose red L-arrow heads cross the two edges named by `orient`."""
    want = frozenset(_EDGE_IDX[ch] for ch in orient)
    return _find_tile(lambda t: t.kind == rob.CROSS_KIND and red_head_edges(t) == want)


@functools.cache
def pointing_pick(kind, edge):
    """The tile of `kind` whose only black arrow head is on `edge`."""
    return _find_tile(lambda t: t.kind == kind and black_head_edges(t) == {edge})


@functools.cache
def arm_pick(orient, edge, crossing):
    """Arm cell tile: rail kinds (5/2) along the L-arrow directions, blank
    kinds (1/4) along the other two; crossing cells receive the flanking
    red channels on their side rails."""
    if edge not in {_EDGE_IDX[ch] for ch in orient}:
        return pointing_pick(4 if crossing else 1, edge)
    (q,) = (p for p, c, s in rob.TILES[cross_pick(orient)].sig[edge] if c == rob.RED and s == "h")
    kind = 2 if crossing else 5
    return _find_tile(
        lambda t: t.kind == kind and black_head_edges(t) == {edge} and (q, rob.RED, "h") in t.sig[edge]
    )


def supertile_cell(n, orient, x, y):
    """Tile id at local position (x, y) of the order-n supertile."""
    if n == 1:
        return cross_pick(orient)
    c = (1 << (n - 1)) - 1
    if x == c and y == c:
        return cross_pick(orient)
    if x == c or y == c:
        if x == c:
            edge, t = (N, y - c) if y > c else (S, c - y)
        else:
            edge, t = (E, x - c) if x > c else (W, c - x)
        return arm_pick(orient, edge, t == 1 << (n - 2))
    qx, qy = x > c, y > c
    sub = {(False, False): "NE", (True, False): "NW", (False, True): "SE", (True, True): "SW"}[(qx, qy)]
    return supertile_cell(n - 1, sub, x - (c + 1) if qx else x, y - (c + 1) if qy else y)


def supertile_oracle(n, orient):
    side = (1 << n) - 1
    rect = Rect.box((side, side))
    return RobinsonPatch(rect, tuple(supertile_cell(n, orient, x, y) for x, y in rect.cells()), (0, 0))


def infinite_supertile_cell(orient, dx, dy):
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


def four_quadrant_cell(x, y, uniform, dy_right=0):
    """One cell of the four-supertile point, optionally with the open right
    half-plane (x >= 1) shifted vertically by dy_right."""
    pointing = {e: pointing_pick(1, e) for e in range(4)}
    if x >= 1 and dy_right:
        return four_quadrant_cell(x, y - dy_right, uniform, 0)
    if x == 0 and y == 0:
        return pointing[N if uniform == "vertical" else E]
    if x == 0:
        if uniform == "vertical":
            return pointing[N]
        return pointing[S if y > 0 else N]
    if y == 0:
        if uniform == "horizontal":
            return pointing[E]
        return pointing[W if x > 0 else E]
    if x > 0 and y > 0:
        return infinite_supertile_cell("NE", x - 1, y - 1)
    if x < 0 and y > 0:
        return infinite_supertile_cell("NW", -1 - x, y - 1)
    if x > 0:
        return infinite_supertile_cell("SE", x - 1, -1 - y)
    return infinite_supertile_cell("SW", -1 - x, -1 - y)


def shifted_window_oracle(n, dy_right, arm_config="vertical"):
    rect = Rect((-n, -n), (n, n))
    tiles = tuple(four_quadrant_cell(x, y, arm_config, dy_right) for x, y in rect.cells())
    return RobinsonPatch(rect, tiles, (1, 1))


def subpatch_oracle(patch, r):
    return RobinsonPatch(r, tuple(patch.get(x, y) for x, y in r.cells()), patch.parity)


_SWAP_SENSE = {"h": "t", "t": "h"}


@functools.cache
def edge_fits(a, b, a_edge, b_edge):
    """Rule (1) read off the signatures: tile b fits across edge `a_edge` of
    tile a (b's edge `b_edge`) when b's marks there are a's with every head
    and tail swapped."""
    am, bm = rob.TILES[a].sig[a_edge], rob.TILES[b].sig[b_edge]
    return bm == {(p, c, _SWAP_SENSE[s]) for p, c, s in am}


def verify_patch_oracle(patch):
    """Every rule violation, cell by cell in cell order."""
    out = []
    (x0, y0), (x1, y1) = patch.rect.lo, patch.rect.hi
    p1, p2 = patch.parity
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            t = patch.get(x, y)
            if x < x1 and not edge_fits(t, patch.get(x + 1, y), E, W):
                out.append(Violation("mismatch", (x, y), "east neighbor"))
            if y < y1 and not edge_fits(t, patch.get(x, y + 1), N, S):
                out.append(Violation("mismatch", (x, y), "north neighbor"))
            on_coset = (x % 2, y % 2) == (p1, p2)
            is_cross = rob.TILES[t].kind == rob.CROSS_KIND
            if on_coset and not is_cross:
                out.append(Violation("coset_not_cross", (x, y), rob.TILES[t].token()))
            if is_cross and not on_coset:
                if (x % 2, y % 2) != ((p1 + 1) % 2, (p2 + 1) % 2):
                    out.append(Violation("stray_cross", (x, y), rob.TILES[t].token()))
    return out


def torus_search_oracle(w, h, parity=(0, 0)):
    """(status, decisions, assignment) of the set-domain torus search over
    pairwise rule (1) tables read off the signatures, with no time cap.

    It keeps the search's re-queue: after revising i, neighbour k is
    revised against i with the direction flag as seen from i.
    """
    tiles = range(len(rob.TILES))
    east_ok = [[edge_fits(a, b, E, W) for b in tiles] for a in tiles]
    north_ok = [[edge_fits(a, b, N, S) for b in tiles] for a in tiles]
    cells = [(x, y) for y in range(h) for x in range(w)]
    idx = {c: i for i, c in enumerate(cells)}
    crosses = {t for t in tiles if rob.TILES[t].kind == rob.CROSS_KIND}

    def allowed(x, y):
        coset = ((x - parity[0]) % 2, (y - parity[1]) % 2)
        if coset == (0, 0):
            return set(crosses)
        return set(tiles) if coset == (1, 1) else set(tiles) - crosses

    domains = [allowed(x, y) for x, y in cells]
    neighbors = [[] for _ in cells]
    for x, y in cells:
        i = idx[(x, y)]
        for j, table in ((idx[((x + 1) % w, y)], east_ok), (idx[(x, (y + 1) % h)], north_ok)):
            neighbors[i].append((j, table, True))
            neighbors[j].append((i, table, False))
    decisions = 0

    def revise(i, j, table, forward):
        di, dj = domains[i], domains[j]
        if forward:
            bad = {a for a in di if not any(table[a][b] for b in dj)}
        else:
            bad = {a for a in di if not any(table[b][a] for b in dj)}
        di -= bad
        return bool(bad)

    def ac3():
        queue = [(i, j, t, fwd) for i in range(len(cells)) for (j, t, fwd) in neighbors[i]]
        while queue:
            i, j, t, fwd = queue.pop()
            if revise(i, j, t, fwd):
                if not domains[i]:
                    return False
                queue.extend((k, i, tt, fw) for (k, tt, fw) in neighbors[i])
        return True

    def solve():
        nonlocal decisions
        open_cells = [i for i in range(len(cells)) if len(domains[i]) > 1]
        if not open_cells:
            return "sat"
        i = min(open_cells, key=lambda c: (len(domains[c]), c))
        for val in sorted(domains[i]):
            decisions += 1
            saved = [set(d) for d in domains]
            domains[i] = {val}
            if ac3() and solve() == "sat":
                return "sat"
            domains[:] = saved
        return "unsat"

    status = solve() if ac3() else "unsat"
    assignment = tuple(next(iter(d)) for d in domains) if status == "sat" else None
    return status, decisions, assignment


def _flip(marks):
    return frozenset((4 - p, c, s) for p, c, s in marks)


def sig_rot(sig):
    """The edge signature of the quarter-turned tile."""
    return (_flip(sig[E]), sig[S], _flip(sig[W]), sig[N])


def sig_mir(sig):
    """The edge signature of the mirrored tile."""
    return (_flip(sig[N]), sig[W], _flip(sig[S]), sig[E])


def dihedral_table_oracle(sig_map):
    """The tile table of a signature map: tile t goes to the tile whose signature is sig_map(t.sig)."""
    by_sig = {t.sig: t.tid for t in rob.TILES}
    return tuple(by_sig[sig_map(t.sig)] for t in rob.TILES)


def patch_symmetry_apply_oracle(g, patch):
    """out(A k) = table[in(k)], one inverse lookup per output cell."""
    inv = mat_inverse_unimodular(g.mat)
    lo, hi = patch.rect.lo, patch.rect.hi
    corners = [mat_vec(g.mat, c) for c in (lo, hi, (lo[0], hi[1]), (hi[0], lo[1]))]
    rect = Rect(
        (min(c[0] for c in corners), min(c[1] for c in corners)),
        (max(c[0] for c in corners), max(c[1] for c in corners)),
    )
    tiles = tuple(g.table[patch.get(*mat_vec(inv, k))] for k in rect.cells())
    parity = tuple(c % 2 for c in mat_vec(g.mat, patch.parity))
    return RobinsonPatch(rect, tiles, parity)
