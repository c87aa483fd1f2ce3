"""Cell-by-cell reference implementations of the materialization kernels.

Each function is the per-cell code that the row kernel in
`subsym.substitution` replaced (index_of arithmetic on a throwaway
Pattern), or that the block assembly in `subsym.robinson` replaced (one
recursion per cell, over tiles picked by edge-signature predicates, where
the module reads the NE tiles from tokens and mirrors them), or the
language fallback of `subsym.symmetry` that regenerated the language of
every conjugate, or the primitivity test that stepped the occurrence
matrix one power at a time, or the per-matrix symmetry check that rebuilt every
theta^m from theta and read its position maps one cell at a time, or the
closure and subgroup checks that composed one pair at a time, or the seed step read through `Pattern.get` and the
one-digit-per-level walk of `symbol_at` that the per-quadrant tables of
theta^c replaced, or the language loop that inflated whole patches, or read theta^J of every
2x...x2 block of every level, where `language._grow` now reads theta^J of
each new block once (and the complete language as the closure of its
windows under theta), or the dihedral
action on Robinson edge signatures that the spelling tables replaced, or
the set-domain torus search over pairwise rule (1) tables that the
search over edge-class tables replaced.  Some are the earlier table
kernels themselves: the walk of `symbol_at` one theta^c digit per
`divmod`, the window gather of `language._grow` as `apply` plus
`subpattern_keys`, the per-cell glyph lookup of the text render and
the seed pattern read one corner lookup per cell.  The position maps
read through `Pattern.get` one symbol at a time, where
`substitution._columns` now holds every position map, and the
signed-permutation determinant by cycle parity, where `SignedPerm.det`
now reads `lattice.mat_det`.  The half-space fracture pair is the first
pair that a double loop over every fixed seed finds, where the module now
takes x = 0 on every corner and y = 1 on the lower ones, the same pair
when every corner map is the identity.  The seed cycles
come from a walk over every seed with its transients, and the order of
a permutation from a walk of its own, where `substitution` steps only the
seeds on cycles and reads both from `_cycle_lengths`.  The straddling
block of the non-axis refuter is the first one a scan of the whole grid
range finds, where `symmetry` solves for it on one axis.  The alignment
search composes the column pairs of theta^m power by power up to a
horizon, where `symmetry._align` steps (symbol, column) pairs until they
repeat, and solves each power's pairs by propagating tau(0) one pair at a
time, where `symmetry._close` steps words of theta's pairs.
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
from subsym.points import AddressablePoint, HalfSpacePair, _digit_tables, _table_power
from subsym.robinson import E, N, S, W, RobinsonPatch, Violation
from subsym.substitution import (
    Pattern,
    RectSubstitution,
    Seed,
    apply,
    _strides,
    corner_order,
)
from subsym.symmetry import (
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


def grow_oracle(theta, patches, shape, cap=None):
    """`language._grow` inflating every whole patch at every level and
    hashing every shape-window of it, until a level adds none; a patch of
    theta^k past `cap` cells (the cell cap by default) is refused."""
    seen = set()
    cap = substitution.DEFAULT_CELL_CAP if cap is None else cap
    for depth in itertools.count(1):
        if any(p.rect().cell_count() * math.prod(theta.size) > cap for p in patches):
            raise CapExceeded("language generation exceeded the cell cap")
        patches = [apply(theta, p) for p in patches]
        before = len(seen)
        for p in patches:
            seen.update(p.subpattern_keys(shape))
        if depth > 1 and len(seen) == before and seen:
            return seen, depth


def block_grow_oracle(theta, patches, shape):
    """`language._grow` keeping every block of every level, each read by
    `apply`: depths 1..J hash the windows of theta^depth of each root, and
    each later depth all the 2x...x2 blocks of theta of the previous
    depth's blocks (of the roots at J + 1) and the windows of theta^J of
    each, until a depth adds none."""
    origin, two = (0,) * theta.dim, (2,) * theta.dim
    top = next(j for j in itertools.count(1) if all(s**j + 1 >= n for s, n in zip(theta.size, shape)))
    seen, level = set(), patches
    for depth in itertools.count(1):
        before = len(seen)
        if depth <= top:
            images = [apply(_power_once(theta, depth), p) for p in patches]
        else:
            blocks = {k for p in level for k in apply(theta, p).subpattern_keys(two)}
            level = [Pattern(origin, two, b) for b in blocks]
            images = [apply(_power_once(theta, top), p) for p in level]
        for p in images:
            seen.update(p.subpattern_keys(shape))
        if depth > 1 and len(seen) == before and seen:
            return seen, depth


def window_closure_oracle(theta, symbol, shape):
    """The least set of shape-windows that holds those of theta(symbol) and,
    with each window w, every shape-window of `apply(theta, w)`; for shapes
    no smaller than the growth's q-windows (2x...x2 blocks among them) that
    is every window of every theta^k(symbol), the complete language."""
    origin = (0,) * theta.dim
    todo = set(apply(theta, Pattern.single(origin, symbol)).subpattern_keys(shape))
    found = set()
    while todo:
        w = todo.pop()
        found.add(w)
        todo.update(set(apply(theta, Pattern(origin, shape, w)).subpattern_keys(shape)) - found)
    return found


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


def render_text_oracle(p):
    """The text render of a pattern of 2 or more dimensions, one cell at a
    time: each slice of the outer axes under a `[slice ...]` label, its
    rows top row first."""
    r = p.rect()
    blocks = []
    for outer in Rect(r.lo[2:], r.hi[2:]).cells():
        rows = [
            "".join(glyph_oracle(p.get((x, y) + outer)) for x in range(r.lo[0], r.hi[0] + 1))
            for y in range(r.hi[1], r.lo[1] - 1, -1)
        ]
        label = [f"[slice {','.join(map(str, outer))}]"] if outer else []
        blocks.append("\n".join(label + rows))
    return "\n\n".join(blocks) + "\n"


def digit_walk_oracle(x, k):
    """`symbol_at` reading one base-s^c digit per `divmod`, through the same
    per-quadrant rules of theta^c, the levels joined by `zip_longest`, from
    the corner symbol stepped back c levels per digit by `cycle_back`."""
    power = _table_power(x.theta)
    bases, quadrants = _digit_tables(x.theta, power)[:2]
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
    levels = list(itertools.zip_longest(*axes, fillvalue=0))
    u = corner_order(x.dim)[q]
    rules, sym = quadrants[q], cycle_back(x.theta, u, x.seed.corner(u), power * len(levels))
    for level in reversed(levels):
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


def position_map_oracle(theta, k):
    """The map a -> theta(a)_k, read through `Pattern.get` one symbol at a time."""
    return tuple(theta.rule(a).get(k) for a in range(len(theta.alphabet)))


def fixed_seeds_oracle(theta):
    """`fixed_seeds` by stepping every seed: from each seed not yet seen, walk
    until the trail meets itself (a new cycle, from the seed where it closed)
    or an earlier walk."""
    n, corners = len(theta.alphabet), 1 << theta.dim
    stepper = substitution._seed_stepper(theta)
    step = {syms: stepper(syms) for syms in itertools.product(range(n), repeat=corners)}
    cycles = []
    seen = set()
    for start in step:
        if start in seen:
            continue
        trail = []
        trail_set = set()
        node = start
        while node not in trail_set and node not in seen:
            trail.append(node)
            trail_set.add(node)
            node = step[node]
        if node in trail_set:
            i = trail.index(node)
            cycles.append(tuple(Seed(theta.dim, syms) for syms in trail[i:]))
        seen.update(trail)
    return substitution.SeedCycles(tuple(cycles))


def perm_order_oracle(table):
    """The order of a permutation: the lcm of its cycle lengths, one walk per cycle."""
    order = 1
    seen = [False] * len(table)
    for i in range(len(table)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = table[j]
            length += 1
        order = math.lcm(order, length)
    return order


class SearchFailure(Exception):
    """An oracle's witness search came up empty."""


def half_space_fracture_pair_oracle(theta, axis):
    """`half_space_fracture_pair` for a valid axis and a bijective theta: the
    first pair of fixed seeds, scanned in pairs, that agree on every seed cell
    with coordinate 0 on `axis` and differ on every one with -1 there."""
    fixed = fixed_seeds_oracle(theta).fixed
    order = corner_order(theta.dim)
    upper = [i for i, u in enumerate(order) if u[axis] == 0]
    lower = [i for i, u in enumerate(order) if u[axis] == -1]
    for sx in fixed:
        for sy in fixed:
            if all(sx.symbols[i] == sy.symbols[i] for i in upper) and all(
                sx.symbols[i] != sy.symbols[i] for i in lower
            ):
                return HalfSpacePair(
                    AddressablePoint(theta, sx), AddressablePoint(theta, sy), axis
                )
    raise SearchFailure("faithfulness witness not found at seed level")


@functools.lru_cache(maxsize=64)
def quadrant_maps(theta, u):
    """The position map of theta read by each base-s digit in quadrant u,
    digits in cell order: a digit on a sign-flipped axis reads patch
    position s - 1 - digit."""
    s = theta.size
    return [
        position_map_oracle(theta, tuple(d if ui == 0 else si - 1 - d for d, ui, si in zip(digit, u, s)))
        for digit in Rect.box(s).cells()
    ]


def cycle_back(theta, u, sym, steps):
    """sym stepped `steps` levels back on the cycle of seed corner u's map P,
    one predecessor at a time: the last symbol before sym on the walk
    P(sym), P(P(sym)), ...; a symbol off every cycle fails the assert."""
    table = position_map_oracle(theta, tuple(0 if ui == 0 else si - 1 for ui, si in zip(u, theta.size)))
    for _ in range(steps):
        prev, b = sym, table[sym]
        for _ in table:
            if b == sym:
                break
            prev, b = b, table[b]
        assert b == sym, "symbol off its corner map's cycles"
        sym = prev
    return sym


def quadrant_walk(x, k, depth=None):
    """(u, walk): the seed corner u of k's quadrant, and the position maps
    of theta that k's base-s digits pick in it, lowest digit first.

    The coordinate is routed to the quadrant of its seed cell and made a
    non-negative in-quadrant offset, whose digits pick the quadrant's
    position maps.  With `depth` the walk reads exactly that many digits
    (and asserts that they cover the offset), else it stops at the last
    non-zero one.  The walk reads the quadrant `len(walk)` levels below the
    top, so `symbol_at_oracle` runs it from the corner symbol stepped back
    that far by `cycle_back`; for a fixed seed that is the corner symbol.
    """
    s = x.theta.size
    w = tuple(a - b for a, b in zip(k, x.shift))
    u = tuple(0 if c >= 0 else -1 for c in w)
    maps = quadrant_maps(x.theta, u)
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
    return u, walk


def run_walk(walk, sym):
    """The symbol that a `quadrant_walk`'s maps, highest digit first, make of sym."""
    for table in reversed(walk):
        sym = table[sym]
    return sym


def symbol_at_oracle(x, k, depth=None):
    """Symbol of point x at k by one position map of theta per base-s digit,
    from the corner symbol stepped back one level per digit."""
    u, walk = quadrant_walk(x, k, depth)
    return run_walk(walk, cycle_back(x.theta, u, x.seed.corner(u), len(walk)))


def signed_perm_det_oracle(a):
    """det of a signed permutation by parity: -1 per even-length cycle of
    the permutation and -1 per flipped sign."""
    sign, seen = 1, [False] * a.dim
    for i in range(a.dim):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = a.perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return -sign if sum(a.signs) % 2 else sign


def re_anchor(s, a, k):
    """The image A k of cell k of the box [0, s - 1], moved back into the box."""
    inv = a.inverse_perm()
    return tuple(
        k[inv[j]] if a.signs[inv[j]] == 0 else s[j] - 1 - k[inv[j]]
        for j in range(a.dim)
    )


def transform_oracle(theta, a, tau):
    """Cell-by-cell conjugation by (A, tau); None when A moves the size vector."""
    s = theta.size
    inv = a.inverse_perm()
    if tuple(s[inv[j]] for j in range(a.dim)) != s:
        return None
    new_rules = [None] * len(theta.alphabet)
    for sym in range(len(theta.alphabet)):
        patch = theta.rule(sym)
        buf = bytearray(len(patch.cells))
        for k in Rect.box(s).cells():
            buf[patch.index_of(re_anchor(s, a, k))] = tau[patch.get(k)]
        new_rules[tau[sym]] = Pattern(patch.anchor, patch.extent, bytes(buf))
    return RectSubstitution(theta.alphabet, s, tuple(new_rules))


def language_comparison_oracle(theta, a, depth):
    """The language fallback by regeneration: the minimal cube languages of
    every conjugate (A, tau) theta, tau in lexicographic order, against
    theta's, each grown complete (unless the cell cap stops it)."""
    shapes = [(side,) * theta.dim for side in range(2, depth + 1)]
    base = {sh: patch_language(theta, sh, mode="minimal") for sh in shapes}
    first_witness = None
    for tau in itertools.permutations(range(len(theta.alphabet))):
        cand = transform_oracle(theta, a, tau)
        agree = True
        for sh in shapes:
            lang_t = patch_language(cand, sh, mode="minimal")
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


@functools.lru_cache(maxsize=256)
def position_pairs_oracle(theta_m, a):
    """The distinct (P_K, P_r(K)) of a materialized theta^m, one cell at a
    time, with r(K) the re-anchored image of K under A."""
    s = theta_m.size
    cells = list(Rect.box(s).cells())
    columns = dict(zip(cells, zip(*(r.cells for r in theta_m.rules))))  # K -> P_K
    return frozenset((columns[k], columns[re_anchor(s, a, k)]) for k in cells)


_power_once = functools.lru_cache(maxsize=32)(power_oracle)

#: The alignment powers the oracles try before they give up undecided.
ALIGN_POWER_HORIZON = 24


def composed_powers_oracle(distinct, n, cap=None):
    """The pair sets of theta, theta^2, ..., from theta's distinct column pairs.

    theta^(m+1) has P_(Ms+k) = P_k . P_M and r acts digit-wise, so its pairs
    are the (p . x, q . y) for (x, y) of theta^m and (p, q) of theta.  Every
    set holds n-byte columns; only theta's step pairs are widened to the
    256-byte tables that `translate` reads.  A set is a function of the one
    before: once one repeats, no later power can align.  The sequence also
    ends at ALIGN_POWER_HORIZON, and before a bound |pairs| |step| <=
    prod(s^(m+1)) passes `cap` (the cell cap by default) at n bytes a pair.
    """
    cap = substitution.DEFAULT_CELL_CAP if cap is None else cap
    table = substitution._relabel_table
    step = frozenset((table(p), table(q)) for p, q in distinct)
    pairs, seen = distinct, set()
    for _ in range(ALIGN_POWER_HORIZON):
        yield pairs
        seen.add(pairs)
        if len(pairs) * len(step) * n > cap:
            return
        pairs = frozenset((x.translate(p), y.translate(q)) for x, y in pairs for p, q in step)
        if pairs in seen:
            return


def propagate_oracle(pairs, n):
    """`symmetry.conjugating_relabelings` on distinct pairs (P, Q) of n-entry
    columns, propagating each tau(0) = c through the pairs one symbol at a
    time."""
    rules = list(zip(*(p for p, _ in pairs)))  # rules[x][i] = P_i(x)
    moved = list(zip(*(q for _, q in pairs)))  # moved[z][i] = Q_i(z)
    solutions = (_propagate(rules, moved, c) for c in range(n))
    return [tau for tau in solutions if tau is not None]


def _propagate(rules, moved, c):
    """The tau with tau(0) = c forced by tau(P_k(x)) = P_r(k)(tau(x)), or None."""
    n = len(rules)
    tau = [-1] * n
    tau[0] = c
    todo = [0]
    while todo:
        x = todo.pop()
        for y, v in zip(rules[x], moved[tau[x]]):
            if tau[y] < 0:
                tau[y] = v
                todo.append(y)
            elif tau[y] != v:
                return None
    if -1 in tau or len(set(tau)) < n:
        return None
    return tuple(tau)


def column_pair_search_oracle(distinct, n, cap=None):
    """`symmetry._align` as `propagate_oracle` on each set of `composed_powers_oracle`:
    (the first power with hits and those hits, or None; decided), decided
    being False when the sets ended at the horizon or the size bound, not
    at a repeat or a hit."""
    cap = substitution.DEFAULT_CELL_CAP if cap is None else cap
    for m, pairs in enumerate(composed_powers_oracle(distinct, n, cap), 1):
        if hits := propagate_oracle(pairs, n):
            return (m, tuple(hits)), True
    return None, m < ALIGN_POWER_HORIZON and len(pairs) * len(distinct) * n <= cap


def extended_symmetry_check_oracle(theta, a, depth=3):
    """Validate theta, then try every alignment power, each built from theta,
    until its position-map pairs repeat an earlier power's, a power is over
    the cell cap, the pair bound passes it or ALIGN_POWER_HORIZON is reached."""
    if depth < 2:
        raise ValidationError("depth must be >= 2: no shape below 2 is compared")
    _require_primitive_bijective(theta, "extended_symmetry_check")
    if _size_mismatch(theta.size, a) is not None:
        return SymmetryCandidate(a, SIZE_MISMATCH)
    n, seen = len(theta.alphabet), []
    step = position_pairs_oracle(theta, a)
    for m in range(1, ALIGN_POWER_HORIZON + 1):
        try:
            theta_m = _power_once(theta, m)
        except CapExceeded:
            break
        pairs = position_pairs_oracle(theta_m, a)
        if pairs in seen:
            break
        hits = conjugating_relabelings(theta_m, a)
        if hits:
            return SymmetryCandidate(a, EXACT_YES, tau=hits[0], taus=tuple(hits), align_power=m)
        seen.append(pairs)
        if len(pairs) * len(step) * n > substitution.DEFAULT_CELL_CAP:
            break
    return _language_comparison(theta, a, depth, {})


def closure_oracle(candidates):
    """Every product of two ExactYes pairs, one pair at a time: the key of
    A1 A2 is A2's key translated by A1's table, and tau1 tau2 is tau2
    translated by tau1's; the product key must be present and its tau set
    must hold tau1 tau2."""
    exact = [c for c in candidates if c.verdict == EXACT_YES]
    keys = [c.a.key() for c in exact]
    taus = {key: {bytes(t) for t in c.taus} for key, c in zip(keys, exact)}
    rights = [(key, bytes(c.tau)) for key, c in zip(keys, exact)]
    for c1 in exact:
        a_table, tau_table = c1.a.table(), substitution._relabel_table(c1.tau)
        for a_key, tau in rights:
            product = taus.get(a_key.translate(a_table))
            if product is None or tau.translate(tau_table) not in product:
                return False
    return True


def assert_subgroup_oracle(perms, n):
    """`symmetry._assert_subgroup` composing every pair with `compose_relabelings`."""
    group = set(perms)
    assert tuple(range(n)) in group, "relabeling set lost the identity"
    for p in perms:
        for q in perms:
            assert compose_relabelings(p, q) in group, (
                "relabeling set not closed under composition"
            )


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


def refuter_block_oracle(theta, v, threshold, window):
    """(level, block) of `non_axis_fracture_refuter` for a valid non-axis v:
    the first block of the origin-anchored level-m grid, scanned over a range
    that covers the window, that straddles the band and lies inside the
    window, at the first level m where a straddle is guaranteed; block is
    None when no such block lies inside the window."""
    win = Rect((-window,) * theta.dim, (window,) * theta.dim)
    for m in range(1, 40):
        side = spow(theta.size, m)
        span = sum(abs(x) * (L - 1) for x, L in zip(v, side))
        grid_gcd = math.gcd(*(L * abs(x) for L, x in zip(side, v) if x != 0))
        if span - 2 * threshold + 1 < grid_gcd:
            continue
        m_minus = sum(min(0, x * (L - 1)) for x, L in zip(v, side))
        m_plus = sum(max(0, x * (L - 1)) for x, L in zip(v, side))
        lo_t, hi_t = threshold - m_plus, -threshold - m_minus
        span_z = [range(-(window // L) - 1, window // L + 2) for L in side]
        for z in itertools.product(*span_z):
            t = tuple(zi * L for zi, L in zip(z, side))
            if not lo_t <= sum(x * y for x, y in zip(t, v)) <= hi_t:
                continue
            block = Rect(t, tuple(x + L - 1 for x, L in zip(t, side)))
            if win.contains_rect(block):
                return m, block
        return m, None
    return None


def straddle_counts_oracle(block, v, threshold):
    """(upper_cell, lower_cell, upper_count, lower_count) of a straddling
    block, read one cell at a time: the first cell, in cell order, and the
    number of cells with <k, v> >= threshold and with <k, v> <= -threshold."""
    first, count = {}, [0, 0, 0]
    for k in block.cells():
        half = ((dot := sum(x * y for x, y in zip(k, v))) >= threshold) - (dot <= -threshold)
        first.setdefault(half, k)
        count[half] += 1
    return first.get(1), first.get(-1), count[1], count[-1]


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
