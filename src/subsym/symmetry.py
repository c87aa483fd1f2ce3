"""Automorphisms and extended symmetries of substitutive subshifts.

`aut` lists the relabelings that commute with theta itself; each induces
a radius-0 automorphism.  They need not be all the relabeling
automorphisms up to shifts: one that commutes only with a power theta^m
maps X_theta onto itself too.  The rule 0->210, 1->102, 2->021 has two
such 3-cycles (they commute with theta^2), and `aut` prints order 1 for
it.  Extended-symmetry candidates range over the signed permutations of
the axes; the checker first looks for an exact rule-table
equality at some alignment power and only then falls back to bounded
language comparison, whose positive outcome is reported as evidence, not
proof.  Both read theta's position maps P_k (`substitution._columns`),
paired as (P_k, P_r(k)) by `_column_pairs`.  A conjugating relabeling of
a primitive substitution is fixed by the image of symbol 0, so `_close`
tries n candidates, not n!, for `aut` and every power; `_align` narrows
the higher powers' candidates on (symbol, column) pairs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapExceeded, ScopeError, ValidationError
from .lattice import Rect, SignedPerm, Vec, signed_perm_group, spow
from .points import HalfSpacePair, _require_dim, half_space_fracture_pair
from . import substitution
from .language import _grow
from .substitution import (
    Pattern,
    RectSubstitution,
    _columns,
    _moved,
    _perm_order,
    _relabel_table,
    is_bijective,
    is_primitive,
)

Relabeling = tuple[int, ...]  # table: symbol -> symbol


def _require_primitive_bijective(theta: RectSubstitution, what: str) -> None:
    if not is_primitive(theta).primitive:
        raise ScopeError(f"{what} requires a primitive substitution")
    if not is_bijective(theta):
        raise ScopeError(f"{what} requires a bijective substitution")


def relabel_automorphisms(theta: RectSubstitution) -> list[Relabeling]:
    """All symbol permutations tau with tau(theta(a)_k) = theta(tau(a))_k.

    This is `conjugating_relabelings` at A = I: each tau is fixed by tau(0)
    and found by propagating the commutation through every position.
    """
    _require_primitive_bijective(theta, "relabel_automorphisms")
    return _relabel_group(theta)


def _relabel_group(theta: RectSubstitution) -> list[Relabeling]:
    """`relabel_automorphisms` for a theta already checked primitive and bijective."""
    out = conjugating_relabelings(theta, SignedPerm.identity(theta.dim))
    _assert_subgroup(out, len(theta.alphabet))
    return out


def _assert_subgroup(perms: list[Relabeling], n: int) -> None:
    # a nonempty finite set of permutations closed under composition is a group;
    # p after every q is every q translated through p's table
    rows = list(map(bytes, perms))
    group = set(rows)
    assert bytes(range(n)) in group, "relabeling set lost the identity"
    for p in perms:
        assert group.issuperset(map(bytes.translate, rows, itertools.repeat(_relabel_table(p)))), (
            "relabeling set not closed under composition"
        )


def compose_relabelings(p: Relabeling, q: Relabeling) -> Relabeling:
    """p after q."""
    return tuple(p[q[i]] for i in range(len(p)))


@dataclass(frozen=True)
class AutDescription:
    """The shifts and the relabelings that commute with theta itself, for
    primitive bijective input; a relabeling that commutes only with a power
    of theta is an automorphism too, and is not listed."""

    dim: int
    relabel_group: tuple[Relabeling, ...]
    structure: str

    @property
    def relabel_order(self) -> int:
        return len(self.relabel_group)


def aut_group_description(theta: RectSubstitution) -> AutDescription:
    _require_primitive_bijective(theta, "aut_group_description")
    group = tuple(_relabel_group(theta))
    n = len(theta.alphabet)
    if n == 2:
        assert len(group) in (1, 2), "binary relabel group must be trivial or C2"
    order = len(group)
    if order == 1:
        tail = "1"
    elif _is_cyclic(group):
        tail = f"C{order}"
    else:
        tail = f"R (order {order})"
    return AutDescription(theta.dim, group, f"Z^{theta.dim} x {tail}")


def _is_cyclic(group: tuple[Relabeling, ...]) -> bool:
    return any(_perm_order(g) == len(group) for g in group)


# ---------------------------------------------------------------------------
# Extended symmetries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeMismatch:
    """The axis permutation does not fix the size vector; no alignment power helps."""

    size: Vec
    permuted: Vec


def _size_mismatch(size: Vec, a: SignedPerm) -> SizeMismatch | None:
    if a.dim != len(size):
        raise ValidationError("matrix dimension mismatch")
    permuted = tuple(size[i] for i in a.inverse_perm())
    return SizeMismatch(size, permuted) if permuted != size else None


@functools.lru_cache(maxsize=1024)
def _re_anchoring(size: Vec, a: SignedPerm) -> tuple[int, ...] | None:
    """r as a flat index, r[k] being the cell A k re-anchored into the box
    (`_moved(size, A^-1)`), or None if A moves the size vector."""
    return None if _size_mismatch(size, a) else tuple(_moved(size, a.inverse()))


def _column_pairs(columns: list[bytes], size: Vec, a: SignedPerm) -> frozenset | None:
    """The distinct (P_k, P_r(k)) of the `_columns` of theta, r being the
    re-anchoring of A, or None if A moves the size vector."""
    r = _re_anchoring(size, a)
    return None if r is None else frozenset(zip(columns, map(columns.__getitem__, r)))


def transformed_substitution(
    theta: RectSubstitution, a: SignedPerm, tau: Relabeling
) -> RectSubstitution | SizeMismatch:
    """Conjugate the rule table by the rigid map (A, tau).

    The patch of each symbol is moved through A by `_moved`, re-anchored
    to [0, s-1], and relabeled; the rule for tau(sym) is the transform of
    the rule for sym.  Returns SizeMismatch if A's permutation part moves
    the size vector.
    """
    mismatch = _size_mismatch(theta.size, a)
    if mismatch is not None:
        return mismatch
    idx, table = _moved(theta.size, a), _relabel_table(tau)
    new_rules: list[Pattern | None] = [None] * len(theta.alphabet)
    for sym, patch in enumerate(theta.rules):
        cells = bytes(map(patch.cells.__getitem__, idx)).translate(table)
        new_rules[tau[sym]] = Pattern(patch.anchor, patch.extent, cells)
    return RectSubstitution(theta.alphabet, theta.size, tuple(new_rules))  # type: ignore[arg-type]


def conjugating_relabelings(theta: RectSubstitution, a: SignedPerm) -> list[Relabeling]:
    """Every tau with transformed_substitution(theta, a, tau) == theta, by increasing tau(0).

    With P_k(x) = theta(x)_k the condition is tau . P_k = P_r(k) . tau for
    every cell k, r being the re-anchoring of A.  Setting tau(0) = c and
    closing the commutation through every P_k (`_close` at m = 1) fixes tau
    on each symbol reachable from 0, which for primitive theta is every
    symbol (the tau(0) argument for constant-length substitutions of Coven,
    Dekking and Keane).  c is rejected on a conflict, an unreached symbol or
    a non-injective tau, so the n candidates cost O(n^2 |S|) in all.
    Distinct solutions differ at 0, hence they come in lexicographic order.
    """
    pairs = _column_pairs(_columns(theta), theta.size, a)
    return [] if pairs is None else _solve(pairs, 1, range(len(theta.alphabet)))


def _solve(distinct: frozenset, m: int, cs: Iterable[int]) -> list[Relabeling]:
    """The taus conjugating theta^m, over theta's distinct pairs (P, Q) of
    n-byte columns, that `_close` finds from each tau(0) in cs."""
    rules = list(zip(*(p for p, _ in distinct)))  # rules[x][i] = P_i(x)
    moved = list(zip(*(q for _, q in distinct)))  # moved[z][i] = Q_i(z)
    return [tau for c in cs if (tau := _close(rules, moved, m, c)) is not None]


def _close(rules: list[tuple], moved: list[tuple], m: int, c: int) -> Relabeling | None:
    """The tau with tau(0) = c forced by tau . P_w = Q_w . tau for each word
    w of m of theta's pairs (P, Q), or None: each newly assigned (x, tau(x))
    is stepped m times through the pairs, first by a row zip and then on
    sets of symbol pairs, so theta^m's pairs are never built."""
    n = len(rules)
    tau = [-1] * n
    tau[0] = c
    todo = [0]
    while todo:
        x = todo.pop()
        images = zip(rules[x], moved[tau[x]])
        if m > 1:  # the test spares power 1, which `aut` and `sym` always run, an empty loop
            for _ in range(1, m):
                images = {yv for y, v in images for yv in zip(rules[y], moved[v])}
        for y, v in images:
            if tau[y] < 0:
                tau[y] = v
                todo.append(y)
            elif tau[y] != v:
                return None
    if -1 in tau or len(set(tau)) < n:
        return None
    return tuple(tau)


EXACT_YES = "ExactYes"
VERIFIED_UP_TO = "VerifiedUpTo"
REFUTED_AT = "RefutedAt"
SIZE_MISMATCH = "SizeMismatch"

@dataclass(frozen=True)
class SymmetryCandidate:
    a: SignedPerm
    verdict: str
    tau: Relabeling | None = None
    taus: tuple[Relabeling, ...] = ()
    align_power: int | None = None
    depth: int | None = None
    witness: Pattern | None = None
    witness_missing_from: str | None = None  # "original" or "transformed"

    def describe(self) -> str:
        if self.verdict == EXACT_YES:
            return f"{EXACT_YES},tau={_tau_str(self.tau)}"
        if self.verdict == VERIFIED_UP_TO:
            return f"{VERIFIED_UP_TO}({self.depth}),tau={_tau_str(self.tau)}"
        if self.verdict == REFUTED_AT:
            return f"{REFUTED_AT}({self.depth})"
        return SIZE_MISMATCH


def _tau_str(tau: Relabeling | None) -> str:
    return "" if tau is None else ",".join(str(t) for t in tau)


def extended_symmetry_check(
    theta: RectSubstitution, a: SignedPerm, depth: int = 3
) -> SymmetryCandidate:
    """Decide how the rigid axis map A interacts with the subshift.

    Fast path: if some relabeling makes the transformed rule table of some
    power theta^m equal theta^m exactly, the rigid map is a genuine
    extended symmetry (ExactYes); `_align` decides the powers up to the cap.
    Otherwise comparing the complete cube languages of sides up to `depth`
    either finds a witness pattern on one side only (RefutedAt) or reports
    agreement (VerifiedUpTo - explicitly not a proof).  `depth` must be at
    least 2, the smallest shape compared.
    """
    return _check_matrices(theta, [a], depth)[0]


def _check_matrices(
    theta: RectSubstitution, matrices: list[SignedPerm], depth: int
) -> list[SymmetryCandidate]:
    """`extended_symmetry_check` for each matrix, with the scope checks done once.

    `_align` reads nothing of A but its set of distinct column pairs
    (P_k, P_r(k)), n and the cell cap, so matrices with the same set share
    one search, held in `searches` for this report only.  The language
    fallback moves cube patterns through A itself, so it stays per matrix.
    """
    if depth < 2:
        raise ValidationError("depth must be >= 2: no shape below 2 is compared")
    _require_primitive_bijective(theta, "extended_symmetry_check")
    n, columns = len(theta.alphabet), _columns(theta)
    searches: dict[frozenset, tuple[int, tuple[Relabeling, ...]] | None] = {}
    languages: dict[int, set[bytes]] = {}  # side -> complete cube language
    found = []
    for a in matrices:
        distinct = _column_pairs(columns, theta.size, a)
        if distinct is None:
            found.append(SymmetryCandidate(a, SIZE_MISMATCH))
            continue
        if distinct not in searches:
            searches[distinct] = _align(distinct, n)
        if (hit := searches[distinct]) is not None:
            m, hits = hit
            found.append(SymmetryCandidate(a, EXACT_YES, hits[0], hits, m))
        else:
            found.append(_language_comparison(theta, a, depth, languages))
    return found


def _align(distinct: frozenset, n: int) -> tuple[int, tuple[Relabeling, ...]] | None:
    """The first power m and every tau conjugating theta^m, or None.

    m = 1 is `_close` from every tau(0).  R_j, the (P_w(0), P_r(w)) for
    |w| = j, is stepped from R_(j-1) through theta's pairs (P, Q); `_images`
    reads the R_j with m | j.  From a repeat R_j0 = R_(j0+p) on, m >= j0
    and m + p read the same sets, so m < j0 + p decide every power.  If the
    sets, at n + 1 bytes an entry, reach the cap first, `_close` decides the
    m below them from the tau(0) that `_images` leaves alive.
    """
    if hits := _solve(distinct, 1, range(n)):
        return 1, tuple(hits)
    step = [(p, _relabel_table(q)) for p, q in distinct]
    sets = [frozenset([(0, bytes(range(n)))])]
    index, kept, j0 = {sets[0]: 0}, n + 1, None
    while j0 is None and kept + len(sets[-1]) * len(step) * (n + 1) <= substitution.DEFAULT_CELL_CAP:
        nxt = frozenset((p[y], col.translate(q)) for y, col in sets[-1] for p, q in step)
        if (j := index.setdefault(nxt, len(sets))) < len(sets):
            j0, period = j, len(sets) - j
        else:
            sets.append(nxt)
            kept += len(nxt) * (n + 1)
    for m in range(2, len(sets)):
        js = range(0, len(sets), m) if j0 is None else range(0, j0 + (period + 1) * m, m)
        alive, hits = _images(n, (sets[j if j < len(sets) else j0 + (j - j0) % period] for j in js))
        if hits is None and j0 is None:
            hits = tuple(_solve(distinct, m, alive))
        if hits:
            return m, hits
    return None


def _images(n: int, sets: Iterator[frozenset]) -> tuple[list[int], tuple[Relabeling, ...] | None]:
    """The c giving each symbol y one image C[c] over the (y, C) of `sets`,
    and the permutations y -> C[c] among them, or None for these if `sets`
    end before the one after the first that gives every symbol an image:
    theta^m maps the graph of tau into those, so that one decides."""
    alive, firsts, complete = list(range(n)), {}, False
    for entries in sets:
        for y, col in entries:
            if (first := firsts.setdefault(y, col)) != col:
                alive = [c for c in alive if col[c] == first[c]]
                if not alive:
                    return [], ()
        if complete:
            taus = list(zip(*map(firsts.__getitem__, range(n))))  # taus[c][y] = C_y[c]
            return alive, tuple(taus[c] for c in alive if len(set(taus[c])) == n)
        complete = len(firsts) == n
    return alive, None


def _language_comparison(
    theta: RectSubstitution, a: SignedPerm, depth: int, languages: dict[int, set[bytes]]
) -> SymmetryCandidate:
    """Compare the cube languages of sides 2..depth of theta and of each
    conjugate (A, tau) theta, tau in lexicographic order.

    `languages` maps a side to theta's complete language of that side.  A
    side not in it is grown from symbol 0 to its complete language, within
    J + #blocks + 1 levels (`subsym.language`) unless the cell cap refuses
    first.  That language holds every window of every theta^k(0),
    and for primitive theta that is the language of X_theta whatever the
    root, as theta^p(b) contains 0 for every b.  The conjugate's language
    is that set moved through A and relabeled by tau; each side is moved
    once, when a tau first reaches it, and every tau relabels the moved
    words.
    """
    origin = (0,) * theta.dim
    shapes = [(side,) * theta.dim for side in range(2, depth + 1)]
    moved: dict[Vec, list[bytes]] = {}  # shape -> theta's language of it moved through A
    for tau in itertools.permutations(range(len(theta.alphabet))):
        table = _relabel_table(tau)
        for sh in shapes:
            if sh not in moved:
                if sh[0] not in languages:
                    languages[sh[0]], _ = _grow(theta, (1,) * theta.dim, [b"\0"], sh)
                idx = _moved(sh, a)
                moved[sh] = [bytes(map(w.__getitem__, idx)) for w in languages[sh[0]]]
            lang = languages[sh[0]]  # as many distinct moved words: inclusion is equality
            if not all(w.translate(table) in lang for w in moved[sh]):
                break
        else:
            return SymmetryCandidate(a, VERIFIED_UP_TO, tau=tau, depth=depth)
    # the witness comes from the identity tau, which came first and failed on
    # the first side where theta's language moved through A differs
    for sh in shapes:
        base, lang_t = languages[sh[0]], set(moved[sh])
        if lang_t != base:
            break
    extra = lang_t - base
    return SymmetryCandidate(
        a,
        REFUTED_AT,
        depth=depth,
        witness=Pattern(origin, sh, min(extra or base - lang_t)),
        witness_missing_from="original" if extra else "transformed",
    )


@dataclass(frozen=True)
class SymReport:
    dim: int
    depth: int
    candidates: tuple[SymmetryCandidate, ...]  # in signed_perm_group order
    psi_image_order: int
    split: str  # yes | no | unknown
    closure_ok: bool

    def by_matrix(self) -> dict[SignedPerm, SymmetryCandidate]:
        return {c.a: c for c in self.candidates}

    def summary_line(self) -> str:
        return f"psi_image_order={self.psi_image_order} split={self.split}"


def sym_group_report(theta: RectSubstitution, depth: int = 3) -> SymReport:
    """Run the symmetry check over the whole hyperoctahedral group.

    Only the 2^d d! signed permutations of `signed_perm_group(d)` are
    checked; that is the paper's reduction of an extended symmetry's linear
    part from GL(d, Z) to them.  Its hypothesis is an aperiodic X_theta,
    which nothing in the package checks yet.  There, A must carry the
    quadrant on which the two points of a `points.contradiction_pair`
    differ onto the quadrant on which their images differ, and a
    unimodular A that maps a quadrant cone onto a quadrant cone is a signed
    permutation.  The lemmas it rests on, `lattice.cone_contains_quadrant`
    (whether A Q_1 contains a given quadrant; at most one, for a unimodular
    A) and `lattice.line_intersection_finite` (whether an axis line meets
    A Q_1 in finitely many points), are exercised under acceptance
    criterion 08.

    The ExactYes subset is checked for closure under composition, including
    compatibility of the relabelings; a nonempty subset of a finite group
    closed under composition is a subgroup, so inverses follow.
    """
    results = _check_matrices(theta, signed_perm_group(theta.dim), depth)
    exact = [c for c in results if c.verdict == EXACT_YES]
    closure_ok = _closure_ok(results)

    any_verified = any(c.verdict == VERIFIED_UP_TO for c in results)
    split = "yes" if (exact and closure_ok and not any_verified) else (
        "unknown" if any_verified else "no"
    )
    return SymReport(
        theta.dim, depth, tuple(results), len(exact), split, closure_ok
    )


def _closure_ok(candidates: list[SymmetryCandidate]) -> bool:
    """Every product (A1 A2, tau1 tau2) of two ExactYes pairs is an ExactYes pair.

    Products go through `bytes.translate`: the key of A1 A2 is A2's key
    translated by A1's table, and tau1 tau2 is tau2 translated by tau1's.
    The pairs are checked in groups: the right pairs (A2, tau2) that share
    tau2 share the product tau u = tau1 tau2, so for them the predicate
    reads "every A2 key, translated by A1's table, is a key whose tau set
    holds u", one `issuperset` against `allowed[u]`.  The matrices of the
    candidates are distinct, as in every report.
    """
    exact = [c for c in candidates if c.verdict == EXACT_YES]
    allowed: dict[bytes, set[bytes]] = {}  # tau -> keys whose tau set holds it
    rights: dict[bytes, list[bytes]] = {}  # tau -> keys of the pairs with that tau
    for c in exact:
        key = c.a.key()
        for t in c.taus:
            allowed.setdefault(bytes(t), set()).add(key)
        rights.setdefault(bytes(c.tau), []).append(key)
    for c1 in exact:
        a_table, tau_table = c1.a.table(), _relabel_table(c1.tau)
        for tau, keys in rights.items():
            product_keys = map(bytes.translate, keys, itertools.repeat(a_table))
            if not allowed.get(tau.translate(tau_table), set()).issuperset(product_keys):
                return False
    return True


# ---------------------------------------------------------------------------
# Fracture witnesses and refuters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractureWitness:
    pair: HalfSpacePair
    window: Rect
    equal_on_upper: bool
    unequal_on_lower: bool

    @property
    def ok(self) -> bool:
        return self.equal_on_upper and self.unequal_on_lower


def fracture_normal_witness(
    theta: RectSubstitution, axis: int, window: int = 64
) -> FractureWitness:
    """Package an axis fracture pair with window-level verification masks."""
    pair = half_space_fracture_pair(theta, axis)
    rect = Rect.centered(theta.dim, window)
    wx = pair.x.window(rect)
    wy = pair.y.window(rect)
    upper = Rect(tuple(0 if i == axis else lo for i, lo in enumerate(rect.lo)), rect.hi)
    lower = Rect(rect.lo, tuple(-1 if i == axis else hi for i, hi in enumerate(rect.hi)))
    equal_upper = wx.subpattern(upper).cells == wy.subpattern(upper).cells
    unequal_lower = all(
        a != b for a, b in zip(wx.subpattern(lower).cells, wy.subpattern(lower).cells)
    )
    return FractureWitness(pair, rect, equal_upper, unequal_lower)


@dataclass(frozen=True)
class StraddlingBlock:
    """A level-m inflation block meeting both half-spaces of a band.

    Any two points that agree on S+ agree on the whole block (one shared
    cell determines a bijective inflation patch), hence on the block's
    S- part - which is what refutes an everywhere-difference fracture in
    a non-axis direction.
    """

    level: int
    block: Rect
    upper_cell: Vec
    lower_cell: Vec
    upper_count: int
    lower_count: int


@dataclass(frozen=True)
class RefuterReport:
    normal: Vec
    threshold: int
    window: int
    conclusive: bool
    block: StraddlingBlock | None = None
    required_window: int | None = None


def non_axis_fracture_refuter(
    theta: RectSubstitution, v: Vec, threshold: int, window: int = 128
) -> RefuterReport:
    """Find a level-m block straddling the band |<k, v>| < threshold.

    The block side is chosen so that the straddle is guaranteed for every
    possible inflation-grid offset, mirroring how the hierarchical
    structure contradicts a fracture along a non-axis normal.
    """
    _require_dim(v, theta.dim, "v")
    if all(x == 0 for x in v):
        raise ValidationError("v must be a nonzero vector")
    if sum(1 for x in v if x != 0) < 2:
        raise ScopeError("v is axis-parallel; only non-axis normals are refutable")
    if not is_bijective(theta):
        raise ScopeError("the refuter argument needs a bijective substitution")
    if threshold < 1:
        raise ValidationError("threshold must be >= 1")

    win = Rect((-window,) * theta.dim, (window,) * theta.dim)
    s = theta.size
    for m in range(1, 40):
        side = spow(s, m)
        span = sum(abs(x) * (L - 1) for x, L in zip(v, side))
        grid_gcd = math.gcd(*(L * abs(x) for L, x in zip(side, v) if x != 0))
        if span - 2 * threshold + 1 < grid_gcd:
            continue
        m_minus = sum(min(0, x * (L - 1)) for x, L in zip(v, side))
        m_plus = sum(max(0, x * (L - 1)) for x, L in zip(v, side))
        lo_t, hi_t = threshold - m_plus, -threshold - m_minus
        # first grid block in the window: solve for z_j on the last axis j with v_j != 0 (0 holds its place)
        zr = [range(-(window // L), (window + 1) // L) for L in side]
        j = max(i for i, x in enumerate(v) if x)
        for z in itertools.product(*zr[:j], [0], *(r[:1] for r in zr[j + 1 :])):
            rest = _dot([zi * L for zi, L in zip(z, side)], v)
            a, b = (lo_t - rest, hi_t - rest)[:: 1 if v[j] > 0 else -1]
            zj = max(zr[j].start, -(-a // (side[j] * v[j])))
            if zj > min(zr[j].stop - 1, b // (side[j] * v[j])):
                continue
            t = tuple(zi * L for zi, L in zip(z[:j] + (zj,) + z[j + 1 :], side))
            block = Rect(t, tuple(x + L - 1 for x, L in zip(t, side)))
            assert win.contains_rect(block)
            if block.cell_count() > substitution.DEFAULT_CELL_CAP:
                raise CapExceeded(f"the straddling block has {block.cell_count()} cells")
            first: dict[int, Vec] = {}
            count = [0, 0, 0]  # by half: 1 for <k, v> >= threshold, -1 for <= -threshold
            # the cells of an axis-0 run in one half form an interval of it
            for rest in Rect(block.lo[1:], block.hi[1:]).cells():
                for half in (1, -1):
                    a, e = half * v[0], threshold - half * _dot(rest, v[1:])
                    x0 = max(block.lo[0], -(-e // a)) if a > 0 else block.lo[0]
                    x1 = min(block.hi[0], e // a) if a < 0 else block.hi[0]
                    if x0 <= x1 and (a or e <= 0):
                        first.setdefault(half, (x0,) + rest)
                        count[half] += x1 - x0 + 1
            assert count[1] and count[-1]
            straddle = StraddlingBlock(m, block, first[1], first[-1], count[1], count[-1])
            return RefuterReport(v, threshold, window, True, straddle)
        # a straddling block exists but not inside this window
        need = max(side) * (2 + max(abs(x) for x in v)) + 2 * threshold
        return RefuterReport(v, threshold, window, False, None, need)
    raise ScopeError("no straddling level found within 40 inflation levels")


def _dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b))
