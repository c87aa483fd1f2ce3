"""Automorphisms and extended symmetries of substitutive subshifts.

The relabeling part of the automorphism group is computed exactly (a
symbol permutation commuting with the substitution induces a radius-0
automorphism, and for primitive bijective substitutions these are all of
them up to shifts).  Extended-symmetry candidates range over the signed
permutations of the axes; the checker first looks for an exact rule-table
equality at some alignment power and only then falls back to bounded
language comparison, whose positive outcome is reported as evidence, not
proof.  Both the automorphisms and the exact path share one relabeling
solver, `conjugating_relabelings`: for a primitive substitution a
conjugating relabeling is fixed by the image of symbol 0, so n candidates
replace the n! permutations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CapExceeded, ScopeError, ValidationError
from .lattice import Rect, SignedPerm, Vec, signed_perm_group, spow
from .points import HalfSpacePair, half_space_fracture_pair
from . import substitution
from .language import _grow
from .substitution import (
    Pattern,
    RectSubstitution,
    _moved,
    _perm_order,
    _powers,
    _relabel_table,
    corner_fixing_power,
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
    # a nonempty finite set of permutations closed under composition is a group
    group = set(perms)
    assert tuple(range(n)) in group, "relabeling set lost the identity"
    for p in perms:
        for q in perms:
            assert compose_relabelings(p, q) in group, (
                "relabeling set not closed under composition"
            )


def compose_relabelings(p: Relabeling, q: Relabeling) -> Relabeling:
    """p after q."""
    return tuple(p[q[i]] for i in range(len(p)))


@dataclass(frozen=True)
class AutDescription:
    """Aut is (shifts) x (relabel group) for primitive bijective input."""

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
    propagating through every P_k fixes tau on each symbol reachable from
    0, which for primitive theta is every symbol (the tau(0) argument for
    constant-length substitutions of Coven, Dekking and Keane).  c is
    rejected on a conflict, an unreached symbol or a non-injective tau, so
    the n candidates cost O(n^2 |S|) in all.  Distinct solutions differ at
    0, hence they come in lexicographic order.
    """
    if _size_mismatch(theta.size, a) is not None:
        return []
    r = _moved(theta.size, a.inverse())  # r[k] = A k, re-anchored
    rules = [patch.cells for patch in theta.rules]
    moved = [bytes(map(cells.__getitem__, r)) for cells in rules]  # moved[z][k] = P_r(k)(z)
    solutions = (_propagate(rules, moved, c) for c in range(len(rules)))
    return [tau for tau in solutions if tau is not None]


def _propagate(rules: list[bytes], moved: list[bytes], c: int) -> Relabeling | None:
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


EXACT_YES = "ExactYes"
VERIFIED_UP_TO = "VerifiedUpTo"
REFUTED_AT = "RefutedAt"
SIZE_MISMATCH = "SizeMismatch"

#: Hard cap on alignment powers tried by the exact-equality fast path.
ALIGN_POWER_CAP = 24


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
    extended symmetry (ExactYes).  Such relabelings are fixed by tau(0), so
    `conjugating_relabelings` tries n candidates per power, not n!.
    Otherwise comparing the complete cube languages of sides up to `depth`
    either finds a witness pattern on one side only (RefutedAt) or reports
    agreement (VerifiedUpTo - explicitly not a proof).  `depth` must be at
    least 2, the smallest shape compared.
    """
    return _check_matrices(theta, [a], depth)[0]


def _check_matrices(
    theta: RectSubstitution, matrices: list[SignedPerm], depth: int
) -> list[SymmetryCandidate]:
    """`extended_symmetry_check` for each matrix, in one pass over the powers.

    The scope checks and the alignment powers are worked out once.  Each
    theta^m is built once, from theta^(m-1), and asked for the matrices
    still without an exact hit; the search ends at the first power over
    the cell cap.  The rest fall back to language comparison in order.
    """
    if depth < 2:
        raise ValidationError("depth must be >= 2: no shape below 2 is compared")
    _require_primitive_bijective(theta, "extended_symmetry_check")
    found: dict[SignedPerm, SymmetryCandidate] = {}
    for a in matrices:
        if _size_mismatch(theta.size, a) is not None:
            found[a] = SymmetryCandidate(a, SIZE_MISMATCH)
    open_ = [a for a in matrices if a not in found]
    top = min(ALIGN_POWER_CAP, max(2 * corner_fixing_power(theta), 2))
    for m, theta_m in enumerate(_powers(theta, top), 1):
        for a in open_:
            hits = conjugating_relabelings(theta_m, a)
            if hits:
                found[a] = SymmetryCandidate(
                    a, EXACT_YES, tau=hits[0], taus=tuple(hits), align_power=m
                )
        open_ = [a for a in open_ if a not in found]
        if not open_:
            break
    languages: dict[int, set[bytes]] = {}  # side -> complete cube language
    for a in open_:
        found[a] = _language_comparison(theta, a, depth, languages)
    return [found[a] for a in matrices]


def _language_comparison(
    theta: RectSubstitution, a: SignedPerm, depth: int, languages: dict[int, set[bytes]]
) -> SymmetryCandidate:
    """Compare the cube languages of sides 2..depth of theta and of each
    conjugate (A, tau) theta, tau in lexicographic order.

    `languages` maps a side to theta's complete language of that side.  A
    side not in it is grown from symbol 0 until it stabilizes: each level
    multiplies the cells by prod(s) >= 2, so a growth that never does
    raises CapExceeded within the cap's bit length in levels.  A stabilized
    language holds every window of every theta^k(0), and for primitive
    theta that is the language of X_theta whatever the root, as theta^p(b)
    contains 0 for every b.  The conjugate's language is that set moved
    through A and relabeled by tau, so one set per side serves every tau.
    """
    origin = (0,) * theta.dim
    shapes = [(side,) * theta.dim for side in range(2, depth + 1)]
    moves = {sh: _moved(sh, a) for sh in shapes}
    first_witness: tuple[Pattern, str] | None = None
    for tau in itertools.permutations(range(len(theta.alphabet))):
        table = _relabel_table(tau)
        for sh in shapes:
            if sh[0] not in languages:
                cap_depth = substitution.DEFAULT_CELL_CAP.bit_length()
                keys, _, stabilized = _grow(theta, [Pattern.single(origin, 0)], sh, cap_depth)
                assert stabilized, "a growth below the cell cap did not stabilize"
                languages[sh[0]] = keys
            base = languages[sh[0]]
            lang_t = {bytes(map(w.__getitem__, moves[sh])).translate(table) for w in base}
            extra, missing = lang_t - base, base - lang_t
            if extra or missing:
                if first_witness is None:
                    side = "original" if extra else "transformed"
                    first_witness = (Pattern(origin, sh, min(extra or missing)), side)
                break
        else:
            return SymmetryCandidate(a, VERIFIED_UP_TO, tau=tau, depth=depth)
    assert first_witness is not None
    return SymmetryCandidate(
        a,
        REFUTED_AT,
        depth=depth,
        witness=first_witness[0],
        witness_missing_from=first_witness[1],
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
    """
    exact = [c for c in candidates if c.verdict == EXACT_YES]
    keys = [c.a.key() for c in exact]
    taus = {key: {bytes(t) for t in c.taus} for key, c in zip(keys, exact)}
    rights = [(key, bytes(c.tau)) for key, c in zip(keys, exact)]
    for c1 in exact:
        a_table, tau_table = c1.a.table(), _relabel_table(c1.tau)
        for a_key, tau in rights:
            product = taus.get(a_key.translate(a_table))
            if product is None or tau.translate(tau_table) not in product:
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
    if len(v) != theta.dim or all(x == 0 for x in v):
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
        # search the origin-anchored grid for a block inside the window
        span_z = [range(-(window // L) - 1, window // L + 2) for L in side]
        for z in itertools.product(*span_z):
            t = tuple(zi * L for zi, L in zip(z, side))
            if not lo_t <= _dot(t, v) <= hi_t:
                continue
            block = Rect(t, tuple(x + L - 1 for x, L in zip(t, side)))
            if not win.contains_rect(block):
                continue
            if block.cell_count() > substitution.DEFAULT_CELL_CAP:
                raise CapExceeded(f"the straddling block has {block.cell_count()} cells")
            first: dict[int, Vec] = {}
            count = [0, 0, 0]  # by half: 1 for <k, v> >= threshold, -1 for <= -threshold
            for k in block.cells():
                half = ((dot := _dot(k, v)) >= threshold) - (dot <= -threshold)
                first.setdefault(half, k)
                count[half] += 1
            assert count[1] and count[-1]
            straddle = StraddlingBlock(m, block, first[1], first[-1], count[1], count[-1])
            return RefuterReport(v, threshold, window, True, straddle)
        # a straddling block exists but not inside this window
        need = max(side) * (2 + max(abs(x) for x in v)) + 2 * threshold
        return RefuterReport(v, threshold, window, False, None, need)
    raise ScopeError("no straddling level found within 40 inflation levels")


def _dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b))
