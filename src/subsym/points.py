"""Lazy points of a substitutive subshift.

Every point here is a shifted fixed point: a seed on {-1,0}^d that the
seed dynamics fix, inflated forever, then translated.  Such a point is
also fixed by theta^c, so symbol queries walk the base-s^c digits of the
coordinate through per-quadrant tables of theta^c (one per theta, cached,
64 KiB at most unless theta's own tables are larger): a lookup costs
O(depth / c) table hits and no patch is ever materialized.  The digits
are split off k at a time: one `divmod` per chunk, whose k terms come
from a per-axis chunk table with no more entries than a rule of theta^c
has cells.  Both tables are built on the first query of a theta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import zip_longest

from . import substitution
from .errors import CapExceeded, ScopeError, SearchFailure, ValidationError
from .lattice import Rect, SignedPerm, Vec, spow, vadd, vfloordiv, vmod, vsub, zero
from .substitution import (
    Pattern,
    RectSubstitution,
    Seed,
    _columns,
    _corner_maps,
    _inflate,
    _moved,
    _strides,
    corner_order,
    is_bijective,
    power,
    seed_step,
)


@dataclass(frozen=True, slots=True)
class OdometerCoord:
    """Finite-precision element of the product odometer.

    residues[m-1] is the coordinate mod s^m (componentwise); consecutive
    residues must cohere.
    """

    size: Vec
    residues: tuple[Vec, ...]

    def __post_init__(self) -> None:
        for m, r in enumerate(self.residues, start=1):
            bound = tuple(x**m for x in self.size)
            if any(not 0 <= c < b for c, b in zip(r, bound)):
                raise ValidationError(f"residue {r} out of range mod {bound}")
            if m > 1:
                prev_bound = tuple(x ** (m - 1) for x in self.size)
                prev = self.residues[m - 2]
                if tuple(c % b for c, b in zip(r, prev_bound)) != prev:
                    raise ValidationError("incoherent odometer residues")

    @property
    def precision(self) -> int:
        return len(self.residues)

    @classmethod
    def from_integer(cls, v: Vec, size: Vec, precision: int) -> "OdometerCoord":
        res = []
        for m in range(1, precision + 1):
            bound = tuple(x**m for x in size)
            res.append(tuple(c % b for c, b in zip(v, bound)))
        return cls(size, tuple(res))

    def add_integer(self, k: Vec) -> "OdometerCoord":
        res = []
        for m, r in enumerate(self.residues, start=1):
            bound = tuple(x**m for x in self.size)
            res.append(tuple((c + x) % b for c, x, b in zip(r, k, bound)))
        return OdometerCoord(self.size, tuple(res))


#: Byte budget of one theta's digit tables (every quadrant, every rule of theta^c).
DIGIT_TABLE_BYTES = 1 << 16


@functools.lru_cache(maxsize=16)
def _digit_tables(
    theta: RectSubstitution,
) -> tuple[Vec, tuple[tuple[bytes, ...], ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """(s^c, rules of theta^c per quadrant, chunk table per axis) for the
    largest c >= 1 whose rules fit DIGIT_TABLE_BYTES (c = 1 if even theta's
    do not).

    Quadrant q is the q-th seed cell u of `corner_order`; its rules are those of
    theta^c reflected on every axis with u_i = -1, so that a non-negative
    in-quadrant offset reads its digits straight through them.

    The chunk table of an axis with base b and flat stride t maps each
    k-digit chunk r < b^k, for the largest k with b^k <= prod(s^c) (no more
    entries than one rule of theta^c has cells), to its k terms digit * t,
    low digit first.
    """
    d, block = theta.dim, math.prod(theta.size)
    c = 1
    while (len(theta.alphabet) << d) * block ** (c + 1) <= DIGIT_TABLE_BYTES:
        c += 1
    theta_c, bases = power(theta, c), spow(theta.size, c)
    quadrants = []
    for u in corner_order(d):
        idx = _moved(bases, SignedPerm(tuple(range(d)), tuple(-ui for ui in u)))
        quadrants.append(tuple(bytes(map(r.cells.__getitem__, idx)) for r in theta_c.rules))
    cells, chunks = math.prod(bases), []
    for b, t in zip(bases, _strides(bases)):
        terms = [r * t for r in range(b)]
        table = [(x,) for x in terms]
        while len(table) * b <= cells:
            table = [low + (high,) for high in terms for low in table]
        chunks.append(tuple(table))
    return bases, tuple(quadrants), tuple(chunks)


def _require_dim(v: Vec, d: int, what: str) -> None:
    if len(v) != d:
        raise ValidationError(f"{what} {v} does not have {d} coordinates")


class AddressablePoint:
    """sigma_v(x_P) for a fixed seed P: total, O(depth / c) symbol queries.

    The substitution must fix the seed (seed_step(theta, seed) == seed);
    replacing theta by its corner-fixing power makes every seed eligible
    for bijective substitutions.
    """

    __slots__ = ("theta", "seed", "shift", "_tables")

    def __init__(self, theta: RectSubstitution, seed: Seed, shift: Vec | None = None):
        if seed.dim != theta.dim:
            raise ValidationError("seed dimension mismatch")
        if seed_step(theta, seed) != seed:
            raise ScopeError(
                "seed is not fixed by the substitution; "
                "replace theta by a corner-fixing power first"
            )
        if shift is not None:
            _require_dim(shift, theta.dim, "shift")
        self.theta = theta
        self.seed = seed
        self.shift = shift if shift is not None else zero(theta.dim)
        self._tables = None  # _digit_tables(theta), fetched by the first symbol_at

    @property
    def dim(self) -> int:
        return self.theta.dim

    def with_shift(self, v: Vec) -> "AddressablePoint":
        _require_dim(v, self.theta.dim, "shift")
        clone = AddressablePoint.__new__(AddressablePoint)
        clone.theta = self.theta
        clone.seed = self.seed
        clone.shift = v
        clone._tables = self._tables
        return clone

    def symbol_at(self, k: Vec) -> int:
        """Symbol at coordinate k, in O(depth / c) table hits.

        The coordinate is routed to the quadrant of the seed cell it falls
        in and turned into a non-negative in-quadrant offset (x or ~x per
        axis), whose base-s^c digits are read from the top down through that
        quadrant's rules of theta^c.  The digits come k at a time, one
        `divmod` per chunk, as their terms digit * stride from the axis's
        chunk table.  Axes with fewer digits are padded with 0, and so is
        the expansion past the last digit: the seed is fixed by theta^c, so
        the result does not depend on the depth.
        """
        _require_dim(k, len(self.shift), "coordinate")
        if self._tables is None:
            self._tables = _digit_tables(self.theta)
        _, quadrants, chunks = self._tables
        q, axes = 0, []
        for x, v, chunk in zip(k, self.shift, chunks):
            x -= v
            # a 1 bit per non-negative axis, first axis highest: u's place in corner_order
            q = q << 1 | (x >= 0)
            x = x if x >= 0 else ~x
            terms, radix = [], len(chunk)
            while x:
                x, r = divmod(x, radix)
                terms += chunk[r]
            axes.append(terms)
        levels = axes[0] if len(axes) == 1 else list(map(sum, zip_longest(*axes, fillvalue=0)))
        rules, sym = quadrants[q], self.seed.symbols[q]
        for i in reversed(levels):
            sym = rules[sym][i]
        return sym

    def window(self, r: Rect) -> Pattern:
        """The point on an inclusive rect.  The unshifted point is theta-fixed,
        so on a box B it is a crop of theta applied to it on floor(B / s)."""
        _require_dim(r.lo, self.dim, "window corner")
        n, cap = r.cell_count(), substitution.DEFAULT_CELL_CAP
        if n > cap:
            raise CapExceeded(f"window of {n} cells exceeds cap {cap}")
        b = r.translate(vsub(zero(self.dim), self.shift))
        seed, s = self.seed.pattern(), self.theta.size
        boxes = []  # B, floor(B / s), ... down to a box inside {-1, 0}^d
        while not seed.rect().contains_rect(b):
            boxes.append(b)
            b = Rect(vfloordiv(b.lo, s), vfloordiv(b.hi, s))
        p = seed.subpattern(b)
        for b in reversed(boxes):
            p = _inflate(self.theta, p).subpattern(b)
        return p.translate(self.shift)

    def phi(self, precision: int) -> OdometerCoord:
        """Odometer coordinate: the underlying fixed point maps to 0."""
        if precision < 1:
            raise ValidationError("precision must be >= 1")
        return OdometerCoord.from_integer(self.shift, self.theta.size, precision)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AddressablePoint(seed={self.seed.symbols}, shift={self.shift})"


def shift_point(x: AddressablePoint, k: Vec) -> AddressablePoint:
    _require_dim(k, x.dim, "shift")
    return x.with_shift(vadd(x.shift, k))


def desubstitute_point(x: AddressablePoint) -> tuple[Vec, AddressablePoint]:
    """Unique k1 in S and y with x = sigma_k1(theta(y))."""
    s = x.theta.size
    k1 = vmod(x.shift, s)
    y_shift = tuple((v - r) // b for v, r, b in zip(x.shift, k1, s))
    return k1, x.with_shift(y_shift)


@dataclass(frozen=True)
class DesubFit:
    """One consistent de-substitution offset for a finite pattern."""

    offset: Vec
    block_candidates: dict[Vec, tuple[int, ...]]


def desubstitute_pattern(theta: RectSubstitution, p: Pattern) -> list[DesubFit]:
    """All offsets o in [0, s-1] consistent with p being part of sigma_o(theta(q)).

    Each surviving offset carries, per touched block, the symbols whose
    patches agree with p there.  No uniqueness is ever asserted.
    """
    s, strides, columns = theta.size, _strides(theta.size), _columns(theta)
    nsym = len(theta.alphabet)
    fits = []
    for o in theta.support().cells():
        blocks: dict[Vec, set[int]] = {}
        ok = True
        for k, symbol in zip(p.rect().cells(), p.cells):
            rel = vsub(k, o)
            block = tuple(x // b for x, b in zip(rel, s))
            column = columns[sum(x % b * st for x, b, st in zip(rel, s, strides))]
            cands = blocks.setdefault(block, set(range(nsym)))
            cands &= {a for a in range(nsym) if column[a] == symbol}
            if not cands:
                ok = False
                break
        if ok:
            fits.append(
                DesubFit(o, {b: tuple(sorted(c)) for b, c in blocks.items()})
            )
    return fits


# ---------------------------------------------------------------------------
# Special point pairs
# ---------------------------------------------------------------------------


def quadrant_cell_of(k: Vec) -> Vec:
    """Seed cell addressed by coordinate k (k_i >= 0 reads corner entry 0)."""
    return tuple(0 if x >= 0 else -1 for x in k)


@dataclass(frozen=True)
class ContradictionPair:
    """Two points matching everywhere except on one quadrant.

    `quadrant_sign` names the quadrant (as a +-1 vector); inside it the
    two points differ at every coordinate, outside they agree.  For binary
    alphabets the difference is the symbol swap.
    """

    x: AddressablePoint
    y: AddressablePoint
    quadrant_sign: Vec
    complement_on_quadrant: bool

    def expected_equal(self, k: Vec) -> bool:
        return quadrant_cell_of(k) != quadrant_cell_of(self.quadrant_sign)


def contradiction_pair(
    theta: RectSubstitution, u: Vec, base_seed: Seed | None = None
) -> ContradictionPair:
    """Flip one seed corner of a fixed point; bijectivity spreads the flip
    over exactly that quadrant.

    Requires a bijective substitution whose corner maps are already
    identity (corner-fixed), so every seed is fixed.
    """
    if not is_bijective(theta):
        raise ScopeError("contradiction_pair requires a bijective substitution")
    if any(ui not in (-1, 1) for ui in u) or len(u) != theta.dim:
        raise ScopeError("u must be a +-1 sign vector of the right dimension")
    cell = quadrant_cell_of(u)
    seed_x = base_seed if base_seed is not None else Seed.constant(theta.dim, 0)
    a = seed_x.corner(cell)
    b = (a + 1) % len(theta.alphabet)
    seed_y = seed_x.with_corner(cell, b)
    x = AddressablePoint(theta, seed_x)
    y = AddressablePoint(theta, seed_y)
    return ContradictionPair(x, y, tuple(u), len(theta.alphabet) == 2)


@dataclass(frozen=True)
class HalfSpacePair:
    """Two points agreeing on {k_axis >= 0} and differing on all of {k_axis < 0}."""

    x: AddressablePoint
    y: AddressablePoint
    axis: int

    def expected_equal(self, k: Vec) -> bool:
        return k[self.axis] >= 0


def half_space_fracture_pair(
    theta: RectSubstitution, axis: int
) -> HalfSpacePair:
    """The first pair of fixed seeds, in seed order, realizing an axis half-space split.

    The pair must share every seed cell with coordinate 0 on `axis` and
    differ on every seed cell with coordinate -1 there.  Bijectivity then
    forces agreement on the closed upper half-space and disagreement at
    every single coordinate of the open lower one.  A seed is fixed when
    each corner holds a fixed symbol of that corner's map, so x takes each
    corner's smallest fixed symbol and y differs from it on the lower
    corners by their second-smallest.
    """
    if not 0 <= axis < theta.dim:
        raise ValidationError(f"axis {axis} out of range")
    if not is_bijective(theta):
        raise ScopeError("half_space_fracture_pair requires a bijective substitution")
    # per corner, the fixed symbols of its map in increasing order, and whether it is lower
    fixed = [[a for a, b in enumerate(p) if a == b] for p in _corner_maps(theta)]
    lower = [u[axis] == -1 for u in corner_order(theta.dim)]
    if any(len(f) < 1 + low for f, low in zip(fixed, lower)):
        raise SearchFailure("faithfulness witness not found at seed level")
    sx = Seed(theta.dim, tuple(f[0] for f in fixed))
    sy = Seed(theta.dim, tuple(f[low] for f, low in zip(fixed, lower)))
    return HalfSpacePair(AddressablePoint(theta, sx), AddressablePoint(theta, sy), axis)
