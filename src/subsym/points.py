"""Lazy points of a substitutive subshift.

Every point here is a shifted periodic point: a seed on {-1,0}^d whose
corner symbols lie on cycles of theta's corner maps (every seed, when
theta is bijective), inflated forever, then translated.  The quadrant of
seed cell u grows from u's symbol a alone, through u's corner map P where
it is not read, so with a on a cycle of P the point is theta^L-fixed (L
the lcm of the corners' cycle lengths) and its quadrant D levels below
the top grows from P^(-D)(a), with no power of theta built.  Queries
walk the base-s^c digits of the coordinate, a chunk per `divmod`, through
per-quadrant tables of theta^c (cached, 64 KiB at most unless theta's own
tables are larger), from the corner's cycle entry c * D levels back:
O(depth / c) table hits, and no patch is ever materialized.  In d >= 2 a
chunk's terms sit in fixed-width bit fields of one int, so the axes join
level by level with one integer add: the terms of one level sum to a flat
offset into one rule, below 2^w for the field width w, and never carry.
"""

from __future__ import annotations

import copy
import functools
import math
import struct
import sys
from dataclasses import dataclass

from . import substitution
from .errors import CapExceeded, ScopeError, ValidationError
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


def _table_power(theta: RectSubstitution) -> int:
    """The largest c >= 1 whose digit tables fit DIGIT_TABLE_BYTES (1 if even theta's do not)."""
    block, c = math.prod(theta.size), 1
    while (len(theta.alphabet) << theta.dim) * block ** (c + 1) <= DIGIT_TABLE_BYTES:
        c += 1
    return c


@functools.lru_cache(maxsize=16)
def _digit_tables(
    theta: RectSubstitution, c: int
) -> tuple[Vec, tuple[tuple[bytes, ...], ...], tuple[tuple[int, int, tuple], ...], str]:
    """(s^c, rules of theta^c per quadrant, chunk table per axis, field format).

    Quadrant q is the q-th seed cell u of `corner_order`; its rules are those of
    theta^c reflected on every axis with u_i = -1, so that a non-negative
    in-quadrant offset reads its digits straight through them.

    The chunk table of an axis with base b and flat stride t is (b^k, k * w,
    entries) for the largest k with b^k <= prod(s^c) (no more entries than one
    rule of theta^c has cells): entry r < b^k holds the k terms digit * t of
    r, low digit first.  In 1-d an entry is the tuple of its terms.  In d >= 2
    it packs term j into the field of bits [w j, w (j + 1)) of one int, w the
    width of the `memoryview` format `fmt`: 16 bits while prod(s^c) <= 2^16,
    wider otherwise.  The terms of all axes at one level sum to a flat offset
    into one rule, below prod(s^c) <= 2^w, so chunk ints of different axes
    add with no carry across a field.
    """
    d, theta_c, bases = theta.dim, power(theta, c), spow(theta.size, c)
    quadrants = []
    for u in corner_order(d):
        idx = _moved(bases, SignedPerm(tuple(range(d)), tuple(-ui for ui in u)))
        quadrants.append(tuple(bytes(map(r.cells.__getitem__, idx)) for r in theta_c.rules))
    cells, axes = math.prod(bases), []
    fmt = next(f for f in "HIQ" if cells <= 1 << 8 * struct.calcsize(f))
    w = 8 * struct.calcsize(fmt)
    for b, t in zip(bases, _strides(bases)):
        terms = [r * t for r in range(b)]
        table = [(x,) for x in terms]
        while len(table) * b <= cells:
            table = [low + (high,) for high in terms for low in table]
        k = len(table[0])
        if d > 1:
            table = [sum(x << w * j for j, x in enumerate(entry)) for entry in table]
        axes.append((len(table), k * w, tuple(table)))
    return bases, tuple(quadrants), tuple(axes), fmt


def _walk(k: Vec, shift: Vec, cycles, tables, c: int, back: int) -> int:
    """Symbol at k of the point with origin `shift` whose quadrant q grows from
    the corner cycle cycles[q], `back` levels of theta below the top.

    k is routed to the quadrant of its seed cell and made a non-negative
    in-quadrant offset (x or ~x per axis), whose D base-s^c digits, split
    off a chunk per `divmod`, are read from the top down through the
    quadrant's rules of theta^c, starting from the corner symbol c * D +
    back levels back on its cycle.  In 1-d the levels are the chunks' terms
    in a list.  In d >= 2 each axis adds its packed chunks, shifted into
    place, into one int, whose fields are the levels' flat offsets (shorter
    axes read 0 above their top chunk); one `to_bytes` in native byte order
    and a `memoryview` cast split it into levels.
    """
    _, quadrants, axes, fmt = tables
    if len(axes) == 1:
        (radix, _, chunk), x = axes[0], k[0] - shift[0]
        q, x = int(x >= 0), x if x >= 0 else ~x
        levels = []
        while x:
            x, r = divmod(x, radix)
            levels += chunk[r]
    else:
        q = total = top = 0
        for x, v, (radix, bits, chunk) in zip(k, shift, axes):
            x -= v
            # a 1 bit per non-negative axis, first axis highest: u's place in corner_order
            q = q << 1 | (x >= 0)
            x = x if x >= 0 else ~x
            at = 0
            while x:
                x, r = divmod(x, radix)
                total += chunk[r] << at
                at += bits
            if at > top:
                top = at
        levels = memoryview(total.to_bytes(top >> 3, sys.byteorder)).cast(fmt)
    rules, cycle = quadrants[q], cycles[q]
    sym = cycle[-(c * len(levels) + back) % len(cycle)]
    for i in reversed(levels):
        sym = rules[sym][i]
    return sym


def _require_dim(v: Vec, d: int, what: str) -> None:
    if len(v) != d:
        raise ValidationError(f"{what} {v} does not have {d} coordinates")


class AddressablePoint:
    """sigma_v(x_P) for a seed P on a cycle: total, O(depth / c) symbol queries.

    x_P is the theta^L-fixed point grown from P, L the length of P's cycle
    under the seed step, as under any corner-fixing power of theta.  A
    corner symbol off its corner map's cycles is a `ScopeError`.
    """

    __slots__ = ("theta", "seed", "shift", "_cycles", "_c", "_tables")

    def __init__(self, theta: RectSubstitution, seed: Seed, shift: Vec | None = None):
        if seed.dim != theta.dim:
            raise ValidationError("seed dimension mismatch")
        if not all(0 <= a < len(theta.alphabet) for a in seed.symbols):
            raise ValidationError(f"seed symbols {seed.symbols} outside [0, {len(theta.alphabet)})")
        cycles = []  # per corner, a, P(a), P^2(a), ... for its corner map P and symbol a
        for table, a in zip(_corner_maps(theta), seed.symbols):
            cycle = [a]
            while table[cycle[-1]] != a and len(cycle) <= len(table):
                cycle.append(table[cycle[-1]])
            if len(cycle) > len(table):
                raise ScopeError(f"seed symbol {a} is not on a cycle of its corner map")
            cycles.append(tuple(cycle))
        if shift is not None:
            _require_dim(shift, theta.dim, "shift")
        self.theta = theta
        self.seed = seed
        self.shift = shift if shift is not None else zero(theta.dim)
        self._cycles = tuple(cycles)
        self._c = self._tables = None  # _digit_tables(theta, c), fetched by the first symbol_at

    @property
    def dim(self) -> int:
        return self.theta.dim

    def with_shift(self, v: Vec) -> "AddressablePoint":
        _require_dim(v, self.theta.dim, "shift")
        clone = copy.copy(self)
        clone.shift = v
        return clone

    def symbol_at(self, k: Vec) -> int:
        """Symbol at k: `_walk` through the tables of the largest theta^c that
        fits DIGIT_TABLE_BYTES.  An extra top digit 0 would step the corner
        symbol c levels back and its corner map c levels forward again."""
        _require_dim(k, len(self.shift), "coordinate")
        if self._tables is None:
            self._c = _table_power(self.theta)
            self._tables = _digit_tables(self.theta, self._c)
        return _walk(k, self.shift, self._cycles, self._tables, self._c, 0)

    def window(self, r: Rect) -> Pattern:
        """The point on an inclusive rect.  The unshifted point is theta of
        itself one level back, so on a box B it is a crop of theta applied to
        that point on floor(B / s).  B descends J levels until every side is
        at most 2, `_walk` reads that box on theta's own tables J levels back,
        and theta inflates it back up."""
        _require_dim(r.lo, self.dim, "window corner")
        n, cap = r.cell_count(), substitution.DEFAULT_CELL_CAP
        if n > cap:
            raise CapExceeded(f"window of {n} cells exceeds cap {cap}")
        b, s = r.translate(vsub(zero(self.dim), self.shift)), self.theta.size
        boxes = []  # B, floor(B / s), ... down to a box of sides <= 2
        while any(hi - lo > 1 for lo, hi in zip(b.lo, b.hi)):
            boxes.append(b)
            b = Rect(vfloordiv(b.lo, s), vfloordiv(b.hi, s))
        tables, origin = _digit_tables(self.theta, 1), zero(self.dim)
        cells = bytes(_walk(k, origin, self._cycles, tables, 1, len(boxes)) for k in b.cells())
        p = Pattern(b.lo, b.extent(), cells)
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
    """Unique k1 in S and y with x = sigma_k1(theta(y)): y's seed is x's one
    step back on its cycle, since theta of that point is x's point."""
    s, k1 = x.theta.size, vmod(x.shift, x.theta.size)
    y_shift = tuple((v - r) // b for v, r, b in zip(x.shift, k1, s))
    back = Seed(x.dim, tuple(cycle[-1] for cycle in x._cycles))
    return k1, AddressablePoint(x.theta, back, y_shift)


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
    """Flip one seed corner of a point; bijectivity spreads the flip over
    exactly that quadrant.

    For a bijective theta every corner symbol lies on a cycle, and a
    quadrant, grown from its corner symbol alone through bijective maps,
    differs at every cell when that symbol does.
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
    """x is 0 on every seed corner, y is 1 on the lower ones (-1 on `axis`).

    For a bijective theta every seed lies on a cycle, and a quadrant grows
    from its corner symbol alone through bijective maps, so the pair agrees
    on the closed upper half-space and differs at every coordinate of the
    open lower one.
    """
    if not 0 <= axis < theta.dim:
        raise ValidationError(f"axis {axis} out of range")
    if not is_bijective(theta):
        raise ScopeError("half_space_fracture_pair requires a bijective substitution")
    sy = Seed(theta.dim, tuple(int(u[axis] == -1) for u in corner_order(theta.dim)))
    x, y = AddressablePoint(theta, Seed.constant(theta.dim, 0)), AddressablePoint(theta, sy)
    return HalfSpacePair(x, y, axis)
