"""Rectangular substitutions over finite alphabets.

A substitution maps each symbol to a patch with common box support
[0, s - 1]; it extends cellwise to patterns and configurations.  Symbols
are stored as dense byte indices; names only matter at the I/O boundary.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapExceeded, ScopeError, ValidationError
from .lattice import Rect, SignedPerm, Vec, spow, vadd, vmul, vsub, zero

#: The cap on materialized cells: theta^m grows exponentially, and beyond
#: this callers must go through the lazy point queries.  Every cell-count
#: check reads it as `substitution.DEFAULT_CELL_CAP` when it runs.
DEFAULT_CELL_CAP = 2**26


@dataclass(frozen=True, slots=True)
class Alphabet:
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 2 <= len(self.names) <= 255:
            raise ValidationError("alphabet size must be in [2, 255]")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("alphabet names must be unique")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown symbol {name!r}") from None


class Pattern:
    """Finite rectangular symbol array with an integer anchor.

    Cells are a flat byte string with coordinate 0 varying fastest
    (column-major in matrix terms).
    """

    __slots__ = ("anchor", "extent", "cells", "_strides")

    def __init__(self, anchor: Vec, extent: Vec, cells: bytes) -> None:
        if len(anchor) != len(extent):
            raise ValidationError("anchor/extent dimension mismatch")
        if any(e <= 0 for e in extent):
            raise ValidationError("pattern extent must be positive")
        if len(cells) != math.prod(extent):
            raise ValidationError("cell buffer does not match extent")
        self.anchor = anchor
        self.extent = extent
        self.cells = bytes(cells)
        self._strides = _strides(extent)

    @classmethod
    def single(cls, anchor: Vec, symbol: int) -> "Pattern":
        return cls(anchor, (1,) * len(anchor), bytes([symbol]))

    @property
    def dim(self) -> int:
        return len(self.extent)

    def rect(self) -> Rect:
        return Rect(self.anchor, tuple(a + e - 1 for a, e in zip(self.anchor, self.extent)))

    def index_of(self, k: Vec) -> int:
        return sum((x - a) * st for x, a, st in zip(k, self.anchor, self._strides))

    def get(self, k: Vec) -> int:
        return self.cells[self.index_of(k)]

    def translate(self, v: Vec) -> "Pattern":
        return Pattern(vadd(self.anchor, v), self.extent, self.cells)

    def subpattern(self, r: Rect) -> "Pattern":
        if not self.rect().contains_rect(r):
            raise ValidationError("subpattern rect outside pattern support")
        ext, cells = r.extent(), self.cells
        starts = _run_starts(self.extent, vsub(r.lo, self.anchor), ext)
        return Pattern(r.lo, ext, b"".join(cells[i : i + ext[0]] for i in starts))

    def subpattern_keys(self, shape: Vec) -> Iterator[bytes]:
        """Cell buffers of every `shape`-window inside this pattern."""
        if any(sh > e for sh, e in zip(shape, self.extent)):
            return
        if tuple(shape) == self.extent:
            yield self.cells
            return
        origin, w, full, cells = zero(self.dim), shape[0], self.extent[0], self.cells
        offsets = tuple(e - sh + 1 for sh, e in zip(shape, self.extent))
        strip_rows = _run_starts(self.extent, origin, shape)
        # the full-width rows under each outer offset, then every axis-0 window of them
        for base in _run_starts(self.extent, origin, offsets):
            strip = [cells[base + i : base + i + full] for i in strip_rows]
            for x in range(offsets[0]):
                yield b"".join(row[x : x + w] for row in strip)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pattern)
            and self.anchor == other.anchor
            and self.extent == other.extent
            and self.cells == other.cells
        )

    def __hash__(self) -> int:
        return hash((self.anchor, self.extent, self.cells))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pattern(anchor={self.anchor}, extent={self.extent})"


@dataclass(frozen=True)
class RectSubstitution:
    """Alphabet + size vector + one patch with support [0, s-1] per symbol."""

    alphabet: Alphabet
    size: Vec
    rules: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        if any(s < 2 for s in self.size):
            raise ValidationError("all size components must be > 1")
        if len(self.rules) != len(self.alphabet):
            raise ValidationError("one rule per symbol required")
        in_alphabet = bytes(range(len(self.alphabet)))
        for r in self.rules:
            if r.anchor != zero(self.dim) or r.extent != self.size:
                raise ValidationError("every rule must have anchor 0 and extent s")
            # deleting the valid symbols leaves exactly the cells outside the alphabet
            if r.cells.translate(None, in_alphabet):
                raise ValidationError("rule cell outside alphabet")

    @property
    def dim(self) -> int:
        return len(self.size)

    def rule(self, symbol: int) -> Pattern:
        return self.rules[symbol]

    def __hash__(self) -> int:
        return hash((self.alphabet.names, self.size, tuple(r.cells for r in self.rules)))


def _strides(extent: Vec) -> tuple[int, ...]:
    """Flat offset of one step along each axis: the one place that knows the cell layout."""
    return tuple(itertools.accumulate(extent[:-1], operator.mul, initial=1))


def _run_starts(extent: Vec, lo: Vec, shape: Vec) -> list[int]:
    """Flat offsets, in cell order, of the shape[0]-cell axis-0 runs of lo + [0, shape - 1]."""
    starts = [lo[0]]
    for x, n, stride in zip(lo[1:], shape[1:], _strides(extent)[1:]):
        starts = [b + (x + j) * stride for j in range(n) for b in starts]
    return starts


def _moved(extent: Vec, a: SignedPerm) -> list[int]:
    """Flat source index, in cell order, of each cell of the image of [0, extent - 1]
    under the signed permutation `a`, re-anchored into the image box, whose
    extent is the permuted extent."""
    strides, idx = _strides(extent), [0]
    for i in a.inverse_perm():
        step, n = strides[i], extent[i]
        axis = range((n - 1) * step, -1, -step) if a.signs[i] else range(0, n * step, step)
        idx = [o + b for o in axis for b in idx]
    return idx


def _relabel_table(tau: Sequence[int]) -> bytes:
    """`bytes.translate` table of the symbol map tau: p after q is
    `bytes(q).translate(_relabel_table(p))`."""
    return bytes.maketrans(bytes(range(len(tau))), bytes(tau))


def _inflate(theta: RectSubstitution, p: Pattern) -> Pattern:
    """`apply` without the cell cap."""
    s, origin = theta.size, zero(p.dim)
    rows = [p.cells[i : i + p.extent[0]] for i in _run_starts(p.extent, origin, p.extent)]
    rule_rows = [[r.cells[i : i + s[0]] for r in theta.rules] for i in _run_starts(s, origin, s)]
    # images[m * K + k] is input row m read through rule row k; along each
    # outer axis, output row y takes m = y // s and k = y % s
    images = [b"".join(map(rr.__getitem__, row)) for row in rows for rr in rule_rows]
    order = [0]
    m_stride, k_stride = len(rule_rows), 1
    for pe, se in zip(p.extent[1:], s[1:]):
        order = [i + y // se * m_stride + y % se * k_stride for y in range(pe * se) for i in order]
        m_stride, k_stride = m_stride * pe, k_stride * se
    cells = b"".join(images[i] for i in order)
    return Pattern(vmul(p.anchor, s), vmul(p.extent, s), cells)


def apply(theta: RectSubstitution, p: Pattern) -> Pattern:
    """Cellwise image: output cell at m*s + k is theta(p_m)_k."""
    n_cells = math.prod(vmul(p.extent, theta.size))
    if n_cells > DEFAULT_CELL_CAP:
        raise CapExceeded(f"apply would materialize {n_cells} cells")
    return _inflate(theta, p)


def power(theta: RectSubstitution, m: int) -> RectSubstitution:
    """theta^m with rules materialized eagerly, each from theta^(m-1)'s."""
    if m < 1:
        raise ValidationError("power requires m >= 1")
    per_rule = math.prod(x**m for x in theta.size)
    if per_rule * len(theta.alphabet) > DEFAULT_CELL_CAP:
        raise CapExceeded(f"theta^{m} needs {per_rule} cells per rule")
    theta_m = theta
    for k in range(2, m + 1):
        rules = tuple(apply(theta, r) for r in theta_m.rules)
        theta_m = RectSubstitution(theta.alphabet, spow(theta.size, k), rules)
    return theta_m


@dataclass(frozen=True)
class PrimitivityReport:
    primitive: bool
    witness_power: int | None
    missing: tuple[tuple[int, int], ...]  # (a, b): b never reached from a


def is_primitive(theta: RectSubstitution) -> PrimitivityReport:
    """Occurrence-matrix test: some theta^k(a) contains every symbol.

    k is searched up to |A|^2, the standard primitivity bound.  Each row of
    the matrix M is a bitmask of symbols.  Once some M^k is positive, every
    symbol occurs in some rule and every later power is positive too.  So
    M^(|A|^2 + 1) decides primitivity and gives `missing`, and binary
    lifting over the squares M^(2^i), up to the first positive one, finds
    the least such k.
    """
    n = len(theta.alphabet)
    full, top = (1 << n) - 1, n * n + 1
    squares = [[sum(1 << c for c in set(r.cells)) for r in theta.rules]]  # M^(2^i)
    while squares[-1].count(full) < n and 1 << len(squares) <= top:
        squares.append(_bool_product(squares[-1], squares[-1]))
    reach, k = [1 << a for a in range(n)], 0  # M^k, the largest k <= top not positive
    for i in reversed(range(len(squares))):
        if k + (1 << i) <= top:
            step = _bool_product(reach, squares[i])
            if step.count(full) < n:
                reach, k = step, k + (1 << i)
    if k < top:
        return PrimitivityReport(True, k + 1, ())
    missing = tuple((a, b) for a in range(n) for b in range(n) if not reach[a] >> b & 1)
    return PrimitivityReport(False, None, missing)


def _bool_product(x: list[int], y: list[int]) -> list[int]:
    """The boolean matrix product x y, rows as bitmasks: each row ORs the rows
    of y that its bits pick, read low bit first from `bin` as 0/1 bytes."""
    return [functools.reduce(operator.or_, itertools.compress(y, _bits(row)), 0) for row in x]


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bits(row: int) -> bytes:
    """The bits of row, low bit first, one 0/1 byte each."""
    return bin(row)[:1:-1].encode().translate(_BIT_BYTES)


def _columns(theta: RectSubstitution) -> list[bytes]:
    """columns[k] = P_k, the position map a -> theta(a)_k of cell k (in cell
    order) as the images of the n symbols: the one column-wise read of the rules."""
    return list(map(bytes, zip(*(r.cells for r in theta.rules))))


def is_bijective(theta: RectSubstitution) -> bool:
    n = len(theta.alphabet)
    return all(len(set(col)) == n for col in set(_columns(theta)))


def _cycle_lengths(table: Sequence[int]) -> list[int]:
    """For each symbol a of the map a -> table[a], the length of the cycle through a, or 0 if none."""
    lengths, walk = [0] * len(table), [-1] * len(table)  # walk[a]: the start that first reached a
    for start in range(len(table)):
        a, trail = start, []
        while walk[a] < 0:
            walk[a] = start
            trail.append(a)
            a = table[a]
        cycle = trail[trail.index(a) :] if walk[a] == start else []  # a new cycle closed at a
        for b in cycle:
            lengths[b] = len(cycle)
    return lengths


def _perm_order(table: Sequence[int]) -> int:
    return math.lcm(*_cycle_lengths(table))


def corner_fixing_power(theta: RectSubstitution) -> int:
    """Least m with every corner map of theta^m equal to the identity.

    This is the lcm of the 2^d corner-permutation orders; it only exists
    for bijective substitutions.
    """
    if not is_bijective(theta):
        raise ScopeError("corner_fixing_power requires a bijective substitution")
    return math.lcm(*map(_perm_order, _corner_maps(theta)))


def corner_fixed(theta: RectSubstitution) -> tuple[RectSubstitution, int]:
    """Replace theta by the power whose corner maps are all identity."""
    m = corner_fixing_power(theta)
    return power(theta, m), m


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


@functools.cache
def corner_order(d: int) -> tuple[Vec, ...]:
    """Canonical enumeration of the seed support {-1, 0}^d."""
    return tuple(itertools.product((-1, 0), repeat=d))


@dataclass(frozen=True, slots=True)
class Seed:
    """Pattern on {-1, 0}^d, stored in the canonical corner order."""

    dim: int
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) != 1 << self.dim:
            raise ValidationError("a seed needs exactly 2^d entries")

    @classmethod
    def constant(cls, d: int, symbol: int) -> "Seed":
        return cls(d, (symbol,) * (1 << d))

    def corner(self, u: Vec) -> int:
        return self.symbols[corner_order(self.dim).index(u)]

    def with_corner(self, u: Vec, symbol: int) -> "Seed":
        i = corner_order(self.dim).index(u)
        syms = list(self.symbols)
        syms[i] = symbol
        return Seed(self.dim, tuple(syms))

    def pattern(self) -> Pattern:
        """As a 2x...x2 pattern anchored at (-1, ..., -1)."""
        cells = bytes(map(self.symbols.__getitem__, _seed_cell_order(self.dim)))
        return Pattern((-1,) * self.dim, (2,) * self.dim, cells)


@functools.lru_cache(maxsize=8)
def _seed_cell_order(d: int) -> tuple[int, ...]:
    """The `corner_order` place of each seed cell, in cell order (axis 0 fastest)."""
    place = {u: i for i, u in enumerate(corner_order(d))}
    return tuple(map(place.__getitem__, Rect((-1,) * d, (0,) * d).cells()))


def _corner_maps(theta: RectSubstitution) -> list[bytes]:
    """The position map P_o of the cell o that stays on each seed corner u, in
    `corner_order`: o is the high end of axis i where u_i = -1, else the low end.
    Corner u of theta(seed) is P_o(a) for the symbol a on u."""
    size, strides = theta.size, _strides(theta.size)
    cells = (sum((n - 1) * st for ui, n, st in zip(u, size, strides) if ui) for u in corner_order(theta.dim))
    return [bytes(r.cells[o] for r in theta.rules) for o in cells]


def _seed_stepper(theta: RectSubstitution):
    """The seed step, one inflation step of a seed, on bare corner-order symbol tuples."""
    maps = _corner_maps(theta)
    return lambda syms: tuple(map(bytes.__getitem__, maps, syms))


def all_seeds(theta: RectSubstitution) -> Iterator[Seed]:
    n = len(theta.alphabet)
    for syms in itertools.product(range(n), repeat=1 << theta.dim):
        yield Seed(theta.dim, syms)


@dataclass(frozen=True)
class SeedCycles:
    """Cycle structure of the seed dynamics."""

    cycles: tuple[tuple[Seed, ...], ...]  # each cycle in traversal order

    @property
    def fixed(self) -> tuple[Seed, ...]:
        return tuple(c[0] for c in self.cycles if len(c) == 1)


def _cycle_symbols(theta: RectSubstitution) -> list[list[int]]:
    """Per corner, in `corner_order`, the symbols on a cycle of its corner map: the seeds on cycles of
    the seed step are their product, as the step acts corner by corner.  Refused before any is enumerated."""
    corners = 1 << theta.dim
    symbols = [[a for a, n in enumerate(_cycle_lengths(p)) if n] for p in _corner_maps(theta)]
    if (count := math.prod(map(len, symbols))) * corners > DEFAULT_CELL_CAP:
        raise CapExceeded(f"fixed_seeds would step {count} seeds of {corners} cells")
    return symbols


def fixed_seeds(theta: RectSubstitution) -> SeedCycles:
    """All cycles of the seed step, ordered by and started at their least seeds; a seed on a cycle of
    length L is theta^L-fixed.  Only the seeds of `_cycle_symbols` are stepped."""
    symbols, stepper = _cycle_symbols(theta), _seed_stepper(theta)
    cycles: list[tuple[Seed, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for start in itertools.product(*symbols):
        if start not in seen:
            cycle = [start]
            while (node := stepper(cycle[-1])) != start:
                cycle.append(node)
            cycles.append(tuple(Seed(theta.dim, syms) for syms in cycle))
            seen.update(cycle)
    return SeedCycles(tuple(cycles))


def _seed_periods(theta: RectSubstitution) -> dict[int, int]:
    """Period -> number of seeds of that period, the lcm of their corners' cycle lengths."""
    census = {1: 1}
    for p in _corner_maps(theta):
        lengths, merged = collections.Counter(filter(None, _cycle_lengths(p))), collections.Counter()
        for (period, seeds), (n, k) in itertools.product(census.items(), lengths.items()):
            merged[math.lcm(period, n)] += seeds * k
        census = merged
    return census
