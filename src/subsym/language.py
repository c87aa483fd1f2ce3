"""Finite-pattern languages of a substitutive subshift.

Two generation modes:

* minimal - shape-subpatterns of theta^k(a) for one fixed symbol a
  (primitivity makes the choice irrelevant);
* full - shape-subpatterns of theta^k applied to every seed on a cycle
  of the seed dynamics, the seeds that head finite limit points: those
  whose corner symbols each lie on a cycle of their corner map.

Generation accumulates the shape-windows of theta^k(roots) over k = 1, 2, ...
and stops at the first depth K + 1 >= 2 that adds none to a nonempty set.
The result is complete: no later depth adds a window either.

Why the stopping rule is a proof.  Let n be the shape, s the size and
q = ceil((n - 1) / s) + 1, all per axis, so q <= n.  A q-window
or an n-window of theta(P) covers at most q cells of P per axis, so it
lies in theta(w) for a q-window w of P once P is at least q wide.  The
roots share one extent (every caller's do), so the depth-k patches do
too, and they never shrink.  The windows S seen by depth K are nonempty,
so the depth-K patches are at least n wide, and so is every later one;
each q-window of such a patch lies in one of its n-windows.  Let C be the
q-windows of the n-windows in S: the q-windows of the depths j <= K whose
patches are n wide.  For w in C, a q-window of depth j, the q-windows and
n-windows of theta(w) are windows of depth j + 1 <= K + 1; depth K + 1
added no n-window, so they lie in C and in S.  By induction over k >= K,
every q-window of depth k lies in C and every n-window of depth k + 1 in
S.

The covering lemma behind `_grow`.  Let J be the least j >= 1 with
s^j + 1 >= n on every axis.  An n-window of theta^J(P) starts inside the
block theta^J(c) of a cell c of P and ends at most s^J + n - 2 < 2 s^J
cells past its start, so it meets at most two such blocks per axis: it
lies in theta^J(w) for a 2x...x2 window w of P, once P is 2 wide.  As
s >= 2, every 2x...x2 window of theta(P) lies in theta(w) for such a w.
So past J, depth k holds exactly the n-windows of theta^J(w) for the
2x...x2 windows w (blocks) of theta^(k - J)(roots), and each depth's
blocks are those of theta of the previous depth's.  A block met at depth
j gave its blocks to depth j + 1 and its windows to depth j, so a depth's
new blocks (met at no earlier depth) are among the blocks of theta of the
previous depth's new blocks, and only they can add a window.  `_grow`
reads depths 1..J off theta^depth of each root and, past J, keeps only
each depth's new blocks and reads theta^J of each once.  A depth that
brings no new block adds no window, and depth J + 1 finds windows
(2 s^J >= n), so growth stops within J + #blocks + 1 depths.

Each read of theta(w) is one gather through a plan, cached per (size,
extent, shape), that lists each column of theta(w) once: the cells of the
windows that start at one point of axes 0..d-2, over the whole last axis.
Each window is a slice of it, the cell cap counts the plan's entries, and
no depth builds theta^k(root) as a pattern.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from . import substitution
from .errors import CapExceeded, ScopeError, ValidationError
from .lattice import Rect, Vec, zero
from .substitution import (
    Pattern,
    RectSubstitution,
    Seed,
    _cycle_symbols,
    _run_starts,
    _seed_cell_order,
    _strides,
    is_primitive,
    power,
)

@dataclass(frozen=True)
class PatchLanguage:
    """Deduplicated set of shape-patterns, keyed by raw cell bytes."""

    shape: Vec
    mode: str
    patterns: frozenset[bytes]
    depth_reached: int

    def __len__(self) -> int:
        return len(self.patterns)


def _roots(theta: RectSubstitution, mode: str) -> tuple[Vec, Iterable[bytes]]:
    """The roots' extent and cells: symbol 0 in minimal mode; in full mode the seeds on cycles,
    each corner's on-cycle symbols placed on its cell of the 2x...x2 seed pattern."""
    if mode == "minimal":
        if not is_primitive(theta).primitive:
            raise ScopeError("minimal-mode language requires a primitive substitution")
        return (1,) * theta.dim, [b"\0"]
    if mode == "full":
        cells = map(_cycle_symbols(theta).__getitem__, _seed_cell_order(theta.dim))  # in cell order
        return (2,) * theta.dim, map(bytes, itertools.product(*cells))
    raise ValidationError(f"unknown language mode {mode!r}")


def patch_language(theta: RectSubstitution, shape: Vec, mode: str = "minimal") -> PatchLanguage:
    """The complete shape-pattern language, by iterated inflation."""
    if any(x < 1 for x in shape) or len(shape) != theta.dim:
        raise ValidationError(f"bad shape {shape}")
    keys, depth = _grow(theta, *_roots(theta, mode), shape)
    return PatchLanguage(tuple(shape), mode, frozenset(keys), depth)


def _grow(theta: RectSubstitution, extent: Vec, roots: Iterable[bytes], shape: Vec) -> tuple[set[bytes], int]:
    """Inflate the roots, the cells of patterns of that one extent, level by
    level, collecting shape-windows, until a level adds nothing new; returns
    (windows, depth reached).  The result holds every window of every level
    (module docstring).

    Levels 1..J read theta^depth of each root.  Past J a level's new
    2x...x2 blocks, those no earlier level met, are read off theta of the
    previous level's new blocks (of the roots at J + 1), and its windows
    off theta^J of them.  Two facts of the covering lemma make every
    (theta^j, extent, shape) read of a root or block the only one: roots
    of extent 2x...x2 are blocks of depth J, so no later level reads them
    again; and with shape 2x...x2 (J = 1) a level's windows are its
    blocks' blocks, so one read gives both.  Each level unions its reads
    into one set as it makes them, and nothing is kept per root or block.
    The cell cap refuses before allocating: theta^j's rules in `power`, a
    plan in `_read`.
    """
    two = (2,) * theta.dim
    top = next(j for j in itertools.count(1)  # J
               if all(s**j + 1 >= n for s, n in zip(theta.size, shape)))
    blocks = set(roots)  # the roots, then each level's new blocks past J
    met = blocks if extent == two else set()  # blocks from J on, grown once `blocks` is rebound
    seen: set[bytes] = set()
    for depth in itertools.count(1):
        if depth <= top:
            theta_j = power(theta, depth)
        windows = _read(theta_j, extent, blocks, shape)
        if depth > 1 and seen and seen.issuperset(windows):
            return seen, depth
        seen |= windows
        if depth >= top:
            if shape != two:
                windows = _read(theta, extent, blocks, two)
            blocks, extent = windows - met, two
            met |= blocks


def _read(theta: RectSubstitution, extent: Vec, ws: Iterable[bytes], shape: Vec) -> set[bytes]:
    """The union of the shape-windows of theta(w) over the windows ws of that extent, each
    a slice of one gather per w; a plan past the cell cap is refused before it is built."""
    offsets = [e * s - n + 1 for e, s, n in zip(extent, theta.size, shape)]
    if min(offsets) < 1:  # no window fits
        return set()
    # one column per window start on axes 0..d-2: its cross-section over the whole last axis
    entries = math.prod(offsets[:-1]) * math.prod(shape[:-1]) * extent[-1] * theta.size[-1]
    if entries > substitution.DEFAULT_CELL_CAP:
        raise CapExceeded(f"a language window plan would read {entries} cells")
    getter, starts = _window_plan(theta.size, extent, shape)
    rules, n = [r.cells for r in theta.rules], math.prod(shape)
    flats = (bytes(getter(b"".join(map(rules.__getitem__, w)))) for w in ws)
    return {flat[i : i + n] for flat in flats for i in starts}


@functools.lru_cache(maxsize=64)
def _window_plan(size: Vec, q: Vec, shape: Vec) -> tuple[itemgetter, list[int]]:
    """(getter, starts): the getter reads each column of theta(w), w of extent q, in cell
    order out of `b"".join(rules[a] for a in w)`, and the shape-windows are the slices
    [i, i + prod(shape)) of its output for i in starts; one fits.  Cell m * s + k of
    theta(w) is cell k of the rule of w's cell m: entry flat(m) * prod(s) + flat(k).  The
    last axis is the slowest, so a column's windows are slices at steps of
    prod(shape[:-1]); in 1-d the one column is theta(w).
    """
    extent = tuple(n * s for n, s in zip(q, size))
    offsets = tuple(e - n + 1 for e, n in zip(extent, shape))
    block = math.prod(size)
    axes = [
        [x // s * qs * block + x % s * ks for x in range(n * s)]
        for s, n, qs, ks in zip(size, q, _strides(q), _strides(size))
    ]
    # the entry of each cell of theta(w), in cell order (axis 0 fastest)
    entry = [sum(t) for t in itertools.product(*reversed(axes))]
    origin, column, corners = zero(len(q)), (*shape[:-1], extent[-1]), (*offsets[:-1], 1)
    runs = _run_starts(extent, origin, column)
    plan = [
        e
        for base in _run_starts(extent, origin, corners)
        for x in range(base, base + corners[0])
        for run in runs
        for e in entry[x + run : x + run + column[0]]
    ]
    step, length = math.prod(shape[:-1]), math.prod(column)
    starts = [c + t for c in range(0, len(plan), length) for t in range(0, offsets[-1] * step, step)]
    return itemgetter(*plan), starts


@dataclass(frozen=True)
class SeedAdmissibility:
    admissible: bool
    depth_used: int


def seed_admissible_minimal(theta: RectSubstitution, seed: Seed) -> SeedAdmissibility:
    """Does the seed's 2^d-cell pattern occur in the minimal language?

    The 2x...x2 language is complete, so the verdict is exact; `depth_used`
    is the depth at which its growth stopped, within J + #blocks + 1.
    """
    lang = patch_language(theta, (2,) * theta.dim, mode="minimal")
    return SeedAdmissibility(seed.pattern().cells in lang.patterns, lang.depth_reached)


@dataclass(frozen=True)
class PeriodicityReport:
    """Faithfulness scan: a found period holds on the whole language,
    absence is no proof of aperiodicity (longer periods are not scanned)."""

    radius: int
    periods: tuple[Vec, ...]
    depth_used: int


def periodicity_scan(theta: RectSubstitution, radius: int) -> PeriodicityReport:
    """Report vectors p (|p|_inf <= radius) leaving every pattern of side
    2*radius invariant under translation by p: the complete language of
    that side, grown from every symbol."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    if radius == 0:
        return PeriodicityReport(0, (), 0)
    d = theta.dim
    shape = (2 * radius,) * d
    # union over every symbol's expansions; works for non-primitive input too
    seen, depth = _grow(theta, (1,) * d, [bytes([a]) for a in range(len(theta.alphabet))], shape)
    zero = (0,) * d
    pats = [Pattern(zero, shape, c) for c in seen]
    periods = []
    for p_vec in itertools.product(range(-radius, radius + 1), repeat=d):
        if p_vec == zero:
            continue
        if all(_is_periodic(p, p_vec) for p in pats):
            periods.append(p_vec)
    return PeriodicityReport(radius, tuple(periods), depth)


def _is_periodic(p: Pattern, v: Vec) -> bool:
    """p agrees with itself translated by v wherever both are defined;
    v must be shorter than p along every axis."""
    r = p.rect()
    overlap = Rect(tuple(max(l, l - x) for l, x in zip(r.lo, v)),
                   tuple(min(h, h - x) for h, x in zip(r.hi, v)))
    return p.subpattern(overlap).cells == p.subpattern(overlap.translate(v)).cells
