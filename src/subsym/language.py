"""Finite-pattern languages of a substitutive subshift.

Two generation modes:

* minimal - shape-subpatterns of theta^k(a) for one fixed symbol a
  (primitivity makes the choice irrelevant);
* full - shape-subpatterns of theta^k applied to every seed that the
  seed dynamics keep on a cycle, i.e. the seeds that actually head
  finite limit points.

Generation accumulates over k and stops once a depth adds nothing new.
That stopping rule is a heuristic, so results carry a `stabilized` flag
rather than a completeness claim.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import substitution
from .errors import CapExceeded, ScopeError, ValidationError
from .lattice import Rect, Vec
from .substitution import (
    Pattern,
    RectSubstitution,
    Seed,
    apply,
    fixed_seeds,
    is_primitive,
)

DEFAULT_MAX_DEPTH = 8


@dataclass(frozen=True)
class PatchLanguage:
    """Deduplicated set of shape-patterns, keyed by raw cell bytes."""

    shape: Vec
    mode: str
    patterns: frozenset[bytes]
    depth_reached: int
    stabilized: bool

    def __len__(self) -> int:
        return len(self.patterns)

    def __contains__(self, key: bytes) -> bool:
        return key in self.patterns


def contains_pattern(lang: PatchLanguage, p: Pattern) -> bool:
    if p.extent != lang.shape:
        raise ValidationError(
            f"pattern shape {p.extent} does not match language shape {lang.shape}"
        )
    return p.cells in lang.patterns


def _root_patterns(theta: RectSubstitution, mode: str) -> list[Pattern]:
    if mode == "minimal":
        report = is_primitive(theta)
        if not report.primitive:
            raise ScopeError("minimal-mode language requires a primitive substitution")
        return [Pattern.single((0,) * theta.dim, 0)]
    if mode == "full":
        return [s.pattern() for s in fixed_seeds(theta).on_cycles]
    raise ValidationError(f"unknown language mode {mode!r}")


def patch_language(
    theta: RectSubstitution,
    shape: Vec,
    mode: str = "minimal",
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> PatchLanguage:
    """Generate the shape-pattern language by iterated inflation."""
    if max_depth < 1:
        raise ValidationError("max_depth must be >= 1")
    if any(x < 1 for x in shape) or len(shape) != theta.dim:
        raise ValidationError(f"bad shape {shape}")
    keys, depth, stabilized = _grow(theta, _root_patterns(theta, mode), shape, max_depth)
    return PatchLanguage(tuple(shape), mode, frozenset(keys), depth, stabilized)


def _grow(theta: RectSubstitution, patches: list[Pattern], shape: Vec,
          max_depth: int) -> tuple[set[bytes], int, bool]:
    """Inflate the roots level by level, collecting shape-windows, until a
    level adds nothing new; returns (windows, depth reached, stabilized)."""
    seen: set[bytes] = set()
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


@dataclass(frozen=True)
class SeedAdmissibility:
    admissible: bool
    depth_used: int
    stabilized: bool


def seed_admissible_minimal(theta: RectSubstitution, seed: Seed) -> SeedAdmissibility:
    """Does the seed's 2^d-cell pattern occur in the minimal language?

    The verdict always reports the generation depth it relied on: the
    depth needed for admissibility has no a-priori bound.
    """
    lang = patch_language(theta, (2,) * theta.dim, mode="minimal")
    return SeedAdmissibility(
        seed.pattern().cells in lang.patterns, lang.depth_reached, lang.stabilized
    )


@dataclass(frozen=True)
class PeriodicityReport:
    """Heuristic faithfulness scan: found periods are evidence, absence is not proof."""

    radius: int
    periods: tuple[Vec, ...]
    depth_used: int
    stabilized: bool


def periodicity_scan(theta: RectSubstitution, radius: int) -> PeriodicityReport:
    """Report vectors p (|p|_inf <= radius) leaving every generated pattern
    of side 2*radius invariant under translation by p."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    if radius == 0:
        return PeriodicityReport(0, (), 0, False)
    d = theta.dim
    shape = (2 * radius,) * d
    # union over every symbol's expansions; works for non-primitive input too
    roots = [Pattern.single((0,) * d, a) for a in range(len(theta.alphabet))]
    seen, depth, stabilized = _grow(theta, roots, shape, DEFAULT_MAX_DEPTH)
    zero = (0,) * d
    pats = [Pattern(zero, shape, c) for c in seen]
    periods = []
    for p_vec in itertools.product(range(-radius, radius + 1), repeat=d):
        if p_vec == zero:
            continue
        if all(_is_periodic(p, p_vec) for p in pats):
            periods.append(p_vec)
    return PeriodicityReport(radius, tuple(periods), depth, stabilized)


def _is_periodic(p: Pattern, v: Vec) -> bool:
    """p agrees with itself translated by v wherever both are defined;
    v must be shorter than p along every axis."""
    r = p.rect()
    overlap = Rect(tuple(max(l, l - x) for l, x in zip(r.lo, v)),
                   tuple(min(h, h - x) for h, x in zip(r.hi, v)))
    return p.subpattern(overlap).cells == p.subpattern(overlap.translate(v)).cells
