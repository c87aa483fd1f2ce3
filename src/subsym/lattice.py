"""Integer-lattice geometry.

Vectors are plain tuples of ints, rectangles are inclusive boxes, and all
predicates run in exact integer arithmetic (no floats anywhere: the cone
tests below feed property tests that must not suffer rounding).

Axes are 0-based throughout the package.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import ScopeError, ValidationError

Vec = tuple[int, ...]

#: Sanity bound on rectangle cell counts (distinct from the smaller
#: materialization caps used by pattern/window operations).
MAX_RECT_CELLS = 2**62


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vmul(a: Vec, b: Vec) -> Vec:
    """Componentwise product."""
    return tuple(x * y for x, y in zip(a, b))


def vfloordiv(a: Vec, b: Vec) -> Vec:
    return tuple(x // y for x, y in zip(a, b))


def zero(d: int) -> Vec:
    return (0,) * d


def unit(d: int, axis: int, sign: int = 1) -> Vec:
    v = [0] * d
    v[axis] = sign
    return tuple(v)


def spow(s: Vec, m: int) -> Vec:
    """Componentwise power s^m."""
    return tuple(x**m for x in s)


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned box with inclusive bounds."""

    lo: Vec
    hi: Vec

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValidationError("rect bounds have mismatched dimensions")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValidationError(f"rect with lo > hi: {self.lo} .. {self.hi}")
        if self.cell_count() > MAX_RECT_CELLS:
            raise ValidationError("rect cell count out of machine range")

    @classmethod
    def box(cls, extent: Vec) -> "Rect":
        """[0, extent - 1], the support of a patch anchored at 0."""
        return cls(zero(len(extent)), tuple(e - 1 for e in extent))

    @classmethod
    def centered(cls, d: int, radius: int) -> "Rect":
        return cls((-radius,) * d, (radius - 1,) * d)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def extent(self) -> Vec:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    def cell_count(self) -> int:
        return math.prod(h - l + 1 for l, h in zip(self.lo, self.hi))

    def contains(self, p: Vec) -> bool:
        return all(l <= x <= h for x, l, h in zip(p, self.lo, self.hi))

    def contains_rect(self, other: "Rect") -> bool:
        return self.contains(other.lo) and self.contains(other.hi)

    def translate(self, v: Vec) -> "Rect":
        return Rect(vadd(self.lo, v), vadd(self.hi, v))

    def cells(self) -> Iterator[Vec]:
        """Iterate cells with coordinate 0 varying fastest."""
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        for rev in itertools.product(*reversed(ranges)):
            yield tuple(reversed(rev))


@dataclass(frozen=True, slots=True)
class Quadrant:
    """Translate of a product of half-lines; `vertex` is the extremal point."""

    sign: Vec  # entries in {-1, +1}
    vertex: Vec

    def __post_init__(self) -> None:
        if any(u not in (-1, 1) for u in self.sign):
            raise ValidationError("quadrant signs must be +-1")
        if len(self.sign) != len(self.vertex):
            raise ValidationError("quadrant sign/vertex dimension mismatch")

    @classmethod
    def canonical(cls, sign: Vec) -> "Quadrant":
        return cls(tuple(sign), zero(len(sign)))

    @property
    def dim(self) -> int:
        return len(self.sign)

    def contains(self, p: Vec) -> bool:
        return all((x - v) * u >= 0 for x, v, u in zip(p, self.vertex, self.sign))

    def generators(self) -> list[Vec]:
        """The extremal ray directions u_i * e_i."""
        return [unit(self.dim, i, u) for i, u in enumerate(self.sign)]


def canonical_quadrants(d: int) -> list[Quadrant]:
    return [Quadrant.canonical(sign) for sign in itertools.product((1, -1), repeat=d)]


# ---------------------------------------------------------------------------
# Signed permutations (hyperoctahedral group)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SignedPerm:
    """Signed permutation matrix: column i is (-1)^signs[i] * e_{perm[i]}."""

    perm: Vec
    signs: Vec  # entries in {0, 1}

    def __post_init__(self) -> None:
        d = len(self.perm)
        if sorted(self.perm) != list(range(d)):
            raise ValidationError(f"not a permutation: {self.perm}")
        if len(self.signs) != d or any(t not in (0, 1) for t in self.signs):
            raise ValidationError(f"bad sign vector: {self.signs}")

    @classmethod
    def identity(cls, d: int) -> "SignedPerm":
        return cls(tuple(range(d)), (0,) * d)

    @property
    def dim(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.dim)) and not any(self.signs)

    def inverse_perm(self) -> Vec:
        inv = [0] * self.dim
        for i, p in enumerate(self.perm):
            inv[p] = i
        return tuple(inv)

    def apply(self, v: Vec) -> Vec:
        """Matrix-vector product A v."""
        out = [0] * self.dim
        for i, (p, t) in enumerate(zip(self.perm, self.signs)):
            out[p] = -v[i] if t else v[i]
        return tuple(out)

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """Matrix product self @ other (apply `other` first)."""
        perm = tuple(self.perm[p] for p in other.perm)
        signs = tuple(
            other.signs[i] ^ self.signs[other.perm[i]] for i in range(self.dim)
        )
        return SignedPerm(perm, signs)

    @functools.lru_cache(maxsize=1024)
    def table(self) -> bytes:
        """`bytes.translate` table of the map on the 2d signed axis labels,
        label i + d*s standing for (-1)^s e_i: composing is translating, as
        the key of self @ other is `other.key().translate(self.table())`."""
        d = self.dim
        labels = bytes(p + d * (s ^ t) for s in (0, 1) for p, t in zip(self.perm, self.signs))
        return labels + bytes(range(2 * d, 256))

    @functools.lru_cache(maxsize=1024)
    def key(self) -> bytes:
        """The images of the d positive axis labels; it determines the map."""
        return bytes(p + self.dim * t for p, t in zip(self.perm, self.signs))

    def inverse(self) -> "SignedPerm":
        inv = self.inverse_perm()
        signs = tuple(self.signs[inv[j]] for j in range(self.dim))
        return SignedPerm(inv, signs)

    def matrix(self) -> tuple[Vec, ...]:
        """Rows of the matrix."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for i, (p, t) in enumerate(zip(self.perm, self.signs)):
            rows[p][i] = -1 if t else 1
        return tuple(tuple(r) for r in rows)

    def det(self) -> int:
        return mat_det(self.matrix())


def signed_perm_group(d: int) -> list[SignedPerm]:
    """All 2^d * d! signed permutations, identity first, no duplicates."""
    return list(_signed_perm_group(d))


@functools.lru_cache(maxsize=8)
def _signed_perm_group(d: int) -> tuple[SignedPerm, ...]:
    if d < 1:
        raise ValidationError("d must be >= 1")
    if d > 6:
        raise ScopeError("signed_perm_group capped at d <= 6")
    ident = SignedPerm.identity(d)
    rest = [
        SignedPerm(perm, signs)
        for perm in itertools.permutations(range(d))
        for signs in itertools.product((0, 1), repeat=d)
        if not (perm == ident.perm and signs == ident.signs)
    ]
    return (ident, *rest)


# ---------------------------------------------------------------------------
# Exact unimodular-matrix predicates
# ---------------------------------------------------------------------------

IntMatrix = tuple[Vec, ...]  # rows


def mat_vec(a: IntMatrix, v: Vec) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_det(a: IntMatrix) -> int:
    """Integer determinant by cofactor expansion (matrices here are tiny)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = tuple(
            tuple(row[k] for k in range(n) if k != j) for row in a[1:]
        )
        total += (-1) ** j * a[0][j] * mat_det(minor)
    return total


def mat_inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact integer inverse; requires |det a| = 1."""
    n = len(a)
    det = mat_det(a)
    if det not in (1, -1):
        raise ScopeError(f"matrix is not unimodular (det={det})")
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(a[r][c] for c in range(n) if c != j)
                for r in range(n)
                if r != i
            )
            cof[i][j] = (-1) ** (i + j) * (mat_det(minor) if n > 1 else 1)
    # adjugate / det; det is +-1 so this stays integral
    return tuple(tuple(cof[j][i] * det for j in range(n)) for i in range(n))


def cone_contains_quadrant(a: IntMatrix, q: Quadrant) -> bool:
    """Exact test for A * Q_1 containing the canonical quadrant `q`.

    Since A is unimodular, u_j e_j lies in the cone generated by the columns
    of A exactly when A^-1 (u_j e_j) is componentwise nonnegative.
    """
    if q.vertex != zero(len(a)):
        raise ScopeError("cone_contains_quadrant expects vertex 0")
    inv = mat_inverse_unimodular(a)
    for g in q.generators():
        if any(c < 0 for c in mat_vec(inv, g)):
            return False
    return True


def point_in_cone(a: IntMatrix, p: Vec) -> bool:
    """p in A * Q_1, i.e. A^-1 p componentwise nonnegative."""
    return all(c >= 0 for c in mat_vec(mat_inverse_unimodular(a), p))


def line_intersection_finite(a: IntMatrix, p: Vec, axis: int) -> bool:
    """True iff (p + Z e_axis) meets A * Q_1 in finitely many points.

    The intersection is infinite exactly when one of +-e_axis has a
    componentwise-nonnegative coefficient vector in the column basis of A.
    """
    inv = mat_inverse_unimodular(a)
    if any(c < 0 for c in mat_vec(inv, p)):
        raise ScopeError(f"{p} is not in the image cone")
    e = unit(len(p), axis)
    w = mat_vec(inv, e)
    if all(c >= 0 for c in w) or all(c <= 0 for c in w):
        return False
    return True


ELEMENTARY_2D: tuple[IntMatrix, ...] = (
    ((1, 1), (0, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 0), (-1, 1)),
    ((0, 1), (1, 0)),
    ((-1, 0), (0, 1)),
)


def random_unimodular(rng, d: int = 2, max_word: int = 12) -> IntMatrix:
    """Random unimodular matrix as a short word in elementary matrices.

    Only d = 2 is wired up; that is all the property suites need.
    """
    if d != 2:
        raise ScopeError("random_unimodular currently supports d = 2 only")
    m: IntMatrix = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, max_word)):
        m = mat_mul(m, ELEMENTARY_2D[rng.randrange(len(ELEMENTARY_2D))])
    return m
