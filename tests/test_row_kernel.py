"""The row kernel against the per-cell code it replaced (tests/oracles.py)."""

import itertools
import math
import random

import pytest
from oracles import (
    apply_oracle,
    from_rows_oracle,
    seed_pattern_oracle,
    subpattern_keys_oracle,
    subpattern_oracle,
    window_oracle,
)

from subsym import substitution
from subsym.errors import CapExceeded
from subsym.lattice import Rect
from subsym.points import AddressablePoint
from subsym.specio import BUNDLED, bundled_substitution
from subsym.substitution import (
    Pattern,
    all_seeds,
    apply,
    corner_fixed,
    fixed_seeds,
    is_bijective,
)


def random_pattern(rng, theta, max_side=4):
    d = theta.dim
    extent = tuple(rng.randint(1, max_side) for _ in range(d))
    anchor = tuple(rng.randint(-3, 3) for _ in range(d))
    cells = bytes(rng.randrange(len(theta.alphabet)) for _ in range(math.prod(extent)))
    return Pattern(anchor, extent, cells)


def rule_patches(theta, m):
    """theta^m(a) for every symbol a, built by the oracle."""
    out = []
    for a in range(len(theta.alphabet)):
        p = theta.rule(a)
        for _ in range(m - 1):
            p = apply_oracle(theta, p)
        out.append(p)
    return out


def lazy_point(theta, seed_index=0):
    theta_cf = corner_fixed(theta)[0] if is_bijective(theta) else theta
    fixed = fixed_seeds(theta_cf).fixed
    return AddressablePoint(theta_cf, fixed[seed_index % len(fixed)])


@pytest.mark.parametrize("name", BUNDLED)
def test_apply_matches_oracle(name):
    theta = bundled_substitution(name)
    for m in (1, 2, 3):
        for p in rule_patches(theta, m):
            assert apply(theta, p) == apply_oracle(theta, p)
            moved = p.translate((-2,) * theta.dim)
            assert apply(theta, moved) == apply_oracle(theta, moved)
    rng = random.Random(name)
    for _ in range(30):
        p = random_pattern(rng, theta)
        assert apply(theta, p) == apply_oracle(theta, p)


@pytest.mark.parametrize("name", BUNDLED)
def test_subpattern_keys_match_oracle(name):
    theta = bundled_substitution(name)
    rng = random.Random(name)
    patterns = rule_patches(theta, 2) + [random_pattern(rng, theta) for _ in range(5)]
    for shape in itertools.product((1, 2, 3), repeat=theta.dim):
        for p in patterns:
            assert list(p.subpattern_keys(shape)) == subpattern_keys_oracle(p, shape)


@pytest.mark.parametrize("name", BUNDLED)
def test_subpattern_matches_oracle(name):
    theta = bundled_substitution(name)
    rng = random.Random(name)
    for _ in range(30):
        p = random_pattern(rng, theta, max_side=5)
        r = p.rect()
        lo = tuple(rng.randint(a, b) for a, b in zip(r.lo, r.hi))
        hi = tuple(rng.randint(a, b) for a, b in zip(lo, r.hi))
        assert p.subpattern(Rect(lo, hi)) == subpattern_oracle(p, Rect(lo, hi))


@pytest.mark.parametrize("name", BUNDLED)
def test_from_rows_matches_oracle(name):
    theta = bundled_substitution(name)
    rng = random.Random(name)
    for _ in range(10):
        p = random_pattern(rng, theta)
        rows = list(p.cells)
        for e in p.extent[:-1]:  # innermost lists run along coordinate 0
            rows = [rows[i : i + e] for i in range(0, len(rows), e)]
        assert Pattern.from_rows(p.anchor, rows) == from_rows_oracle(p.anchor, rows) == p


@pytest.mark.parametrize("name", BUNDLED)
def test_seed_pattern_matches_oracle(name):
    theta = bundled_substitution(name)
    for seed in all_seeds(theta):
        assert seed.pattern() == seed_pattern_oracle(seed)


def window_rects(d):
    r = 4 if d < 3 else 2
    yield Rect.centered(d, r)  # contains the origin
    yield Rect((7,) * d, (7,) * d)  # one cell
    yield Rect((-1,) * d, (-1,) * d)
    yield Rect(tuple(range(3, 3 + d)), tuple(range(3 + r, 3 + r + d)))  # off the origin
    yield Rect((-2 * r - 5,) * d, (-r,) * d)
    yield Rect((2**40 - 3,) * d, (2**40 + r,) * d)


@pytest.mark.parametrize("name", BUNDLED)
def test_window_matches_symbol_at(name):
    theta = bundled_substitution(name)
    d = theta.dim
    for seed_index in (0, 1):
        x = lazy_point(theta, seed_index)
        for v in (0, 5, -5, 2**40, -(2**40)):
            for shift in {(v,) * d, (v,) + (-v,) * (d - 1)}:
                y = x.with_shift(shift)
                for r in window_rects(d):
                    assert y.window(r) == window_oracle(y, r), (shift, r)


@pytest.mark.parametrize("name", ["tm1d", "tm2d", "tm3d"])
def test_window_inner_levels_ignore_apply_cap(name, monkeypatch):
    # a window within its own cap is never refused by a larger inner level
    theta = bundled_substitution(name)
    d = theta.dim
    x = lazy_point(theta).with_shift((3,) * d)
    side = {1: 64, 2: 8, 3: 4}[d]
    r = Rect((-5,) * d, (side - 6,) * d)
    want = window_oracle(x, r)
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", side**d)
    with pytest.raises(CapExceeded):
        apply(theta, Pattern((0,) * d, (side,) * d, bytes(side**d)))
    assert x.window(r, cell_cap=side**d) == want



@pytest.mark.parametrize("name", ["tm1d", "tm2d"])
def test_window_far_shift_has_no_depth_limit(name):
    # about 1100 levels between the window and the seed, beyond the recursion limit
    theta = bundled_substitution(name)
    d = theta.dim
    for v in (2**1100 + 7, -(2**1100) - 3):
        x = lazy_point(theta).with_shift((v,) * d)
        for r in (Rect.centered(d, 2), Rect((v - 1,) * d, (v + 2,) * d)):
            assert x.window(r) == window_oracle(x, r), (v, r)
