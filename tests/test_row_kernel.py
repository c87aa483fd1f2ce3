"""The row kernel against the per-cell code it replaced (tests/oracles.py)."""

import itertools
import math
import random
import time

import pytest
from oracles import (
    apply_oracle,
    from_rows_oracle,
    infinite_supertile_cell,
    patch_symmetry_apply_oracle,
    glyph_oracle,
    seed_pattern_by_corner_oracle,
    seed_pattern_oracle,
    shifted_window_oracle,
    subpatch_oracle,
    subpattern_keys_oracle,
    subpattern_oracle,
    supertile_oracle,
    verify_patch_oracle,
    window_oracle,
)

from subsym import robinson as rob
from subsym import substitution
from subsym.errors import CapExceeded, ValidationError
from subsym.language import patch_language
from subsym.lattice import Rect
from subsym.points import AddressablePoint
from subsym.specio import BUNDLED, bundled_substitution, ppm_image, render_pattern_text
from subsym.substitution import (
    Pattern,
    Seed,
    all_seeds,
    apply,
    corner_fixed,
    fixed_seeds,
    is_bijective,
    power,
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
    for p in patterns:  # the whole pattern is its one window
        assert list(p.subpattern_keys(p.extent)) == subpattern_keys_oracle(p, p.extent) == [p.cells]


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


@pytest.mark.parametrize("d", (1, 2, 3))
def test_seed_pattern_matches_the_corner_lookup(d):
    for symbols in itertools.product(range(3), repeat=1 << d):
        seed = Seed(d, symbols)
        assert seed.pattern() == seed_pattern_by_corner_oracle(seed) == seed_pattern_oracle(seed)


def test_text_render_glyphs_match_oracle():
    every_byte = Pattern((0,), (256,), bytes(range(256)))
    assert render_pattern_text(every_byte) == "".join(map(glyph_oracle, range(256))) + "\n"


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
    assert x.window(r) == want


def test_every_materialization_reads_the_one_cell_cap(tm2d, monkeypatch):
    # each call needs exactly n cells: it passes at a cap of n and is refused at n - 1
    x = lazy_point(tm2d)
    calls = [
        (60, CapExceeded, lambda: apply(tm2d, Pattern((0, 0), (3, 5), bytes(15)))),
        (128, CapExceeded, lambda: power(tm2d, 3)),
        (72, CapExceeded, lambda: x.window(Rect((-3, -2), (4, 6)))),
        (36, CapExceeded, lambda: patch_language(tm2d, (2, 2))),  # theta of a 2x2 block
        (24, ValidationError, lambda: ppm_image((2, 3), bytes(6), 2)),
    ]
    for n, refusal, call in calls:
        monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", n)
        call()
        monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", n - 1)
        with pytest.raises(refusal):
            call()



@pytest.mark.parametrize("name", ["tm1d", "tm2d"])
def test_window_far_shift_has_no_depth_limit(name):
    # about 1100 levels between the window and the seed, beyond the recursion limit
    theta = bundled_substitution(name)
    d = theta.dim
    for v in (2**1100 + 7, -(2**1100) - 3):
        x = lazy_point(theta).with_shift((v,) * d)
        for r in (Rect.centered(d, 2), Rect((v - 1,) * d, (v + 2,) * d)):
            assert x.window(r) == window_oracle(x, r), (v, r)


# -- Robinson: block assembly and flat tile buffers -------------------------------

ARM_CONFIGS = ("vertical", "horizontal")


@pytest.mark.parametrize("orient", rob.ORIENTATIONS)
def test_supertile_matches_oracle(orient):
    for n in range(1, 9):
        assert rob.supertile(n, orient) == supertile_oracle(n, orient), n


@pytest.mark.parametrize("arm_config", ARM_CONFIGS)
def test_four_quadrant_window_matches_oracle(arm_config):
    for r in (1, 2, 3, 7, 8, 15, 16, 31, 32, 33, 64, 256):
        assert rob.four_quadrant_window(r, arm_config) == shifted_window_oracle(r, 0, arm_config), r


@pytest.mark.parametrize("arm_config", ARM_CONFIGS)
def test_shifted_window_matches_oracle(arm_config):
    for r in (1, 3, 8, 16):
        for dy in (-6, -1, 0, 1, 14):
            want = shifted_window_oracle(r, dy, arm_config)
            assert rob._shifted_window(r, dy, arm_config) == want, (r, dy)


@pytest.mark.parametrize("orient", rob.ORIENTATIONS)
def test_limit_row_walk_matches_oracle(orient):
    # rows far beyond the cached order, arm rows (d = 2^j - 1) among them
    for width in (1, 3, 4):
        for d in [*range(40), 2**20 - 2, 2**20 - 1, 2**20, 3 * 2**30 + 5]:
            got = rob._limit_row(rob._supertile_rows(width.bit_length()), orient, d, width)
            # in x order; the corner is the right end of the row in the west-facing quadrants
            want = bytes(infinite_supertile_cell(orient, dx, d) for dx in range(width))
            assert (got[::-1] if orient[1] == "W" else got) == want, (width, d)


def test_fracture_demo_far_shift_matches_oracle():
    for k in (10**12, -(10**12)):
        start = time.perf_counter()
        patch = rob.fracture_shift_demo(4, k)
        assert time.perf_counter() - start < 1.0
        assert patch == shifted_window_oracle(4, 2 * k, "vertical")


def _sample_patches():
    return [
        rob.supertile(5, "SW"),
        rob.four_quadrant_window(9, "horizontal"),
        rob.fracture_shift_demo(7, 3),
    ]


def test_subpatch_matches_oracle():
    rng = random.Random(7)
    for patch in _sample_patches():
        (x0, y0), (x1, y1) = patch.rect.lo, patch.rect.hi
        for _ in range(40):
            xs = sorted(rng.randint(x0, x1) for _ in range(2))
            ys = sorted(rng.randint(y0, y1) for _ in range(2))
            r = Rect((xs[0], ys[0]), (xs[1], ys[1]))
            assert patch.subpatch(r) == subpatch_oracle(patch, r)


def test_dihedral_images_match_oracle():
    # off-origin w != h sub-boxes too: a quarter turn swaps the two extents
    rng = random.Random(5)
    patches = _sample_patches() + [rob.supertile(1)]
    for patch in _sample_patches():
        (x0, y0), (x1, y1) = patch.rect.lo, patch.rect.hi
        rects = []
        while len(rects) < 20:
            lo = (rng.randint(x0, x1), rng.randint(y0, y1))
            hi = (rng.randint(lo[0], x1), rng.randint(lo[1], y1))
            if lo != (0, 0) and hi[0] - lo[0] != hi[1] - lo[1]:
                rects.append(Rect(lo, hi))
        patches += [patch.subpatch(r) for r in rects]
    for patch in patches:
        for g in rob.dihedral_group():
            assert g.apply(patch) == patch_symmetry_apply_oracle(g, patch)


def test_verify_patch_matches_oracle_on_swaps():
    # the CLI prints the first 50 violations, so the list must agree in order too;
    # each defective patch is also moved to a random anchor, negative ones included,
    # so both phases of the cross coset against the row start are checked
    rng = random.Random(11)
    for trial in range(60):
        patch = rng.choice(rob.dihedral_group()).apply(rng.choice(_sample_patches()))
        tiles = bytearray(patch.tiles)
        for _ in range(rng.randint(0, 5)):
            i, j = rng.randrange(len(tiles)), rng.randrange(len(tiles))
            tiles[i], tiles[j] = tiles[j], tiles[i]
        parity = (rng.randint(0, 1), rng.randint(0, 1))
        lo = (rng.randint(-7, 7), rng.randint(-7, 7))
        moved = Rect(lo, tuple(a + e - 1 for a, e in zip(lo, patch.rect.extent())))
        for rect in (patch.rect, moved):
            defective = rob.RobinsonPatch(rect, bytes(tiles), parity)
            assert rob.verify_patch(defective) == verify_patch_oracle(defective), trial


@pytest.mark.parametrize("extent", [(1, 1), (2, 1), (1, 2)])
def test_verify_patch_matches_oracle_on_every_small_patch(extent):
    # every tile pair at every phase of anchor and parity: each rule, alone in its row
    n = math.prod(extent)
    for tiles in itertools.product(range(len(rob.TILES)), repeat=n):
        for lo, parity in itertools.product(((0, 0), (-1, 2)), ((0, 0), (0, 1), (1, 0), (1, 1))):
            rect = Rect(lo, tuple(a + e - 1 for a, e in zip(lo, extent)))
            patch = rob.RobinsonPatch(rect, bytes(tiles), parity)
            assert rob.verify_patch(patch) == verify_patch_oracle(patch), (tiles, lo, parity)


def test_patch_stores_tile_ids_as_bytes():
    ids = tuple(rob.supertile(2).tiles)
    patch = rob.RobinsonPatch(Rect.box((3, 3)), ids, (2, 3))
    assert isinstance(patch.tiles, bytes) and tuple(patch.tiles) == ids
    assert patch == rob.RobinsonPatch(Rect.box((3, 3)), bytes(ids), (0, 1))
