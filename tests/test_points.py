import contextlib
import io
import itertools
import json
import math
import os
import random
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    digit_walk_oracle,
    fixed_seeds_oracle,
    half_space_fracture_pair_oracle,
    quadrant_maps,
    quadrant_walk,
    run_walk,
    symbol_at_oracle,
)

from subsym import language, points
from subsym.cli import main
from subsym.errors import CapExceeded, ScopeError, SearchFailure, ValidationError
from subsym.lattice import Rect, vadd, vfloordiv, vsub, zero
from subsym.points import (
    DIGIT_TABLE_BYTES,
    AddressablePoint,
    OdometerCoord,
    contradiction_pair,
    half_space_fracture_pair,
    quadrant_cell_of,
    _digit_tables,
    _table_power,
    shift_point,
)
from subsym.specio import BUNDLED, bundled_substitution, parse_and_build
from subsym.substitution import (
    Alphabet,
    Pattern,
    RectSubstitution,
    Seed,
    apply,
    _strides,
    corner_fixed,
    corner_order,
    corner_fixing_power,
    fixed_seeds,
    is_bijective,
    power,
)

# The displayed two-sided Thue-Morse point: position 0 is just right of the dot.
PAPER_LEFT = "1001011001101001"   # positions -16 .. -1
PAPER_RIGHT = "0110100110010110"  # positions 0 .. 15


@pytest.fixture(scope="module")
def tm1d_point(tm1d):
    theta2, m = corner_fixed(tm1d)
    assert m == 2
    return AddressablePoint(theta2, Seed(1, (1, 0)))


def test_paper_point_near_origin(tm1d_point):
    assert tm1d_point.symbol_at((0,)) == 0
    assert tm1d_point.symbol_at((-1,)) == 1


def test_paper_point_window(tm1d_point):
    w = tm1d_point.window(Rect((-16,), (15,)))
    got = "".join(str(w.get((k,))) for k in range(-16, 16))
    assert got == PAPER_LEFT + PAPER_RIGHT


def test_paper_point_16_around_dot(tm1d_point):
    w = tm1d_point.window(Rect((-8,), (7,)))
    got = "".join(str(w.get((k,))) for k in range(-8, 8))
    assert got == PAPER_LEFT[8:] + PAPER_RIGHT[:8]


def test_symbol_via_digit_composition(tm1d):
    # index 5 of theta^3(0) = 01101001 -> 0, computed by brute force
    brute = power(tm1d, 3).rule(0).get((5,))
    assert brute == 0
    theta2, _ = corner_fixed(tm1d)
    x = AddressablePoint(theta2, Seed(1, (0, 0)))
    assert x.symbol_at((5,)) == brute


def test_window_equals_materialized_power(corpus):
    from subsym.substitution import fixed_seeds, is_bijective

    for theta in corpus.values():
        theta_cf = corner_fixed(theta)[0] if is_bijective(theta) else theta
        fixed = fixed_seeds(theta_cf).fixed
        if not fixed:
            continue
        seed = fixed[0]
        x = AddressablePoint(theta_cf, seed)
        per_rule = 1
        for s in theta_cf.size:
            per_rule *= s
        m = 1
        while per_rule ** (m + 1) <= 2**16:
            m += 1
        for mm in range(1, m + 1):
            patch = power(theta_cf, mm).rule(seed.corner((0,) * theta.dim))
            assert x.window(patch.rect()) == patch


def test_symbol_depth_independence(corpus):
    # querying through an enlarged window must not change any symbol
    from subsym.substitution import fixed_seeds, is_bijective

    rng = random.Random(99)
    for theta in corpus.values():
        theta_cf = corner_fixed(theta)[0] if is_bijective(theta) else theta
        fixed = fixed_seeds(theta_cf).fixed
        if not fixed:
            continue
        x = AddressablePoint(theta_cf, fixed[-1])
        d = theta.dim
        small = x.window(Rect((-8,) * d, (7,) * d))
        big = x.window(Rect((-64,) * d, (63,) * d)) if d == 1 else x.window(
            Rect((-16,) * d, (15,) * d)
        )
        for _ in range(200):
            k = tuple(rng.randint(-8, 7) for _ in range(d))
            assert small.get(k) == big.get(k) == x.symbol_at(k)


def test_unfixed_seed_gives_the_theta_squared_point(tm1d):
    # tm1d itself fixes no seed: (0, 0) steps to (1, 0) and back, so its
    # point is the one theta^2 grows from it
    seed = Seed(1, (0, 0))
    x, x2 = AddressablePoint(tm1d, seed, (5,)), AddressablePoint(power(tm1d, 2), seed, (5,))
    rect = Rect((-40,), (39,))
    assert x.window(rect) == x2.window(rect)
    for k in [*range(-40, 40), 2**70, -(2**70) + 3]:
        assert x.symbol_at((k,)) == x2.symbol_at((k,)), k


def test_m_independence_bulk(corpus):
    """Digit walks of depth m and m+1 agree with symbol_at, 1e5 coordinates
    per bundled substitution (the fixed-depth oracle walk)."""
    rng = random.Random(5150)
    for theta in corpus.values():
        theta_cf = corner_fixed(theta)[0] if is_bijective(theta) else theta
        x = AddressablePoint(theta_cf, fixed_seeds(theta_cf).fixed[0])
        s = theta_cf.size
        d = theta.dim
        m = 1
        while min(s) ** m <= 10**5:
            m += 1
        for _ in range(100_000):
            k = tuple(rng.randint(-(10**5), 10**5) for _ in range(d))
            # the depth-(m+1) walk reads one more digit, a top 0: it is the
            # depth-m walk started from the digit-0 map's image of the seed
            u, walk = quadrant_walk(x, k, m)
            sym = x.seed.corner(u)
            top = quadrant_maps(theta_cf, u)[0][sym]
            assert run_walk(walk, sym) == run_walk(walk, top) == x.symbol_at(k)


# -- symbol_at against the one-digit-per-level oracle -------------------------

SHIFT_SIZES = (0, 5, -5, 2**40, -(2**40))


def eligible(theta):
    return corner_fixed(theta)[0] if is_bijective(theta) else theta


def probe_coords(x, rng):
    """The quadrant seams at the shift, coordinates one either side of the
    digit boundaries +-(s^c)^j and of the chunk boundaries +-(b^k)^j (b^k
    the radix of the axis's chunk table) on each axis and on all axes at
    once, and random coordinates up to 2^60."""
    bases, _, axes, _ = _digit_tables(x.theta, _table_power(x.theta))
    chunk_radices = tuple(radix for radix, _, _ in axes)
    assert chunk_radices == tuple(len(chunk) for _, _, chunk in axes)
    d, v = x.dim, x.shift
    coords = list(itertools.product(*((c, c - 1) for c in v)))
    for radices in (bases, chunk_radices):
        for j in (1, 2, 3):
            for sign in (1, -1):
                for e in (0, -1):
                    offs = [sign * b**j + e for b in radices]
                    coords.append(tuple(c + o for c, o in zip(v, offs)))
                    for i in range(d):
                        coords.append(tuple(c + (offs[i] if a == i else 0) for a, c in enumerate(v)))
    coords += [tuple(rng.randint(-(2**60), 2**60) for _ in range(d)) for _ in range(4)]
    return list(dict.fromkeys(coords))  # a chunk of one digit repeats the digit boundaries


def assert_matches_oracle(theta, rng):
    fixed = fixed_seeds(theta).fixed
    assert fixed
    for seed in fixed:
        for size in SHIFT_SIZES:
            # signs alternate over the axes, so mixed quadrants get a far shift too
            shift = tuple(size if i % 2 == 0 else -size for i in range(theta.dim))
            x = AddressablePoint(theta, seed, shift)
            for k in probe_coords(x, rng):
                want = symbol_at_oracle(x, k)
                assert x.symbol_at(k) == digit_walk_oracle(x, k) == want, (seed, shift, k)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_symbol_at_matches_oracle(name):
    assert_matches_oracle(eligible(bundled_substitution(name)), random.Random(name))


def test_symbol_at_matches_oracle_on_unequal_axes(two_by_three):
    theta = eligible(two_by_three)
    bases = _digit_tables(theta, _table_power(theta))[0]
    assert theta.size == (4, 9) and bases[0] != bases[1]
    assert_matches_oracle(theta, random.Random(23))


def test_symbol_at_matches_oracle_on_wide_fields():
    # a rule of 257 x 256 cells: even theta's own tables exceed the budget, so
    # c = 1, and the flat offsets need more than 16 bits a field; the axes
    # take chunks of 1 and 2 digits
    rng, size = random.Random(65792), (257, 256)
    low_bit = bytes(i & 1 for i in range(256))
    rule = rng.randbytes(math.prod(size)).translate(low_bit)
    rules = tuple(Pattern((0, 0), size, rule.translate(bytes((a, a ^ 1)) + bytes(254))) for a in range(2))
    theta = RectSubstitution(Alphabet(("0", "1")), size, rules)
    assert is_bijective(theta) and _table_power(theta) == 1
    _, _, axes, fmt = _digit_tables(theta, 1)
    assert struct.calcsize(fmt) == 4 and [radix for radix, _, _ in axes] == [257, 256**2]
    for symbols, shift in [((0, 0, 0, 0), (0, 0)), ((0, 1, 1, 0), (5, -5)), ((1, 0, 0, 1), (-(2**40), 2**40))]:
        x = AddressablePoint(theta, Seed(2, symbols), shift)
        far = [tuple(rng.choice((-1, 1)) * (2**1100 + rng.randrange(2**1099)) for _ in range(2)) for _ in range(4)]
        for k in probe_coords(x, rng) + far:
            assert x.symbol_at(k) == digit_walk_oracle(x, k), (symbols, shift, k)
        for lo in (vsub(shift, (2, 2)), vadd(shift, (255, 65534)), vsub(shift, (259, 65538))):
            r = Rect(lo, vadd(lo, (4, 4)))
            assert x.window(r) == Pattern(lo, r.extent(), bytes(digit_walk_oracle(x, k) for k in r.cells()))


def test_symbol_at_has_no_depth_limit(corpus, two_by_three):
    rng = random.Random(1100)

    def far(d):
        return tuple(rng.choice((-1, 1)) * (2**1100 + rng.randrange(2**1099)) for _ in range(d))

    for theta in [*corpus.values(), two_by_three]:
        theta = eligible(theta)
        for seed in fixed_seeds(theta).fixed[:2]:
            for shift in (zero(theta.dim), far(theta.dim)):
                x = AddressablePoint(theta, seed, shift)
                for _ in range(5):
                    k = far(theta.dim)
                    assert x.symbol_at(k) == symbol_at_oracle(x, k)


def test_digit_tables_fill_the_budget(corpus, two_by_three):
    for theta in [*corpus.values(), two_by_three]:
        theta = eligible(theta)
        bases, quadrants, axes, fmt = _digit_tables(theta, _table_power(theta))
        per_level = math.prod(theta.size)
        c = round(math.log(math.prod(bases), per_level))
        assert bases == tuple(si**c for si in theta.size)
        assert len(quadrants) == 1 << theta.dim
        assert all(len(rules) == len(theta.alphabet) for rules in quadrants)
        used = sum(len(r) for rules in quadrants for r in rules)
        assert used <= DIGIT_TABLE_BYTES < used * per_level
        # the all-non-negative quadrant is theta^c itself
        assert quadrants[-1] == tuple(r.cells for r in power(theta, c).rules)
        # one chunk table per axis: the largest k with b^k <= prod(s^c) cells
        # of a rule of theta^c, the k terms digit * stride of each chunk, as a
        # tuple in 1-d and in k fields of w bits, 2^w >= prod(s^c), in d >= 2
        assert len(axes) == theta.dim
        w = 8 * struct.calcsize(fmt)
        assert math.prod(bases) <= 1 << w and (w == 16 or math.prod(bases) > 1 << w // 2)
        for b, stride, (radix, bits, chunk) in zip(bases, _strides(bases), axes):
            k = bits // w
            assert radix == len(chunk) == b**k <= math.prod(bases) < b ** (k + 1)
            for r, entry in enumerate(chunk):
                if theta.dim > 1:  # k fields of w bits, nothing above them
                    assert entry >> bits == 0, r
                    entry = tuple(entry >> w * i & ((1 << w) - 1) for i in range(k))
                assert entry == tuple(r // b**i % b * stride for i in range(k)), r
    assert _digit_tables.cache_info().maxsize is not None


def table_caches():
    """The lru_caches defined in `points` and `language`."""
    return [
        f
        for module in (points, language)
        for f in vars(module).values()
        if hasattr(f, "cache_info") and f.__module__ == module.__name__
    ]


def test_table_caches_are_bounded():
    caches = table_caches()
    assert {f.__name__ for f in caches} >= {"_digit_tables", "_window_plan"}
    assert all(f.cache_info().maxsize is not None for f in caches), caches


def test_importing_the_cli_fills_no_table_cache():
    names = [f"{f.__module__}.{f.__name__}" for f in table_caches()]
    code = (
        "import importlib, subsym.cli\n"
        f"for name in {names!r}:\n"
        "    module, _, attr = name.rpartition('.')\n"
        "    print(name, getattr(importlib.import_module(module), attr).cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(points.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [f"{name} 0" for name in names]


@pytest.fixture
def counted_builds(monkeypatch):
    """Number of digit-table builds since the cache was emptied."""
    builds = []
    real_power = points.power
    monkeypatch.setattr(points, "power", lambda *a: builds.append(a) or real_power(*a))
    points._digit_tables.cache_clear()
    return builds


def test_tables_are_shared(tm2d, counted_builds):
    theta = eligible(tm2d)
    seed = fixed_seeds(theta).fixed[0]
    x = AddressablePoint(theta, seed, (3, -4))
    early = x.with_shift((7, 7))  # cloned before the first query
    assert x.symbol_at((100, -100)) == symbol_at_oracle(x, (100, -100))
    late = shift_point(x, (-9, 2))
    twin = AddressablePoint(eligible(bundled_substitution("tm2d")), seed)
    assert twin.theta is not theta
    for y in (early, late, twin):
        assert y.symbol_at((-50, 60)) == symbol_at_oracle(y, (-50, 60))
        assert y._tables is x._tables
    assert len(counted_builds) == 1


def test_window_builds_no_tables(tm2d, counted_builds, monkeypatch):
    # windows read theta's own tables (c = 1): no theta^c table, no power above 1
    built = []
    real_tables = points._digit_tables
    monkeypatch.setattr(points, "_digit_tables", lambda theta, c: built.append(c) or real_tables(theta, c))
    x = AddressablePoint(eligible(tm2d), Seed(2, (0, 1, 1, 0)), (5, -5))
    x.window(Rect((-8, -8), (7, 7)))
    assert x._tables is None and built == [1]
    for argv in (
        ["point", "tm2d", "--seed", "0,1,1,0", "--shift=3,-2", "--window", "4"],
        ["fracture", "tm2d", "--axis", "1", "--window", "8"],
        ["lang", "tm2d", "--shape", "2,3", "--mode", "full"],
        ["lang", "tm3d", "--shape", "2,2,2", "--mode", "minimal"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert set(built) == {1} and all(m == 1 for _, m in counted_builds)


# -- shifts and the odometer coordinate ---------------------------------------

def test_shift_zero_identity(tm1d_point):
    assert shift_point(tm1d_point, (0,)).shift == tm1d_point.shift


def test_shift_moves_symbols(tm1d_point):
    y = shift_point(tm1d_point, (5,))
    for k in range(-8, 8):
        assert y.symbol_at((k,)) == tm1d_point.symbol_at((k - 5,))


def test_wrong_length_vectors_are_rejected(tm2d):
    x = AddressablePoint(eligible(tm2d), Seed(2, (0, 1, 1, 0)), (3, -4))
    for v in ((), (5,), (5, 3, 7)):
        with pytest.raises(ValidationError):
            x.symbol_at(v)
        with pytest.raises(ValidationError):
            x.with_shift(v)
        with pytest.raises(ValidationError):
            shift_point(x, v)
        with pytest.raises(ValidationError):
            AddressablePoint(x.theta, x.seed, v)
        if v:
            with pytest.raises(ValidationError):
                x.window(Rect(v, v))
    assert x.symbol_at((5, 3)) == symbol_at_oracle(x, (5, 3))


def test_phi_fixed_point_is_zero(tm1d_point):
    coord = tm1d_point.phi(6)
    assert all(r == (0,) for r in coord.residues)


def test_phi_examples(dbl):
    # a size-2 substitution with fixed seeds: residues are taken mod 2, 4, 8
    from subsym.substitution import fixed_seeds

    x = AddressablePoint(dbl, fixed_seeds(dbl).fixed[0])
    x3 = shift_point(x, (3,))
    assert [r[0] for r in x3.phi(3).residues] == [1, 3, 3]
    xm1 = shift_point(x, (-1,))
    assert [r[0] for r in xm1.phi(3).residues] == [1, 3, 7]


def test_phi_additivity(corpus):
    from subsym.substitution import fixed_seeds, is_bijective

    rng = random.Random(31337)
    for theta in corpus.values():
        theta_cf = corner_fixed(theta)[0] if is_bijective(theta) else theta
        fixed = fixed_seeds(theta_cf).fixed
        if not fixed:
            continue
        x = AddressablePoint(theta_cf, fixed[0])
        d = theta.dim
        for _ in range(100):
            k = tuple(rng.randint(-1000, 1000) for _ in range(d))
            lhs = shift_point(x, k).phi(8)
            rhs = x.phi(8).add_integer(k)
            assert lhs == rhs


def test_odometer_coherence_enforced():
    with pytest.raises(ValidationError):
        OdometerCoord((2,), ((1,), (0,)))
    OdometerCoord((2,), ((1,), (3,)))  # 3 mod 2 == 1, coherent


def test_odometer_precision_is_its_number_of_residues():
    assert OdometerCoord((2,), ()).precision == 0
    assert OdometerCoord((2,), ((1,), (3,))).precision == 2
    for precision in range(5):
        coord = OdometerCoord.from_integer((5, -7), (2, 3), precision)
        assert coord.precision == len(coord.residues) == precision
        assert coord.add_integer((1, 1)).precision == precision


# -- desubstitution ------------------------------------------------------------

def test_desubstitute_reconstruction(tm2d):
    # x = sigma_k1(theta(y)) for k1 = shift mod s and y the point of the same
    # fixed seed at shift // s
    theta_cf, _ = corner_fixed(tm2d)
    from subsym.substitution import fixed_seeds

    seed = fixed_seeds(theta_cf).fixed[3]
    x = AddressablePoint(theta_cf, seed, (5, -2))
    s = theta_cf.size
    k1 = tuple(v % b for v, b in zip(x.shift, s))
    y = AddressablePoint(theta_cf, seed, vfloordiv(x.shift, s))
    for k in Rect((-32, -32), (31, 31)).cells():
        rel = tuple(a - b for a, b in zip(k, k1))
        block = tuple(r // b for r, b in zip(rel, s))
        inner = tuple(r % b for r, b in zip(rel, s))
        assert x.symbol_at(k) == theta_cf.rule(y.symbol_at(block)).get(inner)


# -- contradiction pairs -------------------------------------------------------

def _check_pair_masks(pair, rect):
    wx = pair.x.window(rect)
    wy = pair.y.window(rect)
    for k in rect.cells():
        assert (wx.get(k) == wy.get(k)) == pair.expected_equal(k), k


def test_contradiction_pair_2d(tm2d):
    theta_cf, _ = corner_fixed(tm2d)
    pair = contradiction_pair(theta_cf, (1, 1))
    assert pair.complement_on_quadrant
    _check_pair_masks(pair, Rect((-64, -64), (63, 63)))


def test_contradiction_pair_1d(tm1d):
    theta_cf, _ = corner_fixed(tm1d)
    pair = contradiction_pair(theta_cf, (1,))
    _check_pair_masks(pair, Rect((-256,), (255,)))


def test_contradiction_pair_3d(tm3d):
    theta_cf, _ = corner_fixed(tm3d)
    pair = contradiction_pair(theta_cf, (1, 1, 1))
    _check_pair_masks(pair, Rect((-16, -16, -16), (15, 15, 15)))


def test_contradiction_pair_other_quadrants(tm2d):
    theta_cf, _ = corner_fixed(tm2d)
    for u in ((-1, 1), (1, -1), (-1, -1)):
        pair = contradiction_pair(theta_cf, u)
        _check_pair_masks(pair, Rect((-32, -32), (31, 31)))


def test_contradiction_pair_binary_complement(tm2d):
    theta_cf, _ = corner_fixed(tm2d)
    pair = contradiction_pair(theta_cf, (1, 1))
    rect = Rect((0, 0), (31, 31))
    wx, wy = pair.x.window(rect), pair.y.window(rect)
    for k in rect.cells():
        assert wx.get(k) == 1 - wy.get(k)


def test_contradiction_pair_general_alphabet(cyc3):
    theta_cf, _ = corner_fixed(cyc3)
    pair = contradiction_pair(theta_cf, (1,))
    assert not pair.complement_on_quadrant
    _check_pair_masks(pair, Rect((-81,), (80,)))


def test_contradiction_pair_requires_bijective(dbl):
    from subsym.substitution import Alphabet, RectSubstitution

    alpha = Alphabet(("0", "1"))
    theta = RectSubstitution(
        alpha,
        (2,),
        (
            Pattern((0,), (2,), bytes([0, 1])),
            Pattern((0,), (2,), bytes([0, 0])),
        ),
    )
    with pytest.raises(ScopeError):
        contradiction_pair(theta, (1,))


# -- half-space fracture pairs ---------------------------------------------

def test_half_space_pair_2d(tm2d):
    theta_cf, _ = corner_fixed(tm2d)
    for axis in (0, 1):
        pair = half_space_fracture_pair(theta_cf, axis)
        rect = Rect((-64, -64), (63, 63))
        wx, wy = pair.x.window(rect), pair.y.window(rect)
        for k in rect.cells():
            assert (wx.get(k) == wy.get(k)) == (k[axis] >= 0)


def test_half_space_pair_1d(tm1d):
    theta_cf, _ = corner_fixed(tm1d)
    pair = half_space_fracture_pair(theta_cf, 0)
    rect = Rect((-128,), (127,))
    wx, wy = pair.x.window(rect), pair.y.window(rect)
    for k in rect.cells():
        assert (wx.get(k) == wy.get(k)) == (k[0] >= 0)


@pytest.mark.parametrize("name, half", [("tm1d", 64), ("tm2d", 16), ("cyc3", 40), ("tm3d", 4)])
def test_half_space_pair_expected_equal_matches_its_points(name, half):
    theta = bundled_substitution(name)
    rect = Rect((-half,) * theta.dim, (half - 1,) * theta.dim)
    for axis in range(theta.dim):
        pair = half_space_fracture_pair(theta, axis)
        for k in rect.cells():
            assert pair.expected_equal(k) == (pair.x.symbol_at(k) == pair.y.symbol_at(k)), (axis, k)


def test_half_space_pair_needs_no_fixed_seeds(tm1d):
    # tm1d itself has no fixed seed; its pair's seeds lie on cycles
    from subsym.symmetry import fracture_normal_witness

    assert fracture_normal_witness(tm1d, 0, window=128).ok


def random_bijective_spec(seed):
    """A spec whose position maps are seeded random permutations: d <= 3, n <= 4, sides 2-3."""
    rng = random.Random(seed)
    d, n = rng.randint(1, 3), rng.randint(2, 4)
    size = [rng.randint(2, 3) for _ in range(d)]
    columns = [rng.sample("abcd"[:n], n) for _ in range(math.prod(size))]
    rules = {}
    for a, name in enumerate("abcd"[:n]):
        rows = [col[a] for col in columns]  # axis 0 fastest, nested with the last axis outermost
        for side in size[:-1]:
            rows = [rows[i : i + side] for i in range(0, len(rows), side)]
        rules[name] = rows
    return {"name": f"r{seed}", "dim": d, "size": size, "alphabet": list("abcd"[:n]), "rules": rules}


def random_bijective(seed):
    return parse_and_build(json.dumps(random_bijective_spec(seed)))[1]


def _pair_outcome(search, theta, axis):
    try:
        pair = search(theta, axis)
    except SearchFailure:
        return "SearchFailure"
    return pair.x.seed, pair.y.seed, pair.axis


# on seeds 145 and 189 theta has a pair of fixed seeds along one axis and none along the other
@pytest.mark.parametrize("source", sorted(BUNDLED) + list(range(24)) + [145, 189])
def test_half_space_pair_matches_oracle(source):
    # on the corner-fixing power theta^m, where every seed is fixed, the pair
    # is the first one the double loop over fixed seeds finds.  The oracle
    # reads theta^m's columns whole several times per axis, so theta^m joins
    # only up to 2^20 cells: the 9M-cell theta^6 of a 3-d, 3-symbol rule
    # takes 15 s here.  On theta itself the pair is x = 0 on every corner and
    # y = 1 on the lower ones, and its windows pass the witness
    from subsym.symmetry import fracture_normal_witness

    theta = bundled_substitution(source) if isinstance(source, str) else random_bijective(source)
    m = corner_fixing_power(theta)
    if len(theta.alphabet) * math.prod(theta.size) ** m <= 2**20:
        theta_m = power(theta, m)
        for axis in range(theta.dim):
            want = _pair_outcome(half_space_fracture_pair_oracle, theta_m, axis)
            assert _pair_outcome(half_space_fracture_pair, theta_m, axis) == want, axis
    for axis in range(theta.dim):
        pair = half_space_fracture_pair(theta, axis)
        lower = tuple(int(u[axis] == -1) for u in corner_order(theta.dim))
        assert (pair.x.seed.symbols, pair.y.seed.symbols) == ((0,) * len(lower), lower)
        assert fracture_normal_witness(theta, axis, window=6).ok, axis


def small_power_specs(count, cells=2**16):
    """The first `count` random bijective specs whose corner-fixing power
    theta^m has at most `cells` cells, as (theta, theta^m)."""
    out, seed = [], 0
    while len(out) < count:
        theta = random_bijective(seed)
        m = corner_fixing_power(theta)
        if len(theta.alphabet) * math.prod(theta.size) ** m <= cells:
            out.append((theta, power(theta, m)))
        seed += 1
    return out


def test_theta_points_are_the_corner_fixing_power_points():
    # a seed on a cycle heads the same point under theta as under theta^m,
    # which fixes it: windows and symbols agree, at shifts up to 2^70, and the
    # symbols match the oracle walks that step the corner symbols back
    rng = random.Random(2070)
    for theta, theta_m in small_power_specs(120):
        d, n = theta.dim, len(theta.alphabet)
        for _ in range(2):
            seed = Seed(d, tuple(rng.randrange(n) for _ in range(1 << d)))
            shift = tuple(rng.randint(-(2**70), 2**70) for _ in range(d))
            x, x_m = AddressablePoint(theta, seed, shift), AddressablePoint(theta_m, seed, shift)
            rect = Rect.centered(d, 3).translate(shift)
            assert x.window(rect) == x_m.window(rect), (theta.size, seed, shift)
            for k in [shift, *(tuple(rng.randint(-(2**72), 2**72) for _ in range(d)) for _ in range(3))]:
                want = symbol_at_oracle(x, k)
                assert x.symbol_at(k) == x_m.symbol_at(k) == digit_walk_oracle(x, k) == want, (seed, shift, k)


def test_desubstitute_point_steps_the_seed_back(tm2d):
    # (0, 0, 0, 1) is not fixed by tm2d's seed step: the point of the seed one
    # step back on its cycle, (0, 1, 1, 1) at shift // s, is y with sigma_k1(theta(y)) = x
    x = AddressablePoint(tm2d, Seed(2, (0, 0, 0, 1)), (13, -6))
    rect, s = Rect((-9, -9), (8, 8)), tm2d.size
    k1 = tuple(v % b for v, b in zip(x.shift, s))
    y = AddressablePoint(tm2d, Seed(2, (0, 1, 1, 1)), vfloordiv(x.shift, s))
    assert y.shift == (6, -3)
    lo, hi = (tuple((a - b) // si for a, b, si in zip(c, k1, s)) for c in (rect.lo, rect.hi))
    image = apply(tm2d, y.window(Rect(lo, hi))).translate(k1).subpattern(rect)
    assert image == x.window(rect)


def test_off_cycle_seed_is_rejected():
    # 0 -> 01, 1 -> 00: at the low corner 1 maps to 0 and 0 to itself, so 1
    # is on no cycle there; the high corner swaps 0 and 1
    from subsym.substitution import Alphabet, RectSubstitution

    rules = (Pattern((0,), (2,), bytes([0, 1])), Pattern((0,), (2,), bytes([0, 0])))
    theta = RectSubstitution(Alphabet(("0", "1")), (2,), rules)
    with pytest.raises(ScopeError, match="not on a cycle"):
        AddressablePoint(theta, Seed(1, (0, 1)))
    x = AddressablePoint(theta, Seed(1, (0, 0)))  # period 2, not fixed
    for k in range(-20, 20):
        assert x.symbol_at((k,)) == symbol_at_oracle(x, (k,)) == x.window(Rect((-20,), (19,))).get((k,))


@pytest.mark.parametrize("symbols", [(0, 7), (0, 2), (0, -1), (-2, 1), (255, 0)])
def test_seed_symbol_outside_the_alphabet_is_rejected(tm1d, tm2d, symbols):
    # a corner map indexed past its end raised IndexError, and one indexed
    # from its end called a symbol -1 off its cycle
    with pytest.raises(ValidationError, match=r"outside \[0, 2\)"):
        AddressablePoint(tm1d, Seed(1, symbols))
    with pytest.raises(ValidationError, match=r"outside \[0, 2\)"):
        AddressablePoint(tm2d, Seed(2, (1, 0) + symbols))


@pytest.mark.parametrize("seed", range(24))
def test_analyze_counts_the_fixed_seeds_of_the_corner_fixing_power(seed, tmp_path):
    theta = random_bijective(seed)
    spec = tmp_path / "r.json"
    spec.write_text(json.dumps(random_bijective_spec(seed)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(spec)]) == 0
    lines = out.getvalue().splitlines()
    cycles = fixed_seeds_oracle(theta).cycles
    assert f"seed_cycles={len(cycles)} fixed_seeds={sum(len(c) == 1 for c in cycles)}" in lines
    try:
        want = len(fixed_seeds(power(theta, corner_fixing_power(theta))).fixed)
    except CapExceeded:
        return
    assert f"fixed_seeds_after_corner_fixing={want}" in lines


def test_quadrant_cell_convention():
    assert quadrant_cell_of((0, 0)) == (0, 0)
    assert quadrant_cell_of((-1, 3)) == (-1, 0)
    assert quadrant_cell_of((5, -2)) == (0, -1)


# -- random binary bijective substitutions ------------------------------------


def _random_binary_bijective(draw, max_dim=2, max_side=3):
    from subsym.substitution import Alphabet, RectSubstitution

    d = draw(st.integers(1, max_dim))
    size = tuple(draw(st.integers(2, max_side)) for _ in range(d))
    cells = draw(
        st.lists(
            st.integers(0, 1), min_size=math.prod(size), max_size=math.prod(size)
        )
    )
    zero = (0,) * d
    rule0 = Pattern(zero, size, bytes(cells))
    rule1 = Pattern(zero, size, bytes(1 - c for c in cells))
    return RectSubstitution(Alphabet(("0", "1")), size, (rule0, rule1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_binary_contradiction_pairs(data):
    # any binary rule with complementary patches is bijective; after corner
    # fixing, flipping one seed corner flips exactly that quadrant
    from subsym.substitution import is_bijective

    theta = _random_binary_bijective(data.draw)
    assert is_bijective(theta)
    theta_cf, _ = corner_fixed(theta)
    u = tuple(data.draw(st.sampled_from((-1, 1))) for _ in range(theta.dim))
    pair = contradiction_pair(theta_cf, u)
    rect = Rect((-6,) * theta.dim, (5,) * theta.dim)
    wx, wy = pair.x.window(rect), pair.y.window(rect)
    for k in rect.cells():
        assert (wx.get(k) == wy.get(k)) == pair.expected_equal(k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_desubstitution_roundtrip(data):
    theta = _random_binary_bijective(data.draw)
    theta_cf, _ = corner_fixed(theta)
    from subsym.substitution import fixed_seeds

    seeds = fixed_seeds(theta_cf).fixed
    seed = seeds[data.draw(st.integers(0, len(seeds) - 1))]
    shift = tuple(data.draw(st.integers(-50, 50)) for _ in range(theta.dim))
    x = AddressablePoint(theta_cf, seed, shift)
    s = theta_cf.size
    k1 = tuple(v % b for v, b in zip(shift, s))
    y = AddressablePoint(theta_cf, seed, vfloordiv(shift, s))
    assert all(0 <= c < b for c, b in zip(k1, s))
    for k in Rect((-5,) * theta.dim, (4,) * theta.dim).cells():
        rel = tuple(a - b for a, b in zip(k, k1))
        block = tuple(r // b for r, b in zip(rel, s))
        inner = tuple(r % b for r, b in zip(rel, s))
        assert x.symbol_at(k) == theta_cf.rule(y.symbol_at(block)).get(inner)
