import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    fixed_seeds_oracle,
    is_primitive_oracle,
    perm_order_oracle,
    position_map_oracle,
    seed_step_oracle,
)

from subsym import substitution
from subsym.errors import CapExceeded, ScopeError, ValidationError
from subsym.lattice import Rect
from subsym.substitution import (
    Alphabet,
    Pattern,
    RectSubstitution,
    Seed,
    all_seeds,
    apply,
    corner_fixed,
    corner_fixing_power,
    corner_order,
    fixed_seeds,
    is_bijective,
    is_primitive,
    power,
)


def word(p: Pattern) -> str:
    r = p.rect()
    return "".join(str(p.get((k,))) for k in range(r.lo[0], r.hi[0] + 1))


# -- apply -------------------------------------------------------------------

def test_equal_patterns_hash_equal():
    rows = Pattern((1, -2), (3, 2), bytes([0, 1, 1]) + bytes([1, 0, 0]))
    same = Pattern((1, -2), (3, 2), bytes([0, 1, 1, 1, 0, 0]))
    assert rows == same and hash(rows) == hash(same)
    assert len({rows, same, rows.translate((0, 0))}) == 1
    moved, other = rows.translate((1, 0)), Pattern((1, -2), (2, 3), rows.cells)
    assert moved != rows and other != rows and len({rows, moved, other}) == 3


def test_apply_single_letter(tm1d):
    out = apply(tm1d, Pattern.single((0,), 0))
    assert out.anchor == (0,) and word(out) == "01"


def test_apply_word(tm1d):
    p = Pattern((0,), (2,), bytes([0, 1]))
    assert word(apply(tm1d, p)) == "0110"


def test_apply_anchor_arithmetic(tm2d):
    out = apply(tm2d, Pattern.single((-1, -1), 0))
    assert out.anchor == (-2, -2)
    assert out.extent == (2, 2)
    # theta_inf(x)_{m*s+k} = theta(x_m)_k with m = (-1,-1)
    for k in Rect.box((2, 2)).cells():
        assert out.get((-2 + k[0], -2 + k[1])) == tm2d.rule(0).get(k)


# -- power -------------------------------------------------------------------

def test_power_tm1d_cube(tm1d):
    assert word(power(tm1d, 3).rule(0)) == "01101001"


def test_power_one_is_theta(corpus):
    for theta in corpus.values():
        assert power(theta, 1) is theta


def test_power_equals_iterated_apply(corpus):
    for theta in corpus.values():
        max_m = 5 if theta.dim == 1 else (4 if theta.dim == 2 else 3)
        for a in range(len(theta.alphabet)):
            patch = theta.rule(a)
            for m in range(2, max_m + 1):
                patch = apply(theta, patch)
                assert power(theta, m).rule(a) == patch


def test_power_tm2d_corner_cell(tm2d):
    # brute-force double application as the oracle
    oracle = apply(tm2d, tm2d.rule(0))
    assert power(tm2d, 2).rule(0).get((3, 3)) == oracle.get((3, 3)) == 0


# -- primitivity / bijectivity -----------------------------------------------

def test_primitive_tm1d(tm1d):
    rep = is_primitive(tm1d)
    assert rep.primitive and rep.witness_power == 1


def test_not_primitive_dbl(dbl):
    rep = is_primitive(dbl)
    assert not rep.primitive
    assert (0, 1) in rep.missing and (1, 0) in rep.missing


def test_primitive_cyc3(cyc3):
    rep = is_primitive(cyc3)
    assert rep.primitive and rep.witness_power == 1


def symbols(n):
    return Alphabet(tuple(f"s{a}" for a in range(n)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.integers(2, 7), st.integers(0, 2**32 - 1), st.floats(0, 1))
def test_is_primitive_matches_oracle(d, n, seed, stay):
    # with probability `stay` a cell keeps its rule's own symbol or the next,
    # so the draws cover both verdicts and long witness powers
    rng = random.Random(seed)
    size = tuple(rng.randint(2, 3) for _ in range(d))
    rules = tuple(
        Pattern((0,) * d, size, bytes(
            rng.choice((a, (a + 1) % n)) if rng.random() < stay else rng.randrange(n)
            for _ in range(math.prod(size))
        ))
        for a in range(n)
    )
    theta = RectSubstitution(symbols(n), size, rules)
    assert is_primitive(theta) == is_primitive_oracle(theta)


@pytest.mark.parametrize("n", range(2, 12))
def test_is_primitive_longest_witness(n):
    # the n-cycle with one chord has exponent (n - 1)^2 + 1, Wielandt's bound
    rules = [bytes([(a + 1) % n] * 2) for a in range(n - 1)] + [bytes([0, 1])]
    theta = RectSubstitution(symbols(n), (2,), tuple(Pattern((0,), (2,), r) for r in rules))
    assert is_primitive(theta) == is_primitive_oracle(theta)
    assert is_primitive(theta).witness_power == (n - 1) ** 2 + 1


def test_is_primitive_on_the_largest_alphabet():
    # 255 symbols: one 254-symbol primitive block and a fixed symbol that it never
    # reaches; the oracle would step 255^2 products of 255^3 list operations
    n = 255
    rules = [bytes([a, (a + 1) % (n - 1)]) for a in range(n - 1)] + [bytes([n - 1, n - 1])]
    theta = RectSubstitution(symbols(n), (2,), tuple(Pattern((0,), (2,), r) for r in rules))
    rep = is_primitive(theta)
    assert not rep.primitive and rep.witness_power is None
    assert rep.missing == tuple((a, n - 1) for a in range(n - 1)) + tuple((n - 1, b) for b in range(n - 1))


def test_bijective(tm2d, rig3):
    assert is_bijective(tm2d)
    assert is_bijective(rig3)


def test_not_bijective_constant_column():
    alpha = Alphabet(("0", "1"))
    zero = (0,)
    theta = RectSubstitution(
        alpha,
        (2,),
        (Pattern(zero, (2,), bytes([0, 1])), Pattern(zero, (2,), bytes([0, 0]))),
    )
    assert not is_bijective(theta)


def test_bijective_powers(corpus):
    for theta in corpus.values():
        if not is_bijective(theta):
            continue
        for m in range(2, 5):
            assert is_bijective(power(theta, m))


# -- position maps -----------------------------------------------------------

def test_position_maps_tm1d(tm1d):
    # substitution._columns holds the position map P_k of each cell k, in cell order
    assert substitution._columns(tm1d) == [bytes((0, 1)), bytes((1, 0))]


def test_position_map_rig3(rig3):
    # third letters of 123, 212, 331
    assert substitution._columns(rig3)[2] == bytes((2, 1, 0))


def test_position_map_matches_oracle(corpus, two_by_three):
    for theta in [*corpus.values(), two_by_three, power(corpus["tm3d"], 2)]:
        columns = substitution._columns(theta)
        for i, k in enumerate(theta.support().cells()):
            assert columns[i] == bytes(position_map_oracle(theta, k)), k


# -- corner fixing power -----------------------------------------------------

def test_cfp_tm1d(tm1d):
    assert corner_fixing_power(tm1d) == 2


def test_cfp_tm2d(tm2d):
    assert corner_fixing_power(tm2d) == 2


def test_cfp_cyc3(cyc3):
    # corner 0 map identity, corner 2 map is a 3-cycle
    assert corner_fixing_power(cyc3) == 3


def test_cfp_requires_bijective(dbl):
    # dbl is bijective (identity columns), so build a non-bijective input
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
        corner_fixing_power(theta)


def test_cfp_is_least(corpus):
    def box_corners(size):
        return list(itertools.product(*((0, s - 1) for s in size)))

    for theta in corpus.values():
        if not is_bijective(theta):
            continue
        m = corner_fixing_power(theta)
        theta_m = power(theta, m)
        for c in box_corners(theta_m.size):
            n = len(theta.alphabet)
            assert position_map_oracle(theta_m, c) == tuple(range(n))
        for k in range(1, m):
            theta_k = power(theta, k)
            assert any(
                position_map_oracle(theta_k, c) != tuple(range(len(theta.alphabet)))
                for c in box_corners(theta_k.size)
            )


# -- seeds -------------------------------------------------------------------

def test_seed_step_tm1d(tm1d):
    # corner order for d=1 is [(-1,), (0,)]; substitution._seed_stepper steps bare symbol tuples
    step = substitution._seed_stepper(tm1d)
    assert step((1, 0)) == (0, 0)
    assert step((0, 0)) == (1, 0)


def test_seed_step_identity_corners(dbl):
    step = substitution._seed_stepper(dbl)
    for seed in all_seeds(dbl):
        assert step(seed.symbols) == seed.symbols


def test_fixed_seeds_tm1d(tm1d):
    assert len(fixed_seeds(tm1d).fixed) == 0
    theta2 = power(tm1d, 2)
    cycles = fixed_seeds(theta2)
    assert len(cycles.fixed) == 4  # 2^(2^1)
    assert len(cycles.on_cycles) == 4


def test_fixed_seeds_tm2d(tm2d):
    theta2 = power(tm2d, 2)
    assert len(fixed_seeds(theta2).fixed) == 16  # 2^(2^2)


def test_fixed_seeds_cap_counts_every_seed_cell(tm2d, monkeypatch):
    # 2 symbols on 2^2 corners: 16 seeds of 4 cells, checked before any is stepped
    theta2 = power(tm2d, 2)
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 64)
    assert len(fixed_seeds(theta2).fixed) == 16
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 63)
    monkeypatch.setattr(substitution, "_seed_stepper", None)
    with pytest.raises(CapExceeded, match="16 seeds of 4 cells"):
        fixed_seeds(theta2)


def test_fixed_seeds_dbl(dbl):
    assert len(fixed_seeds(dbl).fixed) == 4


def test_seed_step_enters_cycle(corpus):
    # pigeonhole: iterating |A|^(2^d)+1 times must revisit a seed
    for theta in corpus.values():
        n_seeds = len(theta.alphabet) ** (1 << theta.dim)
        step = substitution._seed_stepper(theta)
        seed = next(iter(all_seeds(theta))).symbols
        seen = set()
        for _ in range(n_seeds + 1):
            if seed in seen:
                break
            seen.add(seed)
            seed = step(seed)
        else:
            pytest.fail("seed dynamics never entered a cycle")


def test_fixed_seeds_are_seed_step_fixed(corpus):
    for theta in corpus.values():
        cyc = fixed_seeds(theta)
        for seed in cyc.fixed:
            assert seed_step_oracle(theta, seed) == seed
        for cycle in cyc.cycles:
            for i, seed in enumerate(cycle):
                assert seed_step_oracle(theta, seed) == cycle[(i + 1) % len(cycle)]


def test_seed_dynamics_match_oracle(corpus):
    """The seed step and the cycles of fixed_seeds against the step read through
    Pattern.get, on every seed of every bundled spec and its corner-fixed power."""
    for theta in corpus.values():
        for t in [theta, corner_fixed(theta)[0]] if is_bijective(theta) else [theta]:
            step = {seed: seed_step_oracle(t, seed) for seed in all_seeds(t)}
            stepper = substitution._seed_stepper(t)
            assert all(stepper(seed.symbols) == image.symbols for seed, image in step.items())
            on_cycles = set()
            for seed in step:
                node = step[seed]
                for _ in step:
                    if node == seed:
                        on_cycles.add(seed)
                        break
                    node = step[node]
            cyc = fixed_seeds(t)
            assert len(cyc.on_cycles) == len(on_cycles) and set(cyc.on_cycles) == on_cycles
            assert set(cyc.fixed) == {seed for seed, image in step.items() if image == seed}


def random_rule(seed):
    """A seeded rule with d <= 3, n <= 4 and sides 2-3: its position maps are
    random permutations for even seeds and random maps for odd ones."""
    rng = random.Random(seed)
    d, n = rng.randint(1, 3), rng.randint(2, 4)
    size = tuple(rng.randint(2, 3) for _ in range(d))
    cells = math.prod(size)
    if seed % 2 == 0:
        columns = [rng.sample(range(n), n) for _ in range(cells)]
    else:
        columns = [[rng.randrange(n) for _ in range(n)] for _ in range(cells)]
    rules = tuple(Pattern((0,) * d, size, bytes(col[a] for col in columns)) for a in range(n))
    return RectSubstitution(Alphabet(tuple("abcd"[:n])), size, rules)


@pytest.fixture(scope="module")
def seed_cases(corpus):
    """(theta, its all-seeds walk) on the bundled specs, their corner-fixed
    powers and 200 seeded random rules."""
    rules = list(corpus.values())
    rules += [corner_fixed(theta)[0] for theta in corpus.values() if is_bijective(theta)]
    rules += [random_rule(seed) for seed in range(200)]
    return [(theta, fixed_seeds_oracle(theta)) for theta in rules]


def test_cycle_lengths_match_the_definition():
    # a is on a cycle of length L when L is the least k >= 1 with table^k(a) = a
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        table = [rng.randrange(n) for _ in range(n)]
        want = []
        for a in range(n):
            b, k = table[a], 1
            while b != a and k <= n:
                b, k = table[b], k + 1
            want.append(k if b == a else 0)
        assert substitution._cycle_lengths(table) == want
        perm = rng.sample(range(n), n)
        assert substitution._perm_order(perm) == perm_order_oracle(perm)


def test_fixed_seeds_matches_the_all_seeds_walk(seed_cases):
    # bijective: the same cycles in the same order and rotation; otherwise the
    # same cycles, ordered by least seed and each from its least seed
    for theta, want in seed_cases:
        got = fixed_seeds(theta)
        if is_bijective(theta):
            assert got == want
            continue
        assert set(got.fixed) == set(want.fixed) and set(got.on_cycles) == set(want.on_cycles)
        assert {frozenset(c) for c in got.cycles} == {frozenset(c) for c in want.cycles}
        firsts = [c[0].symbols for c in got.cycles]
        assert firsts == sorted(firsts) and all(c[0].symbols == min(s.symbols for s in c) for c in got.cycles)


def test_seed_census_counts_the_seed_cycles(seed_cases):
    # analyze reads seed_cycles and fixed_seeds from the census without stepping a seed
    for theta, want in seed_cases:
        lengths = [len(c) for c in want.cycles]
        periods = substitution._seed_periods(theta)
        assert periods == {L: lengths.count(L) * L for L in set(lengths)}
        assert sum(seeds // period for period, seeds in periods.items()) == len(lengths)
        assert periods.get(1, 0) == lengths.count(1)


def test_corner_maps_read_only_corner_cells(corpus, monkeypatch):
    # each seed corner u reads the cell that stays on u: the high end of axis i where u_i = -1
    want = {
        name: [
            bytes(position_map_oracle(theta, tuple(s - 1 if ui else 0 for ui, s in zip(u, theta.size))))
            for u in corner_order(theta.dim)
        ]
        for name, theta in corpus.items()
    }

    def no_columns(theta):
        raise AssertionError("the corner maps transposed the whole rule table")

    monkeypatch.setattr(substitution, "_columns", no_columns)
    for name, theta in corpus.items():
        assert substitution._corner_maps(theta) == want[name]


# -- binary complement relation ----------------------------------------------

def complement(p: Pattern) -> Pattern:
    """The binary pattern p with its two symbols swapped."""
    return Pattern(p.anchor, p.extent, bytes(1 - c for c in p.cells))


def test_binary_complement_relation(corpus):
    for theta in corpus.values():
        if len(theta.alphabet) != 2 or not is_bijective(theta):
            continue
        assert theta.rule(1) == complement(theta.rule(0))
        p = Pattern((0,) * theta.dim, (2,) * theta.dim, bytes(1 << theta.dim))
        assert apply(theta, complement(p)) == complement(apply(theta, p))


def test_alphabet_validation():
    with pytest.raises(ValidationError):
        Alphabet(("a",))
    with pytest.raises(ValidationError):
        Alphabet(("a", "a"))


@pytest.mark.parametrize("bad", [3, 4, 255])
def test_rule_cells_must_lie_in_alphabet(bad):
    alpha = Alphabet(("0", "1", "2"))
    rules = [Pattern((0, 0), (2, 2), bytes([0, 1, 2, 0])) for _ in range(3)]
    RectSubstitution(alpha, (2, 2), tuple(rules))
    rules[2] = Pattern((0, 0), (2, 2), bytes([0, 1, bad, 2]))
    with pytest.raises(ValidationError, match="^rule cell outside alphabet$"):
        RectSubstitution(alpha, (2, 2), tuple(rules))


def test_size_must_be_nontrivial():
    alpha = Alphabet(("0", "1"))
    with pytest.raises(ValidationError):
        RectSubstitution(
            alpha,
            (1,),
            (Pattern((0,), (1,), bytes([0])), Pattern((0,), (1,), bytes([1]))),
        )


def test_seed_corner_accessors():
    seed = Seed(2, (3, 2, 1, 0))
    for u, sym in zip(corner_order(2), (3, 2, 1, 0)):
        assert seed.corner(u) == sym
    assert seed.with_corner((-1, -1), 9).corner((-1, -1)) == 9
