import collections
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block_grow_oracle, grow_oracle, window_closure_oracle, window_image_oracle

from subsym import language, substitution
from subsym.errors import CapExceeded, ScopeError
from subsym.language import (
    _grow,
    _read,
    _roots,
    patch_language,
    periodicity_scan,
    seed_admissible_minimal,
)
from subsym.lattice import Rect, spow
from subsym.points import AddressablePoint
from subsym.specio import BUNDLED, build_substitution, bundled_substitution, parse_spec
from subsym.substitution import (
    Alphabet,
    Pattern,
    RectSubstitution,
    Seed,
    all_seeds,
    apply,
    corner_fixed,
    fixed_seeds,
    is_bijective,
    power,
)


def brute_subwords(theta, symbol, depth, shape):
    """Independent oracle: shape-windows of the materialized expansion."""
    patch = Pattern.single((0,) * theta.dim, symbol)
    seen = set()
    for _ in range(depth):
        patch = apply(theta, patch)
        seen.update(patch.subpattern_keys(shape))
    return seen


# -- generation ---------------------------------------------------------------

def test_tm1d_pairs(tm1d):
    lang = patch_language(tm1d, (2,))
    oracle = brute_subwords(tm1d, 0, 5, (2,))
    assert lang.patterns == frozenset(oracle)
    assert len(lang) == 4  # 00, 01, 10, 11 all occur


def test_tm1d_single_letters(tm1d):
    lang = patch_language(tm1d, (1,))
    assert (len(lang), lang.depth_reached) == (2, 2)


def thue_morse_complexity(n):
    """p(n), the number of factors of length n of the Thue-Morse word
    (Brlek 1989; de Luca-Varricchio 1989): with m = n - 1 = 2^r + q and
    0 < q <= 2^r, 3*2^r + 4q when 2q <= 2^r and 4*2^r + 2q otherwise."""
    if n <= 2:
        return 2 * n
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2**r
    return 3 * 2**r + 4 * q if 2 * q <= 2**r else 4 * 2**r + 2 * q


def test_tm1d_language_has_the_thue_morse_complexity(tm1d):
    # the words of theta^8(0) are 256 long: a growth cut at depth 8 falls
    # short from n = 66 on and holds no word of length 298
    for n in [*range(1, 71), 100, 129, 200, 256, 257, 298, 513]:
        assert len(patch_language(tm1d, (n,))) == thue_morse_complexity(n), n


def test_minimal_mode_requires_primitive(dbl):
    with pytest.raises(ScopeError):
        patch_language(dbl, (2,), mode="minimal")


def test_tm2d_full_strictly_contains_minimal(tm2d):
    lang_min = patch_language(tm2d, (2, 2), mode="minimal")
    lang_full = patch_language(tm2d, (2, 2), mode="full")
    assert lang_min.patterns < lang_full.patterns
    # pinned goldens from the brute-force oracle: the minimal 2x2 patterns
    # of the parity substitution are exactly the even-sum blocks
    assert len(lang_min) == 8 and len(lang_full) == 16
    assert all(sum(c) % 2 == 0 for c in lang_min.patterns)


def test_minimal_subset_of_full(corpus):
    for theta in corpus.values():
        from subsym.substitution import is_primitive

        if not is_primitive(theta).primitive:
            continue
        for side in (1, 2, 3):
            shape = (side,) * theta.dim
            if len(theta.alphabet) ** (side**theta.dim) > 1 << 16:
                continue
            lang_min = patch_language(theta, shape, mode="minimal")
            lang_full = patch_language(theta, shape, mode="full")
            assert lang_min.patterns <= lang_full.patterns


def test_monotone_in_depth(tm2d):
    # the windows of theta^1..theta^k(0) grow with k, all lie in the
    # complete language, and reach it by the depth its growth stopped at
    lang = patch_language(tm2d, (3, 3), mode="minimal")
    prev = set()
    for depth in range(1, lang.depth_reached + 2):
        found = brute_subwords(tm2d, 0, depth, (3, 3))
        assert prev <= found <= lang.patterns
        prev = found
    assert found == lang.patterns


def test_language_patterns_occur_in_points(tm2d):
    # every generated pattern appears in a window of some lazy point
    theta_cf, cfp = corner_fixed(tm2d)
    for side in (2, 3, 4):
        shape = (side, side)
        lang = patch_language(tm2d, shape, mode="full")
        reachable = set()
        j = 1
        while cfp * j < lang.depth_reached + cfp:
            j += 1
        for seed in fixed_seeds(theta_cf).fixed:
            x = AddressablePoint(theta_cf, seed)
            half = theta_cf.size[0] ** j
            w = x.window(Rect((-half, -half), (half - 1, half - 1)))
            reachable.update(w.subpattern_keys(shape))
        assert lang.patterns <= reachable


# -- full-mode roots: the seeds on cycles, read off the corner maps --------------

def full_root_specs(count):
    """The bundled specs, then `count` random rules of d <= 3, about half of
    them bijective (every cell's position map a permutation)."""
    yield from (bundled_substitution(name) for name in sorted(BUNDLED))
    rng = random.Random(30)
    for _ in range(count):
        d = rng.randint(1, 3)
        n = rng.randint(2, 5 - d)
        size = tuple(rng.randint(2, 3) for _ in range(d))
        if rng.random() < 0.5:
            columns = [rng.sample(range(n), n) for _ in range(math.prod(size))]
        else:
            columns = [[rng.randrange(n) for _ in range(n)] for _ in range(math.prod(size))]
        rules = tuple(Pattern((0,) * d, size, bytes(col[a] for col in columns)) for a in range(n))
        yield RectSubstitution(Alphabet(tuple("abcd"[:n])), size, rules)


def test_full_roots_are_the_patterns_of_the_seeds_on_cycles():
    bijective = collections.Counter()
    for theta in full_root_specs(1000):
        extent, roots = _roots(theta, "full")
        roots = list(roots)
        want = {seed.pattern().cells for c in fixed_seeds(theta).cycles for seed in c}
        assert extent == (2,) * theta.dim
        assert len(roots) == len(want) and set(roots) == want, theta
        bijective[is_bijective(theta)] += 1
    assert min(bijective[True], bijective[False]) > 400


def test_full_language_steps_no_seed(tm2d, tm3d, monkeypatch):
    def refuse(*args):
        raise AssertionError("a seed was stepped or built")

    monkeypatch.setattr(substitution, "fixed_seeds", refuse)
    monkeypatch.setattr(language, "fixed_seeds", refuse, raising=False)
    monkeypatch.setattr(Seed, "pattern", refuse)
    assert len(patch_language(tm2d, (2, 2), mode="full")) == 16
    assert len(patch_language(tm3d, (2, 2, 2), mode="full")) == 256
    # 2 symbols on each of 4 corners: 16 seeds of 4 cells, refused before any root is made
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 63)
    monkeypatch.setattr(language, "_grow", refuse)
    with pytest.raises(CapExceeded, match=r"^fixed_seeds would step 16 seeds of 4 cells$"):
        patch_language(tm2d, (2, 2), mode="full")


# -- growth on 2x...x2 blocks against the whole-patch loop ---------------------------

#: per dimension: shapes with J = 1 on the bundled specs of that dimension,
#: J being the least j >= 1 with s^j + 1 >= n on every axis, and shapes with J >= 2
SHAPES = {1: [(3,), (5,), (7,), (64,)], 2: [(2, 3), (3, 2), (5, 5), (8, 8)],
          3: [(2, 2, 2), (2, 2, 3), (3, 3, 3), (2, 2, 4)]}


def cover_power(size, shape):
    """J: the least j >= 1 with s^j + 1 >= n on every axis."""
    return next(j for j in itertools.count(1) if all(s**j + 1 >= n for s, n in zip(size, shape)))


def plan_cells(size, extent, shape):
    """The entries of the plan that reads every shape-window of theta(w),
    theta of that size and w of that extent, one column per window start on
    axes 0..d-2 over the whole last axis: 0 when no window fits."""
    offsets = [e * s - n + 1 for e, s, n in zip(extent, size, shape)]
    column = math.prod(shape[:-1]) * extent[-1] * size[-1]
    return math.prod(offsets[:-1]) * column if min(offsets) > 0 else 0


def growth_steps(theta, extent, shape, depth):
    """The cap oracle: what growth from roots of that extent allocates, level
    by level up to `depth` and in order, as (level, what, cells): theta^j's
    rules at levels j <= J, then the gather plans (size, extent, shape) that
    each level reads through, from the covering lemma of `subsym.language`."""
    top, two, steps = cover_power(theta.size, shape), (2,) * theta.dim, []
    for level in range(1, depth + 1):
        if level <= top:
            size = spow(theta.size, level)
            steps.append((level, level, math.prod(size) * len(theta.alphabet)))
            plans = [(size, extent, shape)]
        else:
            blocks = (theta.size, extent if level == top + 1 else two, two)
            plans = [blocks, (spow(theta.size, top), two, shape)]
        steps += [(level, plan, plan_cells(*plan)) for plan in plans]
    return steps


def root_sets(theta):
    """Minimal roots (primitive specs only), full roots, one root per symbol,
    each as (extent, cells)."""
    sets = {"full": _roots(theta, "full")}
    try:
        sets["minimal"] = _roots(theta, "minimal")
    except ScopeError:
        pass
    sets["per-symbol"] = ((1,) * theta.dim, [bytes([a]) for a in range(len(theta.alphabet))])
    return {kind: (extent, list(roots)) for kind, (extent, roots) in sets.items()}


def random_rule_roots(theta):
    """Symbol 0, every symbol and the full-mode roots, each as (extent, cells)."""
    one, (extent, full) = (1,) * theta.dim, _roots(theta, "full")
    return [(one, [b"\0"]), (one, [bytes([a]) for a in range(len(theta.alphabet))]), (extent, list(full))]


def as_patterns(extent, roots):
    """The roots of that extent as patterns, for the oracles."""
    return [Pattern((0,) * len(extent), extent, w) for w in roots]


def outcome(grow, *args):
    try:
        return grow(*args)
    except CapExceeded as exc:
        return "CapExceeded", str(exc)


def spy_plans(monkeypatch):
    """Record the (size, extent, shape) of every gather plan `_grow` reads through."""
    calls = []
    real = language._read

    def spy(theta, extent, ws, shape):
        calls.append((theta.size, extent, shape))
        return real(theta, extent, ws, shape)

    monkeypatch.setattr(language, "_read", spy)
    return calls


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_grow_matches_whole_patch_oracle(name, monkeypatch):
    theta = bundled_substitution(name)
    calls = spy_plans(monkeypatch)
    for kind, (extent, roots) in root_sets(theta).items():
        for shape in SHAPES[theta.dim]:
            want = grow_oracle(theta, as_patterns(extent, roots), shape)
            calls.clear()
            assert _grow(theta, extent, roots, shape) == want, (kind, shape)
            # every level read the plans the covering lemma gives it, levels
            # past J only 2x...x2 blocks, and no level a whole patch
            steps = growth_steps(theta, extent, shape, want[1])
            plans = [what for _, what, _ in steps if isinstance(what, tuple)]
            assert list(dict.fromkeys(calls)) == list(dict.fromkeys(plans)), (kind, shape)


@pytest.mark.parametrize("name, shape", [("tm2d", (2, 3)), ("tm3d", (2, 2, 2)), ("cyc3", (5,))])
def test_grow_cap_fires_at_the_oracle_depth(name, shape, monkeypatch):
    # the cap refuses before allocating: theta^j's rules in `power`, and a
    # plan whose entries pass it before the plan is built.  Growth fails at
    # the first allocation of the cap oracle `growth_steps` that passes the
    # cap, on the levels it reaches uncapped, and is unchanged below that.
    # In 1-d a plan is theta^j(w) itself, 2 s^j cells at most, and theta^j's
    # rules, which hold as many or more, are built first: only power refuses
    theta = bundled_substitution(name)
    refused = {"power": 0, "plan": 0, None: 0}
    for extent, roots in root_sets(theta).values():
        grown = _grow(theta, extent, roots, shape)
        steps = growth_steps(theta, extent, shape, grown[1])
        for cap in sorted({cells - k for _, _, cells in steps if cells for k in (1, 0)}):
            monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", cap)
            fired = next(((what, cells) for _, what, cells in steps if cells > cap), None)
            if fired is None:
                kind, want = None, grown
            elif isinstance(fired[0], int):
                per_rule = fired[1] // len(theta.alphabet)
                kind, want = "power", ("CapExceeded", f"theta^{fired[0]} needs {per_rule} cells per rule")
            else:
                kind, want = "plan", ("CapExceeded", f"a language window plan would read {fired[1]} cells")
            assert outcome(_grow, theta, extent, roots, shape) == want, cap
            refused[kind] += 1
    assert refused["power"] and bool(refused["plan"]) == (theta.dim > 1) and refused[None]


def test_grow_reads_each_block_once(monkeypatch):
    # no (theta^j, extent, shape, w) is read twice: roots of extent 2x...x2
    # (the full-mode seeds) are blocks of depth J, and with shape 2x...x2
    # (J = 1) one read gives a level's windows and its new blocks
    counts, real = collections.Counter(), language._read

    def spy(theta_j, extent, ws, sh):
        ws = list(ws)
        counts.update((theta_j.size, extent, sh, w) for w in ws)
        return real(theta_j, extent, ws, sh)

    monkeypatch.setattr(language, "_read", spy)
    # (windows, depth) as the whole patches give them, and the reads made
    for name, mode, shape, grown, reads in [
        ("tm3d", "full", (2, 2, 2), (256, 2), 256),
        ("tm2d", "minimal", (2, 2), (8, 4), 9),
        ("tm2d", "full", (2, 3), (28, 2), 32),
        ("tm3d", "full", (4, 4, 4), (6514, 3), 768),
    ]:
        counts.clear()
        theta = bundled_substitution(name)
        seen, depth = _grow(theta, *_roots(theta, mode), shape)
        assert (len(seen), depth) == grown, name
        assert set(counts.values()) == {1} and sum(counts.values()) == reads, (name, counts.most_common(3))


def test_a_large_full_language_reads_its_columns_within_a_small_cap(tm2d, monkeypatch):
    # theta^5 of a 2x2 seed has 33 columns of 32 x 64 cells, 67584 plan
    # entries, where one entry per cell of each of its 33^2 windows of
    # 32 x 32 would be 1115136
    want = patch_language(tm2d, (32, 32), "full")
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 2**18)
    assert patch_language(tm2d, (32, 32), "full") == want
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 67583)
    with pytest.raises(CapExceeded, match="a language window plan would read 67584 cells"):
        patch_language(tm2d, (32, 32), "full")


def test_grow_past_the_whole_patch_cap_matches_the_window_closure(r18_spec):
    theta = build_substitution(parse_spec(json.dumps(r18_spec)))
    seen, depth = _grow(theta, (1, 1), [b"\0"], (2, 2))
    assert (len(seen), depth) == (192, 18)
    assert seen == window_closure_oracle(theta, 0, (2, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(2, 3), st.integers(0, 2**32 - 1), st.data())
def test_grow_matches_oracle_on_random_rules(d, n, seed, data):
    rng = random.Random(seed)
    size = tuple(rng.randint(2, 3) for _ in range(d))
    cells = math.prod(size)
    rules = tuple(Pattern((0,) * d, size, bytes(rng.randrange(n) for _ in range(cells)))
                  for _ in range(n))
    theta = RectSubstitution(Alphabet(tuple("abc"[:n])), size, rules)
    shape = tuple(data.draw(st.integers(1, 4)) for _ in range(d))
    for extent, roots in random_rule_roots(theta):
        try:  # complete growths whose whole patches stay small enough for the oracle
            want = grow_oracle(theta, as_patterns(extent, roots), shape, cap=2**16)
        except CapExceeded:
            continue
        assert _grow(theta, extent, roots, shape) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(2, 4), st.integers(0, 2**32 - 1), st.data())
def test_grow_reads_only_new_blocks_as_every_block_would(d, n, seed, data):
    # past J each level reads only the blocks no earlier level met: the same
    # windows and depth as reading every block of every level, on growths
    # too deep for whole patches
    rng = random.Random(seed)
    size = tuple(rng.randint(2, 3) for _ in range(d))
    rules = tuple(Pattern((0,) * d, size, bytes(rng.randrange(n) for _ in range(math.prod(size))))
                  for _ in range(n))
    theta = RectSubstitution(Alphabet(tuple("abcd"[:n])), size, rules)
    shape = tuple(data.draw(st.integers(1, 5 - d)) for _ in range(d))
    for extent, roots in random_rule_roots(theta):
        assert _grow(theta, extent, roots, shape) == block_grow_oracle(theta, as_patterns(extent, roots), shape)


def test_deep_growth_matches_the_level_oracle(r18_spec):
    theta = build_substitution(parse_spec(json.dumps(r18_spec)))
    for shape in [(2, 2), (3, 2), (3, 3)]:
        want = block_grow_oracle(theta, [Pattern.single((0, 0), 0)], shape)
        assert _grow(theta, (1, 1), [b"\0"], shape) == want, shape


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(0, 2**32 - 1), st.data())
def test_window_image_matches_oracle(d, n, seed, data):
    # a gather through theta^j's rules: sizes differ across axes, w is a
    # block, a root or any other window, shapes go down to one cell
    rng = random.Random(seed)
    size = tuple(rng.randint(2, 3) for _ in range(d))
    rules = tuple(Pattern((0,) * d, size, bytes(rng.randrange(n) for _ in range(math.prod(size))))
                  for _ in range(n))
    theta = power(RectSubstitution(Alphabet(tuple("abc"[:n])), size, rules), data.draw(st.integers(1, 4 - d)))
    shape = tuple(data.draw(st.integers(1, 4)) for _ in range(d))
    q = tuple(data.draw(st.integers(1, 3)) for _ in range(d))
    w = bytes(rng.randrange(n) for _ in range(math.prod(q)))
    assert _read(theta, q, [w], shape) == window_image_oracle(theta, q, w, shape)[0]


@pytest.mark.parametrize("size, q, shape", [
    ((2, 3), (2, 2), (2, 3)),  # unequal sizes
    ((2, 3), (2, 2), (2, 2)),  # 2x2 blocks read for their blocks
    ((2, 3), (1, 1), (1, 1)),  # one-cell windows
    ((3,), (1,), (1,)),
    ((2, 2, 2), (2, 2, 2), (2, 2, 3)),
    ((2, 3), (1, 1), (3, 4)),  # no window of theta fits, one of theta^2 does
])
def test_window_image_matches_oracle_on_every_window(size, q, shape):
    rng = random.Random(str(size))
    rules = tuple(Pattern(tuple(0 for _ in size), size, bytes(rng.randrange(3) for _ in range(math.prod(size))))
                  for _ in range(3))
    theta = RectSubstitution(Alphabet(("a", "b", "c")), size, rules)
    for theta_j in (theta, power(theta, 2)):
        ws = sorted({bytes(rng.randrange(3) for _ in range(math.prod(q))) for _ in range(40)})
        for w in ws:
            assert _read(theta_j, q, [w], shape) == window_image_oracle(theta_j, q, w, shape)[0], w
        # one read of many windows is the union of their images
        images = (window_image_oracle(theta_j, q, w, shape)[0] for w in ws)
        assert _read(theta_j, q, ws, shape) == set().union(*images)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2), st.integers(2, 3), st.integers(0, 2**32 - 1), st.data())
def test_stabilized_language_is_closed(d, n, seed, data):
    # the closure argument of the module docstring: past the depth where
    # _grow stops, four more levels of whole patches add no window
    rng = random.Random(seed)
    size = tuple(rng.randint(2, 4 - d) for _ in range(d))
    cells = math.prod(size)
    rules = tuple(Pattern((0,) * d, size, bytes(rng.randrange(n) for _ in range(cells)))
                  for _ in range(n))
    theta = RectSubstitution(Alphabet(tuple("abc"[:n])), size, rules)
    shape = tuple(data.draw(st.integers(1, 5 - d)) for _ in range(d))
    for roots in ([Pattern.single((0,) * d, 0)], [Pattern.single((0,) * d, a) for a in range(n)]):
        seen, depth = _grow(theta, (1,) * d, [p.cells for p in roots], shape)
        if cells ** (depth + 4) > 2**15:
            continue
        patches = roots
        for level in range(1, depth + 5):
            patches = [apply(theta, p) for p in patches]
            if level > depth:
                assert all(seen.issuperset(p.subpattern_keys(shape)) for p in patches), level


# -- seed admissibility ---------------------------------------------------------

def test_tm2d_seed_admissibility_golden(tm2d):
    # oracle: even cell sum iff admissible (verified against brute force)
    oracle = brute_subwords(tm2d, 0, 6, (2, 2))
    verdicts = {}
    for seed in all_seeds(tm2d):
        res = seed_admissible_minimal(tm2d, seed)
        assert res.admissible == (seed.pattern().cells in oracle)
        verdicts[seed.symbols] = res.admissible
    admissible = [s for s, ok in verdicts.items() if ok]
    assert len(admissible) == 8
    assert all(sum(s) % 2 == 0 for s in admissible)


def test_tm1d_seed_01(tm1d):
    # corner order: (x_{-1}, x_0); the word "01" occurs
    assert seed_admissible_minimal(tm1d, Seed(1, (0, 1))).admissible


def test_tm1d_seed_00(tm1d):
    assert seed_admissible_minimal(tm1d, Seed(1, (0, 0))).admissible


def test_verdict_reports_depth(tm2d):
    res = seed_admissible_minimal(tm2d, Seed(2, (0, 0, 0, 0)))
    assert res.depth_used == patch_language(tm2d, (2, 2)).depth_reached >= 2


# -- periodicity scan ------------------------------------------------------------

def test_tm1d_no_period(tm1d):
    assert periodicity_scan(tm1d, 4).periods == ()


def test_dbl_period_found(dbl):
    report = periodicity_scan(dbl, 2)
    assert (1,) in report.periods


def test_radius_zero(tm1d):
    assert periodicity_scan(tm1d, 0).periods == ()
