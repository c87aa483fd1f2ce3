import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import grow_oracle, window_image_oracle

from subsym import language, substitution
from subsym.errors import CapExceeded, ScopeError, ValidationError
from subsym.language import (
    _grow,
    _window_image,
    _root_patterns,
    contains_pattern,
    patch_language,
    periodicity_scan,
    seed_admissible_minimal,
)
from subsym.lattice import Rect
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
    assert len(lang) == 2
    assert lang.stabilized


def test_minimal_mode_requires_primitive(dbl):
    with pytest.raises(ScopeError):
        patch_language(dbl, (2,), mode="minimal")


def test_tm2d_full_strictly_contains_minimal(tm2d):
    lang_min = patch_language(tm2d, (2, 2), mode="minimal")
    lang_full = patch_language(tm2d, (2, 2), mode="full")
    assert lang_min.patterns < lang_full.patterns
    assert lang_min.stabilized and lang_full.stabilized
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
            lang_min = patch_language(theta, shape, mode="minimal", max_depth=5)
            lang_full = patch_language(theta, shape, mode="full", max_depth=5)
            assert lang_min.patterns <= lang_full.patterns


def test_monotone_in_depth(tm2d):
    prev = frozenset()
    for depth in range(1, 6):
        lang = patch_language(tm2d, (2, 2), mode="minimal", max_depth=depth)
        assert prev <= lang.patterns
        prev = lang.patterns


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


def test_contains_pattern(tm2d):
    lang = patch_language(tm2d, (2, 2), mode="minimal")
    some = next(iter(lang.patterns))
    assert contains_pattern(lang, Pattern((0, 0), (2, 2), some))
    # translation-invariant: anchors do not matter
    assert contains_pattern(lang, Pattern((5, -3), (2, 2), some))
    all_ones = Pattern((0, 0), (2, 2), bytes([1, 1, 1, 1]))
    oracle = brute_subwords(tm2d, 0, 6, (2, 2))
    assert contains_pattern(lang, all_ones) == (all_ones.cells in oracle)


def test_contains_pattern_shape_mismatch(tm2d):
    lang = patch_language(tm2d, (2, 2), mode="minimal")
    with pytest.raises(ValidationError):
        contains_pattern(lang, Pattern((0, 0), (2, 3), bytes(6)))


# -- growth from distinct windows against the whole-patch loop ---------------------

#: per dimension: shapes whose full-mode growth switches to distinct windows
#: on the bundled specs of that dimension, and shapes that never switch
SWITCHING = {1: [(5,)], 2: [(2, 3), (3, 2)], 3: [(2, 2, 2), (2, 2, 3), (3, 3, 3)]}
WHOLE_PATCH = {1: [(64,)], 2: [(8, 8)], 3: []}


def root_sets(theta):
    """Minimal roots (primitive specs only), full roots, one root per symbol."""
    sets = {"full": _root_patterns(theta, "full")}
    try:
        sets["minimal"] = _root_patterns(theta, "minimal")
    except ScopeError:
        pass
    sets["per-symbol"] = [Pattern.single((0,) * theta.dim, a) for a in range(len(theta.alphabet))]
    return sets


def outcome(grow, *args):
    try:
        return grow(*args)
    except CapExceeded as exc:
        return "CapExceeded", str(exc)


def spy_window_images(monkeypatch):
    """Record the calls of `language._window_image`, made only once growth has switched."""
    calls = []
    real = language._window_image

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(language, "_window_image", spy)
    return calls


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_grow_matches_whole_patch_oracle(name, monkeypatch):
    theta = bundled_substitution(name)
    calls = spy_window_images(monkeypatch)
    for kind, roots in root_sets(theta).items():
        for switching, shapes in ((True, SWITCHING), (False, WHOLE_PATCH)):
            for shape in shapes[theta.dim]:
                calls.clear()
                for max_depth in (1, 2, 3, 8):
                    want = grow_oracle(theta, roots, shape, max_depth)
                    assert _grow(theta, roots, shape, max_depth) == want, (kind, shape, max_depth)
                if kind == "full":
                    # the fast path really ran where it should, and only there
                    assert bool(calls) == switching, shape


def image_cells(size, q, shape):
    """The cells of every shape-window of theta(w), w a q-window, read one by one."""
    windows = math.prod(max(0, k * s - n + 1) for k, s, n in zip(q, size, shape))
    return windows * math.prod(shape)


@pytest.mark.parametrize("name, shape", [("tm2d", (2, 3)), ("tm3d", (2, 2, 2)), ("cyc3", (5,))])
def test_grow_cap_fires_at_the_oracle_depth(name, shape, monkeypatch):
    # before the switch the cap fires where the whole-patch oracle fires;
    # after it, once the cells gathered into window images pass the cap
    theta = bundled_substitution(name)
    step = math.prod(theta.size)
    q = tuple(-(-(n - 1) // s) + 1 for n, s in zip(shape, theta.size))
    per_image = sum(image_cells(theta.size, q, sh) for sh in {shape, q})
    calls = spy_window_images(monkeypatch)
    refused = {"patches": 0, "gathered": 0, None: 0}
    for roots in root_sets(theta).values():
        cells = max(math.prod(p.extent) for p in roots)
        uncapped, gathered = {}, {}  # by max_depth: the result, the cells its images read
        for max_depth in range(1, 9):
            calls.clear()
            uncapped[max_depth] = _grow(theta, roots, shape, max_depth)
            gathered[max_depth] = len(calls) * per_image
        caps = {cells * step**levels - k for levels in (1, 2) for k in (1, 0)}
        caps |= {g - k for g in gathered.values() if g for k in (1, 0)}
        for cap in sorted(caps):
            with monkeypatch.context() as capped:
                capped.setattr(substitution, "DEFAULT_CELL_CAP", cap)
                for max_depth in (1, 2, 3, 8):
                    oracle = outcome(grow_oracle, theta, roots, shape, max_depth)
                    fired = next((k for k in range(1, max_depth + 1) if cells * step**k > cap), None)
                    if oracle[0] == "CapExceeded" and gathered[fired] == 0:
                        kind, want = "patches", oracle
                    elif gathered[max_depth] > cap:
                        kind, want = "gathered", ("CapExceeded", "language generation exceeded the cell cap")
                    else:
                        kind, want = None, uncapped[max_depth]
                    assert outcome(_grow, theta, roots, shape, max_depth) == want, (cap, max_depth)
                    refused[kind] += 1
    assert refused["patches"] and refused["gathered"]


def window_closure_oracle(theta, symbol, shape):
    """The least set of shape-windows that holds those of theta(symbol) and,
    with each window w, every shape-window of theta(w); for shapes no
    smaller than the growth's q-windows that is every window of every
    theta^k(symbol)."""
    origin = (0,) * theta.dim
    todo = set(apply(theta, Pattern.single(origin, symbol)).subpattern_keys(shape))
    found = set()
    while todo:
        w = todo.pop()
        found.add(w)
        todo.update(set(apply(theta, Pattern(origin, shape, w)).subpattern_keys(shape)) - found)
    return found


def test_grow_past_the_whole_patch_cap_matches_the_window_closure(r18_spec):
    theta = build_substitution(parse_spec(json.dumps(r18_spec)))
    seen, depth, stabilized = _grow(theta, [Pattern.single((0, 0), 0)], (2, 2), 30)
    assert (len(seen), depth, stabilized) == (192, 18, True)
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
    max_depth = data.draw(st.integers(1, 5 - d))
    for roots in ([Pattern.single((0,) * d, 0)], [Pattern.single((0,) * d, a) for a in range(n)]):
        assert _grow(theta, roots, shape, max_depth) == grow_oracle(theta, roots, shape, max_depth)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(0, 2**32 - 1), st.data())
def test_window_image_matches_oracle(d, n, seed, data):
    # sizes differ across axes, q is the growth's own or any other, shapes go down to one cell
    rng = random.Random(seed)
    size = tuple(rng.randint(2, 3) for _ in range(d))
    rules = tuple(Pattern((0,) * d, size, bytes(rng.randrange(n) for _ in range(math.prod(size))))
                  for _ in range(n))
    theta = RectSubstitution(Alphabet(tuple("abc"[:n])), size, rules)
    shape = tuple(data.draw(st.integers(1, 4)) for _ in range(d))
    q = tuple(-(-(m - 1) // s) + 1 for m, s in zip(shape, size))
    if data.draw(st.booleans()):
        q = tuple(data.draw(st.integers(1, 3)) for _ in range(d))
    w = bytes(rng.randrange(n) for _ in range(math.prod(q)))
    assert _window_image(theta, q, w, shape) == window_image_oracle(theta, q, w, shape)


@pytest.mark.parametrize("size, q, shape", [
    ((2, 3), (2, 2), (2, 3)),  # unequal sizes, the growth's q
    ((2, 3), (2, 2), (2, 2)),  # q == shape
    ((2, 3), (1, 1), (1, 1)),  # one-cell windows
    ((3,), (1,), (1,)),
    ((2, 2, 2), (2, 2, 2), (2, 2, 3)),
    ((2, 3), (1, 1), (3, 4)),  # no window fits
])
def test_window_image_matches_oracle_on_every_window(size, q, shape):
    rng = random.Random(str(size))
    rules = tuple(Pattern(tuple(0 for _ in size), size, bytes(rng.randrange(3) for _ in range(math.prod(size))))
                  for _ in range(3))
    theta = RectSubstitution(Alphabet(("a", "b", "c")), size, rules)
    for w in sorted({bytes(rng.randrange(3) for _ in range(math.prod(q))) for _ in range(40)}):
        assert _window_image(theta, q, w, shape) == window_image_oracle(theta, q, w, shape), w


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2), st.integers(2, 3), st.integers(0, 2**32 - 1), st.data())
def test_stabilized_language_is_closed(d, n, seed, data):
    # the closure argument of the module docstring: once _grow reports a
    # stabilized language, four more levels of whole patches add no window
    rng = random.Random(seed)
    size = tuple(rng.randint(2, 4 - d) for _ in range(d))
    cells = math.prod(size)
    rules = tuple(Pattern((0,) * d, size, bytes(rng.randrange(n) for _ in range(cells)))
                  for _ in range(n))
    theta = RectSubstitution(Alphabet(tuple("abc"[:n])), size, rules)
    shape = tuple(data.draw(st.integers(1, 5 - d)) for _ in range(d))
    for roots in ([Pattern.single((0,) * d, 0)], [Pattern.single((0,) * d, a) for a in range(n)]):
        seen, depth, stabilized = _grow(theta, roots, shape, 8)
        if not stabilized or cells ** (depth + 4) > 2**15:
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
    assert res.depth_used >= 1
    assert res.stabilized


# -- periodicity scan ------------------------------------------------------------

def test_tm1d_no_period(tm1d):
    assert periodicity_scan(tm1d, 4).periods == ()


def test_dbl_period_found(dbl):
    report = periodicity_scan(dbl, 2)
    assert (1,) in report.periods


def test_radius_zero(tm1d):
    assert periodicity_scan(tm1d, 0).periods == ()
