import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    closure_oracle,
    language_comparison_oracle,
    power_oracle,
    sym_group_report_oracle,
    transform_oracle,
)

from subsym import substitution
from subsym import symmetry as sym
from subsym.errors import CapExceeded, ScopeError, ValidationError
from subsym.lattice import Rect, SignedPerm, signed_perm_group
from subsym.specio import BUNDLED, build_substitution, bundled_substitution, load_spec_file
from subsym.substitution import (
    Alphabet,
    Pattern,
    RectSubstitution,
    _powers,
    apply,
    complement_pattern,
    corner_fixed,
    corner_fixing_power,
    is_bijective,
    is_primitive,
    power,
)
from subsym.symmetry import (
    ALIGN_POWER_CAP,
    EXACT_YES,
    REFUTED_AT,
    SIZE_MISMATCH,
    SizeMismatch,
    SymmetryCandidate,
    _closure_ok,
    _language_comparison,
    _size_mismatch,
    aut_group_description,
    compose_relabelings,
    conjugating_relabelings,
    extended_symmetry_check,
    fracture_normal_witness,
    non_axis_fracture_refuter,
    relabel_automorphisms,
    sym_group_report,
    transformed_substitution,
)


# -- relabeling automorphisms ---------------------------------------------------

def test_relabel_tm2d(tm2d):
    group = relabel_automorphisms(tm2d)
    assert sorted(group) == [(0, 1), (1, 0)]


def test_relabel_cyc3(cyc3):
    group = relabel_automorphisms(cyc3)
    assert len(group) == 3
    assert (1, 2, 0) in group and (2, 0, 1) in group


def test_relabel_rig3(rig3):
    assert relabel_automorphisms(rig3) == [(0, 1, 2)]


def test_relabel_requires_scope(dbl):
    with pytest.raises(ScopeError):
        relabel_automorphisms(dbl)  # not primitive


def test_relabel_group_closed(corpus):
    from subsym.substitution import is_primitive

    for theta in corpus.values():
        if not (is_primitive(theta).primitive and is_bijective(theta)):
            continue
        group = set(relabel_automorphisms(theta))
        n = len(theta.alphabet)
        assert tuple(range(n)) in group
        for p in group:
            inv = [0] * n
            for i, v in enumerate(p):
                inv[v] = i
            assert tuple(inv) in group
            for q in group:
                assert compose_relabelings(p, q) in group


def test_aut_description(tm2d, tm3d, cyc3, rig3):
    assert aut_group_description(tm2d).structure == "Z^2 x C2"
    assert aut_group_description(tm3d).structure == "Z^3 x C2"
    assert aut_group_description(cyc3).structure == "Z^1 x C3"
    assert aut_group_description(rig3).structure == "Z^1 x 1"


def test_aut_description_scope_error(dbl):
    with pytest.raises(ScopeError):
        aut_group_description(dbl)


# -- relabeling solver against the n! search it replaced ----------------------------

def cyclic(n):
    """The rule a -> (a, a+1 mod n) on n symbols."""
    rules = tuple(Pattern((0,), (2,), bytes([a, (a + 1) % n])) for a in range(n))
    return RectSubstitution(Alphabet(tuple(str(a) for a in range(n))), (2,), rules)


def quarter4():
    """A 2x2 rule on 4 symbols with no nontrivial relabel automorphism whose quarter turn
    is an extended symmetry only with the 4-cycle tau = (1, 2, 3, 0), so A and
    A^-1 have different relabelings: a map moved the wrong way shows."""
    tables = ((1, 0, 1, 2), (2, 2, 3, 1), (0, 3, 2, 3), (3, 1, 0, 0))
    rules = tuple(Pattern((0, 0), (2, 2), bytes(t)) for t in tables)
    return RectSubstitution(Alphabet(("0", "1", "2", "3")), (2, 2), rules)


def relabel_oracle(theta, a):
    """Every permutation, in lexicographic order, whose conjugate is theta."""
    return [
        tau
        for tau in itertools.permutations(range(len(theta.alphabet)))
        if transform_oracle(theta, a, tau) == theta
    ]


def seeded_conjugate(seed):
    """A bundled or cyclic rule conjugated by a random relabeling and axis map."""
    rng = random.Random(seed)
    base = rng.choice(["tm1d", "tm2d", "tm3d", "cyc3", "rig3", 4, 5])
    theta = cyclic(base) if isinstance(base, int) else bundled_substitution(base)
    tau = tuple(rng.sample(range(len(theta.alphabet)), len(theta.alphabet)))
    d = theta.dim
    a = SignedPerm(tuple(rng.sample(range(d), d)), tuple(rng.randrange(2) for _ in range(d)))
    return transform_oracle(theta, a, tau)


PINNED_SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"


def substitution_from(source):
    """A cyclic rule (int), a seeded conjugate (seedN), a spec file name,
    quarter4 or a bundled name."""
    if isinstance(source, int):
        return cyclic(source)
    if source == "quarter4":
        return quarter4()
    if source.startswith("seed"):
        return seeded_conjugate(int(source[4:]))
    if source.endswith(".json"):
        return build_substitution(load_spec_file(str(PINNED_SPECS / source)))
    return bundled_substitution(source)


@pytest.mark.parametrize(
    "source, powers",
    [(name, (m,)) for name in ("tm1d", "tm2d", "tm3d", "cyc3", "rig3") for m in (1, 2, 3)]
    + [(n, (1, 2, 3)) for n in range(3, 7)]
    + [(f"seed{i}", (1, 2)) for i in range(20)]
    + [("quarter4", (1, 2))],
)
def test_conjugating_relabelings_match_oracle(source, powers):
    theta = substitution_from(source)
    for m in powers:
        theta_m = power(theta, m)
        for a in signed_perm_group(theta.dim):
            assert conjugating_relabelings(theta_m, a) == relabel_oracle(theta_m, a), (m, a)


@pytest.mark.parametrize("tables", [((0, 1), (1, 1)), ((0, 0), (1, 0))])
def test_conjugating_relabelings_sound_without_primitivity(tables):
    # outside its scope the solver may miss relabelings, but never returns a
    # non-injective map (first rule) or one with unreached symbols (second)
    rules = tuple(Pattern((0,), (2,), bytes(t)) for t in tables)
    theta = RectSubstitution(Alphabet(("0", "1")), (2,), rules)
    for a in signed_perm_group(1):
        assert set(conjugating_relabelings(theta, a)) <= set(relabel_oracle(theta, a))


def test_cyclic8_reversal_exact():
    cand = extended_symmetry_check(cyclic(8), SignedPerm((0,), (1,)))
    assert cand.describe() == "ExactYes,tau=0,7,6,5,4,3,2,1"
    assert cand.align_power == 8


# -- transformed substitution ----------------------------------------------------

def test_transform_identity(tm2d):
    ident = SignedPerm.identity(2)
    out = transformed_substitution(tm2d, ident, (0, 1))
    assert all(out.rule(a) == tm2d.rule(a) for a in range(2))


def test_transform_rotation_is_complement(tm2d):
    # rotating the parity patch flips every cell: the transformed table is
    # the cellwise complement of the original (checked by direct comparison)
    rot90 = SignedPerm((1, 0), (0, 1))
    assert rot90.matrix() == ((0, -1), (1, 0))
    out = transformed_substitution(tm2d, rot90, (0, 1))
    assert not isinstance(out, SizeMismatch)
    for a in range(2):
        assert out.rule(a) == complement_pattern(tm2d.rule(a))


def test_transform_size_mismatch(two_by_three):
    swap = SignedPerm((1, 0), (0, 0))
    out = transformed_substitution(two_by_three, swap, (0, 1))
    assert isinstance(out, SizeMismatch)
    assert out.permuted == (3, 2)


@pytest.mark.parametrize("name", ["tm1d", "tm2d", "tm3d", "cyc3", "rig3", "quarter4"])
def test_transform_matches_cellwise_oracle(name):
    theta = substitution_from(name)
    for a in signed_perm_group(theta.dim):
        for tau in itertools.permutations(range(len(theta.alphabet))):
            assert transformed_substitution(theta, a, tau) == transform_oracle(theta, a, tau)


def test_transform_geometry_oracle(tm2d):
    # independent oracle: place the patch cells through the matrix by hand
    a = SignedPerm((0, 1), (1, 0))  # negate axis 0
    out = transformed_substitution(tm2d, a, (0, 1))
    patch = tm2d.rule(1)
    for k in Rect.box((2, 2)).cells():
        image = (1 - k[0], k[1])  # x -> -x then re-anchor by +1
        assert out.rule(1).get(image) == patch.get(k)


# -- extended symmetry checks ------------------------------------------------------

def test_identity_always_exact(corpus):
    from subsym.substitution import is_primitive

    for theta in corpus.values():
        if not (is_primitive(theta).primitive and is_bijective(theta)):
            continue
        cand = extended_symmetry_check(theta, SignedPerm.identity(theta.dim))
        assert cand.verdict == EXACT_YES
        assert cand.tau == tuple(range(len(theta.alphabet)))


def test_tm2d_all_exact(tm2d):
    for a in signed_perm_group(2):
        cand = extended_symmetry_check(tm2d, a, depth=2)
        assert cand.verdict == EXACT_YES, a


def test_tm3d_all_exact(tm3d):
    for a in signed_perm_group(3):
        cand = extended_symmetry_check(tm3d, a, depth=2)
        assert cand.verdict == EXACT_YES, a


def test_tm1d_reversal_exact(tm1d):
    cand = extended_symmetry_check(tm1d, SignedPerm((0,), (1,)))
    # theta^2 rules are palindromes, so the reversal needs no relabeling
    assert cand.verdict == EXACT_YES
    assert cand.tau == (0, 1)
    assert cand.align_power == 2


def test_cyc3_reversal_exact(cyc3):
    cand = extended_symmetry_check(cyc3, SignedPerm((0,), (1,)))
    assert cand.verdict == EXACT_YES
    assert cand.tau == (0, 2, 1)


def test_rig3_reversal_refuted(rig3):
    cand = extended_symmetry_check(rig3, SignedPerm((0,), (1,)), depth=4)
    assert cand.verdict == REFUTED_AT
    assert cand.depth == 4
    assert cand.witness is not None


def test_refuted_witness_is_genuine(rig3):
    # re-check independently: the witness is absent from a freshly generated
    # deeper language of the side it claims to be missing from
    from subsym.language import patch_language

    cand = extended_symmetry_check(rig3, SignedPerm((0,), (1,)), depth=4)
    w = cand.witness
    assert cand.witness_missing_from == "original"
    lang = patch_language(rig3, w.extent, mode="minimal", max_depth=10)
    assert w.cells not in lang.patterns


@pytest.mark.parametrize(
    "source",
    sorted(BUNDLED)
    + sorted(p.name for p in PINNED_SPECS.glob("*.json"))
    + [3, 4, 5]
    + [f"seed{i}" for i in range(12)],
)
def test_language_comparison_matches_oracle(source):
    # the fallback moves one complete language per cube side; the oracle
    # regenerates the language of each of the n! conjugates
    theta = substitution_from(source)
    if not (is_primitive(theta).primitive and is_bijective(theta)):
        with pytest.raises(ScopeError):  # the fallback is never reached
            extended_symmetry_check(theta, SignedPerm.identity(theta.dim))
        return
    for a in signed_perm_group(theta.dim):
        if _size_mismatch(theta.size, a) is not None:
            continue
        for depth in (2, 3):
            want = language_comparison_oracle(theta, a, depth)
            assert _language_comparison(theta, a, depth, {}) == want, (a, depth)


def test_language_comparison_quarter_turns_match_oracle():
    # the two quarter turns agree with inverse 4-cycles; all eight matrices
    # at both depths take about 30 s of oracle time
    theta = quarter4()
    for a in (SignedPerm((1, 0), (0, 1)), SignedPerm((1, 0), (1, 0))):
        assert _language_comparison(theta, a, 3, {}) == language_comparison_oracle(theta, a, 3), a


def test_fallback_compares_only_stabilized_languages(monkeypatch):
    # verified3's side-5 language has not stabilized at depth 8; it does at depth 9
    grown = []
    real = sym._grow

    def spy(theta, roots, shape, max_depth):
        out = real(theta, roots, shape, max_depth)
        grown.append((shape, out[2]))
        return out

    monkeypatch.setattr(sym, "_grow", spy)
    theta = substitution_from("verified3.json")
    cand = extended_symmetry_check(theta, SignedPerm((0,), (1,)), depth=5)
    assert cand.describe() == "VerifiedUpTo(5),tau=1,0,2"
    assert {shape for shape, _ in grown} == {(2,), (3,), (4,), (5,)}
    assert all(stabilized for _, stabilized in grown), grown


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_stabilized_language_is_the_same_from_every_root(d, n, seed, side):
    # the fallback grows one language per side from symbol 0 and serves every
    # tau with it: for primitive theta the complete language has no root
    rng = random.Random(seed)
    size = tuple(rng.randint(2, 4 - d) for _ in range(d))
    columns = [rng.sample(range(n), n) for _ in range(math.prod(size))]  # bijective
    rules = tuple(Pattern((0,) * d, size, bytes(col[a] for col in columns)) for a in range(n))
    theta = RectSubstitution(Alphabet(tuple("abcd"[:n])), size, rules)
    assume(is_primitive(theta).primitive)
    max_depth = substitution.DEFAULT_CELL_CAP.bit_length()
    languages = []
    for b in range(n):
        try:
            keys, _, stabilized = sym._grow(theta, [Pattern.single((0,) * d, b)], (side,) * d, max_depth)
        except CapExceeded:  # some 2-d rules need more levels than the cap allows
            continue
        assert stabilized
        languages.append(keys)
    assume(len(languages) >= 2)
    assert all(keys == languages[0] for keys in languages)


@pytest.mark.parametrize("depth", [1, 0, -2])
def test_depth_below_two_rejected(rig3, depth):
    # no shape is compared below depth 2, so a verdict there would be vacuous
    with pytest.raises(ValidationError):
        extended_symmetry_check(rig3, SignedPerm((0,), (1,)), depth=depth)
    with pytest.raises(ValidationError):
        sym_group_report(rig3, depth=depth)


def test_size_mismatch_verdict():
    from subsym.substitution import Alphabet, RectSubstitution

    alpha = Alphabet(("0", "1"))
    rules = (
        Pattern((0, 0), (2, 3), bytes([0, 1, 1, 1, 0, 1])),
        Pattern((0, 0), (2, 3), bytes([1, 0, 0, 0, 1, 0])),
    )
    theta = RectSubstitution(alpha, (2, 3), rules)
    swap = SignedPerm((1, 0), (0, 0))
    cand = extended_symmetry_check(theta, swap)
    assert cand.verdict == SIZE_MISMATCH


# -- group-level report -------------------------------------------------------------

def test_sym_report_tm2d(tm2d):
    rep = sym_group_report(tm2d, depth=2)
    assert rep.psi_image_order == 8
    assert rep.split == "yes"
    assert rep.closure_ok
    assert rep.summary_line() == "psi_image_order=8 split=yes"


def test_sym_report_tm1d(tm1d):
    rep = sym_group_report(tm1d, depth=2)
    assert rep.psi_image_order == 2
    assert rep.split == "yes"


def test_sym_report_rig3(rig3):
    rep = sym_group_report(rig3, depth=3)
    verdicts = {c.a: c.verdict for c in rep.candidates}
    assert verdicts[SignedPerm.identity(1)] == EXACT_YES
    assert verdicts[SignedPerm((0,), (1,))] == REFUTED_AT
    assert rep.psi_image_order == 1


def test_exact_compositions(tm2d):
    rep = sym_group_report(tm2d, depth=2)
    by_a = rep.by_matrix()
    exact = [c for c in rep.candidates if c.verdict == EXACT_YES]
    for c1, c2 in itertools.product(exact, repeat=2):
        prod = by_a[c1.a.compose(c2.a)]
        assert prod.verdict == EXACT_YES
        assert compose_relabelings(c1.tau, c2.tau) in prod.taus


REPORT_SOURCES = (
    sorted(BUNDLED)
    + sorted(p.name for p in PINNED_SPECS.glob("*.json"))
    + [3, 4, 5, 6, "quarter4"]
    + [f"seed{i}" for i in range(12)]
)


@pytest.mark.parametrize("source", REPORT_SOURCES)
def test_sym_report_matches_oracle(source):
    # one pass over the powers against a per-matrix check that rebuilds each theta^m
    theta = substitution_from(source)
    for depth in (2, 3):
        try:
            want = sym_group_report_oracle(theta, depth)
        except ScopeError as exc:
            with pytest.raises(ScopeError, match=f"^{exc}$"):
                sym_group_report(theta, depth)
            continue
        assert sym_group_report(theta, depth) == want, depth


@pytest.mark.parametrize("source", ["tm1d", "tm2d", "tm3d", "cyc3", "rig3", 5, "quarter4", "seed3"])
def test_shared_powers_equal_power(source):
    theta = substitution_from(source)
    shared = list(_powers(theta, 4))
    assert len(shared) == 4
    for m, theta_m in enumerate(shared, 1):
        assert theta_m == power(theta, m) == power_oracle(theta, m), m


def test_shared_powers_stop_at_cell_cap(tm2d, monkeypatch):
    # theta^6 is the first power over a cap of 2 * 4^5 cells, exactly where power raises
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 2 * 4**5)
    assert len(list(_powers(tm2d, 24))) == 5
    with pytest.raises(CapExceeded):
        power(tm2d, 6)
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 1)
    assert len(list(_powers(tm2d, 3))) == 0


def capped_reversal():
    """A binary 1-d rule of length 330 whose power search ends at the cell cap:
    theta^3 needs 2 * 330^3 > 2^26 cells while the corner swap puts m = 3 among
    the alignment powers, and every 3-word occurs in theta(0), so the language
    fallback stops at theta^2."""
    rng = random.Random(7)
    row = [rng.randrange(2) for _ in range(329)] + [1]
    rules = (Pattern((0,), (330,), bytes(row)), Pattern((0,), (330,), bytes(1 - c for c in row)))
    return RectSubstitution(Alphabet(("0", "1")), (330,), rules)


def test_cell_cap_ends_power_search():
    theta = capped_reversal()
    assert min(ALIGN_POWER_CAP, 2 * corner_fixing_power(theta)) >= 3  # m = 3 is searched
    power(theta, 2)
    with pytest.raises(CapExceeded):
        power(theta, 3)
    reversal = SignedPerm((0,), (1,))
    assert conjugating_relabelings(power(theta, 2), reversal) == []
    rep = sym_group_report(theta, 3)
    assert rep == sym_group_report_oracle(theta, 3)
    assert rep.by_matrix()[reversal].verdict != EXACT_YES


def test_report_does_theta_level_work_once(tm3d, monkeypatch):
    # the per-matrix check called corner_fixing_power 48 times and built theta^2 24 times
    cfp_calls, applied = [], []
    real_cfp, real_apply = sym.corner_fixing_power, substitution.apply
    monkeypatch.setattr(sym, "corner_fixing_power", lambda t: cfp_calls.append(t) or real_cfp(t))
    monkeypatch.setattr(substitution, "apply", lambda t, p: applied.append(p.extent) or real_apply(t, p))
    rep = sym_group_report(tm3d, 3)
    monkeypatch.undo()
    assert len(cfp_calls) == 1
    # building theta^m applies theta once to each rule of theta^(m-1)
    assert applied and all(applied.count(e) == len(tm3d.alphabet) for e in applied)
    assert rep == sym_group_report_oracle(tm3d, 3)


def broken_variants(candidates):
    """(what, candidates) with one ExactYes entry damaged."""
    for i, c in enumerate(candidates):
        if c.verdict != EXACT_YES:
            continue
        out = list(candidates)
        out[i] = SymmetryCandidate(c.a, EXACT_YES, c.tau, c.taus[1:], c.align_power)
        yield f"dropped {c.a}", out
        wrong = [t for t in itertools.permutations(c.tau) if t not in c.taus]
        if wrong:
            out = list(candidates)
            out[i] = SymmetryCandidate(c.a, EXACT_YES, wrong[0], (wrong[0],) + c.taus[1:], c.align_power)
            yield f"replaced {c.a}", out
        if not c.a.is_identity():
            out = list(candidates)
            out[i] = SymmetryCandidate(c.a, REFUTED_AT, depth=2)
            yield f"refuted {c.a}", out


def test_closure_matches_oracle_on_broken_candidates():
    failed_by = set()
    for name in ("tm1d", "tm2d", "cyc3", "rig3"):
        candidates = list(sym_group_report(bundled_substitution(name), 2).candidates)
        assert _closure_ok(candidates) and closure_oracle(candidates)
        for what, broken in broken_variants(candidates):
            ok = _closure_ok(broken)
            assert ok == closure_oracle(broken), (name, what)
            if not ok:
                failed_by.add(what.split()[0])
    assert failed_by == {"dropped", "replaced", "refuted"}


def test_flip_commutes_with_substitution(corpus):
    # for binary bijective rules, complementing commutes with inflation
    for theta in corpus.values():
        if len(theta.alphabet) != 2 or not is_bijective(theta):
            continue
        for a in range(2):
            patch = theta.rule(a)
            assert apply(theta, complement_pattern(patch)) == complement_pattern(
                apply(theta, patch)
            )


# -- fracture witnesses -----------------------------------------------------------

def test_fracture_witness_axes(tm2d):
    theta_cf, _ = corner_fixed(tm2d)
    for axis in (0, 1):
        w = fracture_normal_witness(theta_cf, axis, window=64)
        assert w.ok
        assert w.window == Rect((-64, -64), (63, 63))


def test_fracture_witness_1d(tm1d):
    theta_cf, _ = corner_fixed(tm1d)
    assert fracture_normal_witness(theta_cf, 0, window=128).ok


def test_refuter_diag(tm2d):
    rep = non_axis_fracture_refuter(tm2d, (1, 1), 4, window=128)
    assert rep.conclusive
    assert rep.block.level == 4  # block side 16 beats the bandwidth
    assert rep.block.block.extent() == (16, 16)
    assert rep.block.upper_count > 0 and rep.block.lower_count > 0
    # the block really straddles
    b = rep.block
    assert sum(x * y for x, y in zip(b.upper_cell, (1, 1))) >= 4
    assert sum(x * y for x, y in zip(b.lower_cell, (1, 1))) <= -4


def test_refuter_other_directions(tm2d):
    for v, n in (((2, 1), 8), ((1, -1), 4), ((1, -1), 8), ((2, 1), 4)):
        rep = non_axis_fracture_refuter(tm2d, v, n, window=128)
        assert rep.conclusive, (v, n)
        blk = rep.block.block
        vals = [sum(x * y for x, y in zip(k, v)) for k in (blk.lo, blk.hi,
                (blk.lo[0], blk.hi[1]), (blk.hi[0], blk.lo[1]))]
        assert max(vals) >= n and min(vals) <= -n


@pytest.mark.parametrize("name, v, threshold", [
    ("tm2d", (1, 1), 4), ("tm2d", (1, -2), 7), ("tm2d", (3, 1), 2),
    ("tm3d", (1, 1, 1), 5), ("tm3d", (2, 0, -1), 3),
])
def test_refuter_counts_match_a_recount(name, v, threshold):
    # the one-pass count against the two lists it replaced
    block = non_axis_fracture_refuter(bundled_substitution(name), v, threshold, window=64).block
    dots = [(sum(x * y for x, y in zip(k, v)), k) for k in block.block.cells()]
    up = [k for dot, k in dots if dot >= threshold]
    low = [k for dot, k in dots if dot <= -threshold]
    assert (block.upper_cell, block.lower_cell) == (up[0], low[0])
    assert (block.upper_count, block.lower_count) == (len(up), len(low))


def test_refuter_refuses_a_block_over_the_cell_cap(tm2d, monkeypatch):
    # the level-11 block is 2048^2 cells; it is refused before a cell is read
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 2048 * 2048 - 1)
    monkeypatch.setattr(Rect, "cells", None)
    with pytest.raises(CapExceeded, match="4194304 cells"):
        non_axis_fracture_refuter(tm2d, (1, 1), 600, window=2048)


def test_refuter_rejects_axis_direction(tm2d):
    with pytest.raises(ScopeError):
        non_axis_fracture_refuter(tm2d, (1, 0), 4)
    with pytest.raises(ValidationError):
        non_axis_fracture_refuter(tm2d, (0, 0), 4)


def test_refuter_small_window_inconclusive(tm2d):
    rep = non_axis_fracture_refuter(tm2d, (1, 1), 4, window=4)
    assert not rep.conclusive
    assert rep.required_window is not None
