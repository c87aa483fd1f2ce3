import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    assert_subgroup_oracle,
    closure_oracle,
    column_pair_search_oracle,
    composed_powers_oracle,
    language_comparison_oracle,
    position_pairs_oracle,
    power_oracle,
    propagate_oracle,
    refuter_block_oracle,
    straddle_counts_oracle,
    sym_group_report_oracle,
    transform_oracle,
    window_closure_oracle,
)

from subsym import substitution
from subsym import symmetry as sym
from subsym.cli import main
from subsym.errors import CapExceeded, ScopeError, ValidationError
from subsym.language import SeedAdmissibility, seed_admissible_minimal
from subsym.lattice import Rect, SignedPerm, signed_perm_group
from subsym.specio import (
    BUNDLED,
    build_substitution,
    bundled_substitution,
    bundled_text,
    load_spec_file,
    parse_spec,
)
from subsym.substitution import (
    Alphabet,
    Pattern,
    RectSubstitution,
    Seed,
    _columns,
    apply,
    complement_pattern,
    corner_fixed,
    is_bijective,
    is_primitive,
    power,
)
from subsym.symmetry import (
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


def subgroup_verdict(check, perms, n):
    """None if `check` accepts perms, else its assertion message."""
    try:
        check(perms, n)
    except AssertionError as exc:
        return str(exc)
    return None


def test_subgroup_check_matches_oracle():
    # every subset of S_3, in every order: the translated rows against the
    # pairwise composition, message for message
    s3 = list(itertools.permutations(range(3)))
    verdicts = set()
    for size in range(1, len(s3) + 1):
        for perms in itertools.permutations(s3, size):
            got = subgroup_verdict(sym._assert_subgroup, list(perms), 3)
            assert got == subgroup_verdict(assert_subgroup_oracle, list(perms), 3), perms
            verdicts.add(got)
    assert verdicts == {
        None,
        "relabeling set lost the identity",
        "relabeling set not closed under composition",
    }


def test_subgroup_check_rejects_broken_groups(cyc3):
    group = relabel_automorphisms(cyc3)
    sym._assert_subgroup(group, 3)
    assert subgroup_verdict(sym._assert_subgroup, group[1:], 3) == "relabeling set lost the identity"
    assert subgroup_verdict(sym._assert_subgroup, group[:2], 3) == (
        "relabeling set not closed under composition"
    )
    big = relabel_automorphisms(cyclic(255))
    assert len(big) == 255
    assert subgroup_verdict(sym._assert_subgroup, big[:-1], 255) == (
        "relabeling set not closed under composition"
    )


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
    assert conjugating_relabelings(two_by_three, swap) == []


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
    lang = patch_language(rig3, w.extent, mode="minimal")
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
    # each side is grown to its stop: verified3's side-5 language adds its
    # last window at depth 8 and stops at depth 9, past a depth-8 cut
    grown = []
    real = sym._grow

    def spy(theta, extent, roots, shape):
        out = real(theta, extent, roots, shape)
        grown.append((shape, out[1]))
        return out

    monkeypatch.setattr(sym, "_grow", spy)
    theta = substitution_from("verified3.json")
    cand = extended_symmetry_check(theta, SignedPerm((0,), (1,)), depth=5)
    assert cand.describe() == "VerifiedUpTo(5),tau=1,0,2"
    assert {shape for shape, _ in grown} == {(2,), (3,), (4,), (5,)}
    assert dict(grown)[(5,)] == 9, grown


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
    languages = []
    for b in range(n):
        try:
            keys, _ = sym._grow(theta, (1,) * d, [bytes([b])], (side,) * d)
        except CapExceeded:  # some 2-d rules need more levels than the cap allows
            continue
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


def _pair_powers(theta, a):
    """The column-pair sets of theta, theta^2, ... under A, which must fix the size vector."""
    return composed_powers_oracle(sym._column_pairs(_columns(theta), theta.size, a), len(theta.alphabet))


def read_pairs(pairs, n):
    """A `_pair_powers` set as (P, Q) tuples on the n symbols."""
    return {(tuple(p[:n]), tuple(q[:n])) for p, q in pairs}


def assert_pair_powers_match_power(theta, top):
    # each composed set is read from theta^m, and a set that ends the
    # sequence early is followed by a repeat
    n = len(theta.alphabet)
    for a in signed_perm_group(theta.dim):
        if _size_mismatch(theta.size, a) is not None:
            continue
        sets = [read_pairs(p, n) for p in itertools.islice(_pair_powers(theta, a), top)]
        for m, pairs in enumerate(sets, 1):
            assert pairs == position_pairs_oracle(power(theta, m), a), (a, m)
        if len(sets) < top:
            assert position_pairs_oracle(power(theta, len(sets) + 1), a) in sets, a


@pytest.mark.parametrize("source", ["tm1d", "tm2d", "tm3d", "cyc3", "rig3", 5, "quarter4", "seed3"])
def test_shared_powers_equal_power(source):
    theta = substitution_from(source)
    for m in range(1, 5):
        assert power(theta, m) == power_oracle(theta, m), m
    assert_pair_powers_match_power(theta, 4)


@st.composite
def bijective_rules(draw):
    """A random bijective rule, d <= 2, n <= 4, primitive or not."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(2, 4))
    size = tuple(draw(st.integers(2, 3)) for _ in range(d))
    cells = math.prod(size)
    columns = [draw(st.permutations(range(n))) for _ in range(cells)]
    rules = tuple(Pattern((0,) * d, size, bytes(col[a] for col in columns)) for a in range(n))
    return RectSubstitution(Alphabet(tuple(map(str, range(n)))), size, rules)


@settings(max_examples=40, deadline=None)
@given(bijective_rules())
def test_pair_powers_are_read_from_power(theta):
    assert_pair_powers_match_power(theta, 4)


def test_shared_powers_stop_at_cell_cap(tm2d, rig3, monkeypatch):
    # theta^6 is the first power over a cap of 2 * 4^5 cells
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", 2 * 4**5)
    power(tm2d, 5)
    with pytest.raises(CapExceeded):
        power(tm2d, 6)
    # rig3's pair sets hold 3, 5 and 6 pairs, so the next set's bounds are
    # 3 * 3 * 3 = 27 and 5 * 3 * 3 = 45 bytes
    ident = SignedPerm.identity(1)
    assert [len(p) for p in _pair_powers(rig3, ident)] == [3, 5, 6]
    for cap, powers in ((27, 2), (26, 1), (45, 3), (44, 2)):
        monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", cap)
        assert len(list(_pair_powers(rig3, ident))) == powers, cap


def capped_reversal():
    """A binary 1-d rule of length 330 whose theta^3 needs 2 * 330^3 > 2^26
    cells, and every 3-word occurs in theta(0), so the language fallback
    stops at theta^2."""
    rng = random.Random(7)
    row = [rng.randrange(2) for _ in range(329)] + [1]
    rules = (Pattern((0,), (330,), bytes(row)), Pattern((0,), (330,), bytes(1 - c for c in row)))
    return RectSubstitution(Alphabet(("0", "1")), (330,), rules)


def test_cell_cap_ends_power_search():
    # materializing theta^m would stop at theta^2; the reversal's pair set
    # repeats there, so no power past the cap could align either
    theta = capped_reversal()
    power(theta, 2)
    with pytest.raises(CapExceeded):
        power(theta, 3)
    reversal = SignedPerm((0,), (1,))
    assert conjugating_relabelings(power(theta, 2), reversal) == []
    (pairs,) = _pair_powers(theta, reversal)
    assert read_pairs(pairs, 2) == position_pairs_oracle(power(theta, 2), reversal)
    rep = sym_group_report(theta, 3)
    assert rep == sym_group_report_oracle(theta, 3)
    assert rep.by_matrix()[reversal].verdict != EXACT_YES


def test_report_builds_no_power(monkeypatch):
    # the alignment search composes position maps and builds no theta^m;
    # rig3's language fallback reads sides 2 and 3 through theta's own rules (J = 1)
    for name in sorted(BUNDLED):
        theta = bundled_substitution(name)
        if not is_primitive(theta).primitive:
            continue
        want = sym_group_report_oracle(theta, 3)
        applied = []
        real_apply = substitution.apply
        monkeypatch.setattr(substitution, "apply", lambda t, p: applied.append(p) or real_apply(t, p))
        monkeypatch.setattr(substitution, "power", None)
        assert sym_group_report(theta, 3) == want, name
        monkeypatch.undo()
        assert applied == [], name


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


@st.composite
def closure_cases(draw):
    """Candidates for d <= 3 and n <= 4: the full group with every tau
    (closed), random subsets with random tau sets, or the full group with
    one tau dropped from one matrix; the other matrices are refuted."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["full", "subset", "dropped"]))
    rng = draw(st.randoms(use_true_random=False))
    perms = list(itertools.permutations(range(n)))
    group = signed_perm_group(d)
    taus = {a: list(perms) for a in group}
    if kind == "subset":
        taus = {a: rng.sample(perms, rng.randint(1, len(perms))) for a in rng.sample(group, rng.randint(1, len(group)))}
    elif kind == "dropped":
        victim = rng.choice(group)
        del taus[victim][rng.randrange(len(perms))]
        if not taus[victim]:
            del taus[victim]
    out = []
    for a in group:
        if a not in taus:
            out.append(SymmetryCandidate(a, REFUTED_AT, depth=2))
            continue
        ts = taus[a]
        rng.shuffle(ts)
        out.append(SymmetryCandidate(a, EXACT_YES, ts[0], tuple(ts), 1))
    return out


def test_closure_matches_pairwise_oracle():
    # the grouped issuperset check against the pair-by-pair loop it replaced
    outcomes = set()

    @settings(max_examples=120, deadline=None)
    @given(closure_cases())
    def check(candidates):
        got = _closure_ok(candidates)
        assert got == closure_oracle(candidates)
        outcomes.add(got)

    check()
    assert outcomes == {True, False}


def test_report_solves_once_per_pair_set(tm3d, monkeypatch):
    # tm3d's 48 matrices have 2 distinct column-pair sets; each set is
    # searched once, and never per matrix
    columns = _columns(tm3d)
    distinct = {sym._column_pairs(columns, tm3d.size, a) for a in signed_perm_group(3)}
    assert len(distinct) == 2
    want = sym_group_report(tm3d, 3)
    calls = []
    real_align = sym._align
    monkeypatch.setattr(sym, "_align", lambda pairs, n: calls.append(pairs) or real_align(pairs, n))
    assert sym_group_report(tm3d, 3) == want
    assert len(calls) == 2 and set(calls) == distinct


def random_primitive_bijective(seed):
    """A seeded random primitive bijective rule: d <= 3, n <= 5, sides 2-3."""
    rng = random.Random(seed)
    while True:
        d, n = rng.randint(1, 3), rng.randint(2, 5)
        size = tuple(rng.randint(2, 3) for _ in range(d))
        columns = [rng.sample(range(n), n) for _ in range(math.prod(size))]
        rules = tuple(Pattern((0,) * d, size, bytes(col[a] for col in columns)) for a in range(n))
        theta = RectSubstitution(Alphabet(tuple(map(str, range(n)))), size, rules)
        if is_primitive(theta).primitive:
            return theta


def test_seed_admissibility_reads_the_complete_language():
    # the complete 2x2 language of this rule, whose growth stops at depth 18,
    # holds the seed 0,1,0,1, and a growth cut at depth 8 does not.  The
    # oracle closes the 2x2 blocks of theta(0) under w -> the blocks of theta(w)
    theta, seed = random_primitive_bijective(13), Seed(2, (0, 1, 0, 1))
    assert seed.pattern().cells in window_closure_oracle(theta, 0, (2, 2))
    assert seed_admissible_minimal(theta, seed) == SeedAdmissibility(True, 18)


def pair_sets(theta):
    """Each distinct column-pair set of theta, with the first matrix that has it."""
    columns, out = _columns(theta), {}
    for a in signed_perm_group(theta.dim):
        distinct = sym._column_pairs(columns, theta.size, a)
        if distinct is not None:
            out.setdefault(distinct, a)
    return out


#: The oracle stops past this many pairs: |S_4|^2 = 576, so it decides every
#: set whose columns generate at most S_4 and stops on larger ones.
ORACLE_PAIRS = 600

def align_sources(group):
    """The primitive bijective rules of one group of the differential test."""
    if group == "bundled":
        rules = [bundled_substitution(name) for name in sorted(BUNDLED)]
        return [theta for theta in rules if is_primitive(theta).primitive and is_bijective(theta)]
    if group == "pinned":
        return [substitution_from(path.name) for path in sorted(PINNED_SPECS.glob("*.json"))]
    if group == "cyclic":
        return [cyclic(n) for n in range(3, 25)]
    return [random_primitive_bijective(seed) for seed in range(int(group[6:]), 300, 10)]


@pytest.mark.parametrize("group", ["bundled", "pinned", "cyclic"] + [f"random{k}" for k in range(10)])
def test_align_matches_column_pair_search(group):
    # where the old search decided a set, the first power and every hit are
    # the same; where it stopped undecided, a hit past it conjugates theta^m
    # and no lower power, and None stays None
    decided_sets = 0
    for i, theta in enumerate(align_sources(group)):
        n = len(theta.alphabet)
        for distinct, a in pair_sets(theta).items():
            got = sym._align(distinct, n)
            want, decided = column_pair_search_oracle(distinct, n, ORACLE_PAIRS * len(distinct) * n)
            decided_sets += decided
            if decided:
                assert got == want, (i, a)
                continue
            assert want is None, (i, a)
            if got is not None:
                assert_first_power_hits(theta, a, *got)
    assert decided_sets


def assert_first_power_hits(theta, a, m, hits):
    """hits are every tau that conjugates theta^m under A, and no lower power
    has one, wherever theta^m fits the cell cap."""
    try:
        theta_m = power(theta, m)
    except CapExceeded:
        return
    assert all(transformed_substitution(theta_m, a, tau) == theta_m for tau in hits), a
    assert conjugating_relabelings(theta_m, a) == list(hits), a
    assert not any(conjugating_relabelings(power(theta, k), a) for k in range(1, m)), a


def shift_product(k, width=5):
    """The rule x -> (x, x+1, x+2) mod k times a palindromic `width`-symbol
    rule whose columns generate S_width: its reversal aligns first at theta^k."""
    shifts = [tuple((x + i) % k for x in range(k)) for i in range(3)]
    cycle, swap = (*range(1, width), 0), (1, 0, *range(2, width))
    columns = [[width * x + y for x in p for y in q] for p, q in zip(shifts, (cycle, swap, cycle))]
    rules = tuple(Pattern((0,), (3,), bytes(col[a] for col in columns)) for a in range(width * k))
    return RectSubstitution(Alphabet(tuple(map(str, range(width * k)))), (3,), rules)


# cyclic(25)'s R_j repeat from j0 = 24 with period 25, and its reversal is
# decided at m = 25 by R_50, read as R_25.  shift_product(3, 20)'s sets stop
# at the cell cap after R_22, long before they repeat: R_21 first gives all
# 60 symbols an image, so R_24 would decide m = 3, and `_close` does instead
ALIGN_SOURCES = [("cyclic", n) for n in (*range(3, 13), 25)]
ALIGN_SOURCES += [("product", 5), ("product", 7), ("product", 3, 20)]


@pytest.mark.parametrize("source", ALIGN_SOURCES)
def test_align_hits_conjugate_theta_m(source):
    theta = cyclic(source[1]) if source[0] == "cyclic" else shift_product(*source[1:])
    for distinct, a in pair_sets(theta).items():
        got = sym._align(distinct, len(theta.alphabet))
        assert got is not None
        assert_first_power_hits(theta, a, *got)


def closing_powers(monkeypatch):
    """The powers m >= 2 that `_align` hands to `_close`, as it calls it;
    power 1, which every search closes first, is left out."""
    powers, real_close = [], sym._close

    def spy(rules, moved, m, c):
        if m >= 2:
            powers.append(m)
        return real_close(rules, moved, m, c)

    monkeypatch.setattr(sym, "_close", spy)
    return powers


def test_align_cap_ends_undecided(monkeypatch):
    # cyclic(5)'s reversal aligns at m = 5.  R_0 .. R_8 hold 1, 2, 3, 4 and
    # 5 x 5 entries of 6 bytes (210), and R_9 = R_4 is bounded by 5 * 2 * 6 = 60,
    # so cap 270 reaches the repeat.  Below it the sets decide m = 2 .. 4 and
    # `_close` decides m = 5 while R_5 fits: it needs 90 + 5 * 2 * 6 = 150
    theta, reversal = cyclic(5), SignedPerm((0,), (1,))
    distinct = sym._column_pairs(_columns(theta), theta.size, reversal)
    want = sym._align(distinct, 5)
    assert want[0] == 5
    powers = closing_powers(monkeypatch)
    cases = ((270, want, set()), (269, want, {5}), (150, want, {5}), (149, None, set()), (17, None, set()))
    for cap, got, closed in cases:
        monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", cap)
        powers.clear()
        assert sym._align(distinct, 5) == got, cap
        assert set(powers) == closed, cap
    monkeypatch.undo()
    # the report falls back on the capped matrices alone; the fallback itself
    # runs under the real cap
    real_align = sym._align

    def capped(pairs, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(substitution, "DEFAULT_CELL_CAP", 149)
            return real_align(pairs, n)

    full = sym_group_report(theta, 3)
    monkeypatch.setattr(sym, "_align", capped)
    report = sym_group_report(theta, 3)
    assert report.by_matrix()[reversal] == _language_comparison(theta, reversal, 3, {})
    assert report.by_matrix()[reversal] != full.by_matrix()[reversal]
    identity = SignedPerm.identity(1)
    assert report.by_matrix()[identity] == full.by_matrix()[identity]


@pytest.mark.parametrize("cap", [100, 400, 1600, 6400])
def test_capped_align_answers_exactly_or_not_at_all(cap, monkeypatch):
    # under any cap `_align` gives the uncapped answer or None, never a
    # different power or a different set of taus
    sources = align_sources("cyclic")[:10] + align_sources("random0")[:10]
    sources += [shift_product(3), shift_product(4)]
    answers = {}
    for theta in sources:
        for distinct in pair_sets(theta):
            answers[distinct, len(theta.alphabet)] = sym._align(distinct, len(theta.alphabet))
    powers, closed_hits = closing_powers(monkeypatch), 0
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", cap)
    for (distinct, n), want in answers.items():
        powers.clear()
        got = sym._align(distinct, n)
        assert got is None or got == want, (cap, n)
        closed_hits += got is not None and got[0] in powers
    assert closed_hits


def test_close_is_propagate_on_the_pairs_of_theta_m():
    # stepping theta's pairs m times reaches what propagation reads off theta^m's;
    # the hand-built maps need not be permutations, so a symbol can be given
    # two images, or two symbols one
    rng = random.Random(7)
    cases = [(distinct, len(theta.alphabet))
             for theta in align_sources("cyclic")[:6] + [shift_product(3)] + align_sources("random3")[:6]
             for distinct in pair_sets(theta)]
    # from (0, 1) the second step gives symbol 2 the images 1 and 2, which both maps merge
    cases.append((frozenset({(bytes([1, 2, 1]), bytes([1, 0, 0])), (bytes([1, 2, 1]), bytes([2, 0, 0]))}), 3))
    for _ in range(300):
        n = rng.randint(2, 4)
        maps = [bytes(rng.choices(range(n), k=n)) for _ in range(4)]
        cases.append((frozenset((rng.choice(maps), rng.choice(maps)) for _ in range(rng.randint(1, 3))), n))
    for distinct, n in cases:
        for m, pairs in enumerate(composed_powers_oracle(distinct, n, 2000 * len(distinct) * n), 1):
            assert sym._solve(distinct, m, range(n)) == propagate_oracle(pairs, n), (sorted(distinct), m)


@pytest.mark.parametrize("group", ["bundled", "pinned", "cyclic"] + [f"random{k}" for k in range(10)])
def test_conjugating_relabelings_match_propagation(group):
    # the closure at m = 1 against one-symbol-at-a-time propagation over the
    # position maps read cell by cell, for every signed permutation
    found = 0
    for i, theta in enumerate(align_sources(group)):
        n = len(theta.alphabet)
        for a in signed_perm_group(theta.dim):
            got = conjugating_relabelings(theta, a)
            if _size_mismatch(theta.size, a) is not None:
                assert got == [], (i, a)
                continue
            assert got == propagate_oracle(position_pairs_oracle(theta, a), n), (i, a)
            found += bool(got)
    assert found


def test_images_read_one_set_past_coverage():
    ident, swap = bytes([0, 1]), bytes([1, 0])
    full, both = frozenset({(0, ident), (1, swap)}), frozenset({(0, ident), (1, ident)})

    def then_fail():
        raise AssertionError("read past the deciding set")
        yield

    # every symbol has an image after the first set, and the next one decides
    assert sym._images(2, iter([full])) == ([0, 1], None)
    assert sym._images(2, itertools.chain([full, full], then_fail())) == ([0, 1], ((0, 1), (1, 0)))
    # one image for every symbol is not enough: each tau must be a permutation
    assert sym._images(2, iter([both, both])) == ([0, 1], ())
    # two images of one symbol drop every c that tells them apart
    clash = [frozenset({(0, ident)}), frozenset({(0, swap)})]
    assert sym._images(2, itertools.chain(clash, then_fail())) == ([], ())
    # a symbol no set reaches leaves the taus open
    rot = frozenset({(0, bytes([0, 1, 2])), (1, bytes([1, 2, 0]))})
    assert sym._images(3, iter([rot, rot, rot])) == ([0, 1, 2], None)


def test_sym_aligns_past_the_old_power_horizon(tmp_path, capsys):
    # the reversal of a -> (a, a+1 mod 25) aligns at theta^25
    spec = {
        "name": "cyc25",
        "dim": 1,
        "size": [2],
        "alphabet": [str(a) for a in range(25)],
        "rules": {str(a): [str(a), str((a + 1) % 25)] for a in range(25)},
    }
    path = tmp_path / "cyc25.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["sym", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[1] == "-;1 -> ExactYes,tau=0," + ",".join(str(a) for a in range(24, 0, -1))
    assert lines[2] == "psi_image_order=2 split=yes"


def test_sym_falls_back_on_a_language_past_the_whole_patch_cap(r18_spec, tmp_path, capsys):
    path = tmp_path / "r18.json"
    path.write_text(json.dumps(r18_spec), encoding="utf-8")
    assert main(["sym", str(path), "--depth", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 9 and lines[0] == "++;12 -> ExactYes,tau=0,1,2,3"
    assert all(line.endswith(" -> RefutedAt(2)") for line in lines[1:8])
    assert lines[8] == "psi_image_order=1 split=yes"


@pytest.mark.parametrize("cap, stops", [(2**16, False), (36, False), (35, True), (15, True)])
def test_fallback_growth_ends_at_the_cap_not_at_its_depth_bound(cap, stops, r18_spec, monkeypatch):
    # theta's rules take 16 cells and its largest plan reads 36, the 9
    # windows of theta of a 2x2 block; any cap the growth stays within lets
    # it stabilize at depth 18, however far past the cap's bit length
    theta = build_substitution(parse_spec(json.dumps(r18_spec)))
    swap = SignedPerm((1, 0), (0, 0))
    want = _language_comparison(theta, swap, 2, {})
    monkeypatch.setattr(substitution, "DEFAULT_CELL_CAP", cap)
    if stops:
        with pytest.raises(CapExceeded):
            _language_comparison(theta, swap, 2, {})
    else:
        assert _language_comparison(theta, swap, 2, {}) == want


R7 = {
    "name": "r7",
    "dim": 1,
    "size": [3],
    "alphabet": ["0", "1", "2", "3", "4", "5", "6"],
    "rules": {
        "0": ["6", "6", "2"], "1": ["3", "2", "1"], "2": ["5", "3", "0"], "3": ["0", "5", "6"],
        "4": ["1", "4", "3"], "5": ["2", "0", "4"], "6": ["4", "1", "5"],
    },
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is a Linux address-space cap")
def test_sym_stays_small_on_a_large_column_group(tmp_path):
    # r7's columns generate a large group: composing theta^m's column pairs
    # reached 4.3M pairs for the reversal alone
    path = tmp_path / "r7.json"
    path.write_text(json.dumps(R7), encoding="utf-8")
    src = str(Path(sym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
        "from subsym.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = [sys.executable, "-c", code, "sym", str(path), "--depth", "2"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=20)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines() == [
        "+;1 -> ExactYes,tau=0,1,2,3,4,5,6",
        "-;1 -> VerifiedUpTo(2),tau=5,1,2,3,4,0,6",
        "psi_image_order=1 split=unknown",
    ]


def clear_caches():
    """Empty every functools cache of the package, methods' included."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "subsym":
            continue
        for obj in list(vars(module).values()):
            for attr in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                if hasattr(attr, "cache_clear"):
                    attr.cache_clear()


@pytest.mark.parametrize("name", BUNDLED)
def test_sym_output_ignores_warm_caches(name, tmp_path, capsys):
    # theta and its symbol-swapped conjugate share a size, so they share the
    # (size, A) caches; either one warmed by the other prints what it prints cold
    spec = json.loads(bundled_text(name))
    names = spec["alphabet"]
    swapped = dict(spec, alphabet=[names[1], names[0], *names[2:]])
    paths = []
    for tag, obj in (("theta", spec), ("swapped", swapped)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths.append(str(path))

    def run(path):
        code = main(["sym", path])
        return (code, *capsys.readouterr())

    for first, second in (paths, paths[::-1]):
        clear_caches()
        cold = run(second)
        clear_caches()
        run(first)
        assert run(second) == cold, second


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
    ("tm3d", (1, 1, 1), 5), ("tm3d", (2, 0, -1), 3), ("tm3d", (0, 1, -2), 3),
])
def test_refuter_counts_match_a_recount(name, v, threshold):
    # the per-run intervals against the per-cell count they replaced
    block = non_axis_fracture_refuter(bundled_substitution(name), v, threshold, window=64).block
    got = (block.upper_cell, block.lower_cell, block.upper_count, block.lower_count)
    assert got == straddle_counts_oracle(block.block, v, threshold)


@st.composite
def refuter_inputs(draw):
    name = draw(st.sampled_from(["tm2d", "tm3d"]))
    d = 2 if name == "tm2d" else 3
    v = tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    assume(sum(x != 0 for x in v) >= 2)
    return name, v, draw(st.integers(1, 12)), draw(st.integers(1, 32 if d == 2 else 16))


@settings(max_examples=60, deadline=None)
@given(refuter_inputs())
def test_refuter_counts_match_the_cell_oracle(inputs):
    name, v, threshold, window = inputs
    rep = non_axis_fracture_refuter(bundled_substitution(name), v, threshold, window=window)
    if rep.conclusive:
        block = rep.block
        got = (block.upper_cell, block.lower_cell, block.upper_count, block.lower_count)
        assert got == straddle_counts_oracle(block.block, v, threshold)


def test_refuter_block_matches_the_grid_scan():
    # the block solved on one axis is the first one the scan over the whole grid range finds
    rng = random.Random(23)
    thetas = {name: bundled_substitution(name) for name in ("tm2d", "tm3d")}
    for _ in range(300):
        name = rng.choice(sorted(thetas))
        theta = thetas[name]
        v = tuple(rng.randint(-3, 3) for _ in range(theta.dim))
        if sum(x != 0 for x in v) < 2:
            continue
        threshold, window = rng.randint(1, 12), rng.randint(1, 257 if name == "tm2d" else 80)
        rep = non_axis_fracture_refuter(theta, v, threshold, window=window)
        level, block = refuter_block_oracle(theta, v, threshold, window)
        if block is None:
            assert not rep.conclusive
        else:
            assert (rep.block.level, rep.block.block) == (level, block)


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
