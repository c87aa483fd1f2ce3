import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    black_head_edges,
    cross_pick,
    dihedral_table_oracle,
    edge_fits,
    red_head_edges,
    sig_mir,
    sig_rot,
    torus_search_oracle,
)

from subsym.errors import CapExceeded, ScopeError, ValidationError
from subsym.lattice import Rect
from subsym import robinson as rob
from subsym.robinson import (
    E,
    N,
    RED,
    S,
    TILES,
    W,
    PatchSymmetry,
    cross_tile,
    dihedral_group,
    enumerate_tiles,
    four_quadrant_window,
    fracture_shift_demo,
    load_patch_text,
    matches,
    render_ppm,
    render_svg,
    save_patch_text,
    supertile,
    tile_by_token,
    torus_tiling_search,
    verify_patch,
)


# -- alphabet ---------------------------------------------------------------

def test_28_tiles():
    tiles = enumerate_tiles()
    assert len(tiles) == 28
    assert len({t.sig for t in tiles}) == 28


def test_orientation_counts_per_kind():
    counts = Counter(t.kind for t in enumerate_tiles())
    assert counts == {1: 4, 2: 8, 3: 4, 4: 4, 5: 8}


def test_cross_orbit_is_rotations():
    crosses = [t for t in TILES if t.kind == 3]
    assert len(crosses) == 4
    # the four crosses are the four values of the L-arrow opening
    assert {frozenset(red_head_edges(t)) for t in crosses} == {
        frozenset({N, E}), frozenset({N, W}), frozenset({S, E}), frozenset({S, W})
    }


def test_rotation_mirror_tables_are_dihedral():
    ident = tuple(range(28))
    rt, mt = rob.ROTATE_TABLE, rob.MIRROR_TABLE

    def comp(a, b):
        return tuple(a[b[i]] for i in range(28))

    assert sorted(rt) == list(range(28))
    assert sorted(mt) == list(range(28))
    assert comp(rt, comp(rt, comp(rt, rt))) == ident
    assert comp(mt, mt) == ident
    r_inv = comp(rt, comp(rt, rt))
    assert comp(mt, comp(rt, mt)) == r_inv


def test_sig_transforms_agree_with_path_transforms():
    for t in TILES:
        rotated = rob._signature_of(rob._transform_paths(t.paths, 1, 0))
        assert rotated == sig_rot(t.sig)
        mirrored = rob._signature_of(rob._transform_paths(t.paths, 0, 1))
        assert mirrored == sig_mir(t.sig)


def test_spelling_tables_equal_signature_oracle():
    assert rob.ROTATE_TABLE == dihedral_table_oracle(sig_rot)
    assert rob.MIRROR_TABLE == dihedral_table_oracle(sig_mir)


def test_token_roundtrip():
    for t in TILES:
        assert tile_by_token(t.token()) is t
    with pytest.raises(ValidationError):
        tile_by_token("9.0")
    with pytest.raises(ValidationError):
        tile_by_token("nonsense")


def test_every_spelling_is_a_token():
    # 5 kinds x 4 rotations x 2 mirrors: 40 spellings of the 28 tiles
    for kind, rot, mirror in itertools.product(range(1, 6), range(4), (0, 1)):
        token = f"{kind}.{rot}" + ("M" if mirror else "")
        paths = rob._transform_paths(rob._BASE_PATHS[kind], rot, mirror)
        assert tile_by_token(token).sig == rob._signature_of(paths), token


@pytest.mark.parametrize("token", ["01.0", "+1.0", "1.-0", "1.00", "\u0661.0", "1.0 "])
def test_only_the_40_spellings_are_tokens(token):
    with pytest.raises(ValidationError, match="bad tile token"):
        tile_by_token(token)


# -- matching ----------------------------------------------------------------

def test_matches_not_symmetric():
    asym = [
        (a.tid, b.tid)
        for a, b in itertools.product(TILES, repeat=2)
        if matches(a, b, "E") != matches(b, a, "E")
    ]
    assert asym  # head/tail asymmetry shows up somewhere


def test_cross_east_arm():
    # the central cross of the second-order assembly accepts the east arm tile
    st = supertile(2)
    center = st.get(1, 1)
    east_arm = st.get(2, 1)
    assert matches(center, east_arm, "E")


def test_matches_requires_direction():
    with pytest.raises(ValidationError):
        matches(0, 0, "S")


@pytest.mark.parametrize("tid", [-28, -1, 28, 255, 256])
def test_ids_outside_the_alphabet(tid):
    for direction in ("E", "N"):
        for a, b in ((tid, 0), (0, tid)):
            with pytest.raises(ValidationError, match="tile ids"):
                matches(a, b, direction)
    assert rob.is_cross(tid) is False


@pytest.mark.parametrize(
    "direction, a_class, b_class, a_edge, b_edge",
    [
        ("E", rob._EAST_CLASS, rob._WEST_CLASS, E, W),
        ("N", rob._NORTH_CLASS, rob._SOUTH_CLASS, N, S),
    ],
    ids=["E", "N"],
)
def test_edge_tables_equal_signature_matching(direction, a_class, b_class, a_edge, b_edge):
    for a, b in itertools.product(range(len(TILES)), repeat=2):
        fits = edge_fits(a, b, a_edge, b_edge)
        assert matches(a, b, direction) == (a_class[a] == b_class[b]) == fits, (a, b)
    # six edge classes per direction; a byte past the alphabet fits nothing
    assert len(set(a_class[: len(TILES)])) == len(set(b_class[: len(TILES)])) == 6
    assert len(a_class) == len(b_class) == 256
    assert not set(a_class[len(TILES) :]) & set(b_class)
    assert not set(b_class[len(TILES) :]) & set(a_class)


# -- supertiles ---------------------------------------------------------------

def test_supertile_base_case():
    st = supertile(1, "NE")
    assert st.rect == Rect((0, 0), (0, 0))
    assert st.get(0, 0) == cross_tile("NE")


def test_supertile_2_matches_figure():
    """The 3x3 second-order assembly: four inward corner crosses, an
    oriented central cross, rail arms on the L-arrow sides."""
    st = supertile(2, "NE")
    assert verify_patch(st) == []
    # corner crosses point inward
    assert red_head_edges(TILES[st.get(0, 0)]) == {N, E}
    assert red_head_edges(TILES[st.get(2, 0)]) == {N, W}
    assert red_head_edges(TILES[st.get(0, 2)]) == {S, E}
    assert red_head_edges(TILES[st.get(2, 2)]) == {S, W}
    # center carries the supertile orientation
    assert st.get(1, 1) == cross_tile("NE")
    # arms: rail tiles toward N and E, blank tiles toward S and W
    top, right = TILES[st.get(1, 2)], TILES[st.get(2, 1)]
    bottom, left = TILES[st.get(1, 0)], TILES[st.get(0, 1)]
    assert top.kind == 2 and black_head_edges(top) == {N}
    assert (1, RED, "h") in top.sig[N]
    assert right.kind == 2 and black_head_edges(right) == {E}
    assert (1, RED, "h") in right.sig[E]
    assert bottom.kind == 4 and black_head_edges(bottom) == {S}
    assert left.kind == 4 and black_head_edges(left) == {W}


@pytest.mark.parametrize("n", range(2, 7))
def test_supertile_verifies_and_nests(n):
    st = supertile(n)
    side = 2**n - 1
    assert st.rect.extent() == (side, side)
    assert verify_patch(st) == []
    # the four corners hold the four inward-oriented (n-1)-supertiles
    half = 2 ** (n - 1) - 1
    subs = {
        (0, 0): "NE",
        (half + 1, 0): "NW",
        (0, half + 1): "SE",
        (half + 1, half + 1): "SW",
    }
    for (x0, y0), orient in subs.items():
        sub = b"".join(st.rows(Rect((x0, y0), (x0 + half - 1, y0 + half - 1))))
        expect = supertile(n - 1, orient)
        assert sub == expect.tiles


@pytest.mark.parametrize("orient", rob.ORIENTATIONS)
def test_supertile_orientations_verify(orient):
    for n in (2, 3, 4):
        assert verify_patch(supertile(n, orient)) == []


def test_supertile_center_is_oriented_cross():
    for n in (2, 3, 4, 5):
        for orient in rob.ORIENTATIONS:
            st = supertile(n, orient)
            c = 2 ** (n - 1) - 1
            assert st.get(c, c) == cross_tile(orient)


@pytest.mark.parametrize("orient", rob.ORIENTATIONS)
def test_supertile_is_the_reflected_ne_supertile(orient):
    # x -> -x to face west, y -> -y to face south
    signs = (int(orient[1] == "W"), int(orient[0] == "S"))
    g = next(g for g in dihedral_group() if g.a.perm == (0, 1) and g.a.signs == signs)
    for n in range(1, 9):
        image = g.apply(supertile(n, "NE"))
        # re-anchor to (0, 0): the move is by 2^n - 2 or 0 per axis, so the parity stays
        moved = rob.RobinsonPatch(Rect.box(image.rect.extent()), image.tiles, image.parity)
        assert supertile(n, orient) == moved, n


def test_cross_tile_is_the_signature_pick():
    for orient in rob.ORIENTATIONS:
        assert cross_tile(orient) == cross_pick(orient)
    with pytest.raises(ValidationError):
        cross_tile("EN")


def test_supertile_cap():
    with pytest.raises(CapExceeded):
        supertile(9)


def test_off_coset_crosses_head_second_order_assemblies():
    """3x3 sub-patches centered on off-coset crosses.

    First-level centers (positions congruent to (1,1) mod 4) reproduce the
    second-order assembly exactly, in the orientation of their cross.
    Higher-level centers share its skeleton - four inward diagonal crosses
    and outward-heading arms - but carry the plain arm variants, since
    their crossing cells live further out.
    """
    for n in (3, 4, 5):
        st = supertile(n)
        side = 2**n - 1
        for x in range(1, side - 1):
            for y in range(1, side - 1):
                t = st.get(x, y)
                if not rob.is_cross(t) or (x % 2 == 0 and y % 2 == 0):
                    continue
                assert x % 2 == 1 and y % 2 == 1
                orient = next(o for o in rob.ORIENTATIONS if cross_tile(o) == t)
                r = Rect((x - 1, y - 1), (x + 1, y + 1))
                sub = rob.RobinsonPatch(r, b"".join(st.rows(r)), st.parity)
                if (x % 4, y % 4) == (1, 1):
                    assert sub.tiles == supertile(2, orient).tiles
                    continue
                # skeleton: the diagonal crosses orient toward their own
                # first-level centers, i.e. away from this higher-level one
                assert red_head_edges(TILES[sub.get(x - 1, y - 1)]) == {S, W}
                assert red_head_edges(TILES[sub.get(x + 1, y - 1)]) == {S, E}
                assert red_head_edges(TILES[sub.get(x - 1, y + 1)]) == {N, W}
                assert red_head_edges(TILES[sub.get(x + 1, y + 1)]) == {N, E}
                for (ax, ay), edge in (
                    ((x, y + 1), N), ((x + 1, y), E), ((x, y - 1), S), ((x - 1, y), W),
                ):
                    assert black_head_edges(TILES[sub.get(ax, ay)]) == {edge}


# -- four-quadrant windows and fracture demos ----------------------------------

def test_four_quadrant_window_verifies():
    win = four_quadrant_window(31)
    assert win.rect == Rect((-31, -31), (31, 31))
    assert verify_patch(win) == []


def test_four_quadrant_vertical_strip_uniform():
    win = four_quadrant_window(16)
    strip = {win.get(0, y) for y in range(-16, 17)}
    assert len(strip) == 1
    t = TILES[next(iter(strip))]
    assert t.kind == 1 and black_head_edges(t) == {N}


def test_four_quadrant_horizontal_strip_points_inward():
    win = four_quadrant_window(8)
    for x in range(1, 9):
        assert black_head_edges(TILES[win.get(x, 0)]) == {W}
    for x in range(-8, 0):
        assert black_head_edges(TILES[win.get(x, 0)]) == {E}


def test_four_quadrant_coset_consistent():
    win = four_quadrant_window(12)
    assert win.parity == (1, 1)
    for (x, y) in win.rect.cells():
        if (x % 2, y % 2) == (1, 1):
            assert rob.is_cross(win.get(x, y)), (x, y)


def test_four_quadrant_horizontal_config():
    win = four_quadrant_window(16, "horizontal")
    assert verify_patch(win) == []
    strip = {win.get(x, 0) for x in range(-16, 17)}
    assert len(strip) == 1


@pytest.mark.parametrize("k", [1, 2, 4])
def test_fracture_demo_verifies(k):
    patch = fracture_shift_demo(31, k)
    assert verify_patch(patch) == []


def test_fracture_demo_zero_is_window():
    assert fracture_shift_demo(16, 0) == four_quadrant_window(16)


def test_fracture_demo_really_shifts():
    base = four_quadrant_window(16)
    shifted = fracture_shift_demo(16, 1)
    for y in range(-14, 15):
        assert shifted.get(5, y) == base.get(5, y - 2)
        assert shifted.get(-5, y) == base.get(-5, y)


def test_odd_shift_breaks_coset_rule():
    bad = rob._shifted_window(16, 1)
    violations = verify_patch(bad)
    assert any(v.kind == "coset_not_cross" for v in violations)


# -- symmetry action ------------------------------------------------------------

def test_rho_order_four():
    rho = PatchSymmetry.rotation()
    st = supertile(3)
    once = rho.apply(st)
    four = rho.apply(rho.apply(rho.apply(once)))
    assert four == st


def test_mu_involution():
    mu = PatchSymmetry.reflection()
    st = supertile(3, "NW")
    assert mu.apply(mu.apply(st)) == st


def test_symmetries_preserve_validity():
    patches = [supertile(3), four_quadrant_window(8), fracture_shift_demo(8, 1)]
    for g in dihedral_group():
        for p in patches:
            assert verify_patch(p) == []
            assert verify_patch(g.apply(p)) == []


def test_dihedral_group_order_eight():
    group = dihedral_group()
    assert len(group) == 8
    mats = {g.mat for g in group}
    assert len(mats) == 8


def test_eight_distinct_images():
    # supertiles are diagonally symmetric; the shifted window is not
    patch = fracture_shift_demo(4, 1)
    images = {g.apply(patch) for g in dihedral_group()}
    assert len(images) == 8


def test_rho_sends_supertile_to_rotated_supertile():
    rho = PatchSymmetry.rotation()
    # the quarter turn maps the NE assembly onto the NW one (up to support)
    image = rho.apply(supertile(2, "NE"))
    target = supertile(2, "NW")
    assert sorted(image.tiles) == sorted(target.tiles)
    assert verify_patch(image) == []


# -- torus search ----------------------------------------------------------------

def test_torus_2x2_unsat():
    res = torus_tiling_search(2, 2)
    assert res.status == "unsat"


def test_torus_4x4_unsat():
    res = torus_tiling_search(4, 4)
    assert res.status == "unsat"


def test_torus_6x6_unsat_or_timeout():
    res = torus_tiling_search(6, 6, time_cap=60.0)
    assert res.status in ("unsat", "timeout")
    assert res.status == "unsat"  # in practice it closes immediately


_CLASS_PAIRS = {
    "EW": (rob._EAST_CLASS, rob._WEST_CLASS),
    "WE": (rob._WEST_CLASS, rob._EAST_CLASS),
    "NS": (rob._NORTH_CLASS, rob._SOUTH_CLASS),
    "SN": (rob._SOUTH_CLASS, rob._NORTH_CLASS),
}


def test_support_tables_cover_the_four_edge_pairs():
    assert set(rob._support_tables()) == set(_CLASS_PAIRS.values())
    for table in rob._support_tables().values():
        assert [len(row) for row in table] == [256] * 4


@pytest.mark.parametrize("pair", sorted(_CLASS_PAIRS))
@settings(max_examples=150, deadline=None)
@given(subset=st.sets(st.integers(0, len(TILES) - 1)))
def test_support_table_matches_class_sets(pair, subset):
    mine, theirs = _CLASS_PAIRS[pair]
    mask = sum(1 << b for b in subset)
    allowed = 0
    for k, row in enumerate(rob._support_tables()[mine, theirs]):
        allowed |= row[mask >> 8 * k & 255]
    classes = {theirs[b] for b in subset}
    assert allowed == sum(1 << a for a in range(len(TILES)) if mine[a] in classes)


@pytest.mark.parametrize("w", range(2, 11, 2))
def test_torus_search_matches_oracle(w):
    for h in range(2, 11, 2):
        for parity in itertools.product((0, 1), repeat=2):
            res = torus_tiling_search(w, h, parity)
            assert (res.status, res.decisions, res.assignment) == torus_search_oracle(w, h, parity), (h, parity)


def test_torus_odd_periods_rejected():
    with pytest.raises(ScopeError):
        torus_tiling_search(3, 4)


def test_torus_cap():
    with pytest.raises(CapExceeded):
        torus_tiling_search(12, 12)


# -- files and renders -------------------------------------------------------------

def test_patch_text_roundtrip():
    patch = fracture_shift_demo(5, 1)
    text = save_patch_text(patch)
    assert text.startswith("parity=1,1\nanchor=-5,-5\n")
    assert load_patch_text(text) == patch


@pytest.mark.parametrize("tiles", [bytes([0, 200]), bytes([28, 0]), [0, 256], [-1, 0]])
def test_patch_rejects_ids_outside_the_alphabet(tiles):
    with pytest.raises(ValidationError, match="tile ids"):
        rob.RobinsonPatch(Rect.box((2, 1)), tiles, (0, 0))


def test_patch_text_bad_header():
    with pytest.raises(ValidationError):
        load_patch_text("3.0 3.1\n")


def test_patch_text_body_errors():
    # rows are checked for equal length first, then tokens in cell order (bottom row first)
    with pytest.raises(ValidationError, match="equal length"):
        load_patch_text("parity=0,0\n3.0 9.9\n3.0\n")
    with pytest.raises(ValidationError, match="equal length"):
        load_patch_text("parity=0,0\nanchor=1,1\n")
    with pytest.raises(ValidationError, match="'x.1'"):
        load_patch_text("parity=0,0\n3.0 9.9\nx.1 1.0\n")


def test_render_ppm_header():
    st = supertile(2)
    data = render_ppm(st, scale=4)
    assert data.startswith(b"P6\n12 12\n255\n")
    assert len(data) == len(b"P6\n12 12\n255\n") + 12 * 12 * 3


def test_render_svg_wellformed():
    import xml.etree.ElementTree as ET

    st = supertile(2)
    svg = render_svg(st)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) > 9 * 3  # at least all tile glyph paths
