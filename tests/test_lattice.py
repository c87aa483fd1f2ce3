import itertools
import random

import pytest
from oracles import signed_perm_det_oracle

from subsym.errors import ScopeError, ValidationError
from subsym.lattice import (
    Quadrant,
    Rect,
    SignedPerm,
    canonical_quadrants,
    cone_contains_quadrant,
    line_intersection_finite,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    mat_vec,
    point_in_cone,
    random_unimodular,
    signed_perm_group,
)


# -- signed permutations -----------------------------------------------------

@pytest.mark.parametrize("d,count", [(1, 2), (2, 8), (3, 48)])
def test_signed_perm_group_sizes(d, count):
    group = signed_perm_group(d)
    assert len(group) == count
    assert len(set(group)) == count
    assert group[0].is_identity()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_group_identity_inverse_exhaustive(d):
    group = signed_perm_group(d)
    ident = SignedPerm.identity(d)
    for g in group:
        assert g.compose(ident) == g
        assert ident.compose(g) == g
        assert g.compose(g.inverse()) == ident
        assert g.inverse().compose(g) == ident
        assert g.det() in (1, -1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_signed_perm_det_matches_cycle_parity(d):
    # mat_det's cofactor expansion against the parity of cycles and signs
    dets = [g.det() for g in signed_perm_group(d)]
    assert dets == [signed_perm_det_oracle(g) for g in signed_perm_group(d)]
    assert dets.count(1) == dets.count(-1)


def test_signed_perm_matrix_inverse_d3():
    for g in signed_perm_group(3):
        assert mat_inverse_unimodular(g.matrix()) == g.inverse().matrix()


def test_group_associativity_exhaustive_d2():
    group = signed_perm_group(2)
    for a, b, c in itertools.product(group, repeat=3):
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_group_associativity_random_d3():
    group = signed_perm_group(3)
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (group[rng.randrange(len(group))] for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_apply_matches_matrix():
    rng = random.Random(11)
    for g in signed_perm_group(3):
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        assert g.apply(v) == mat_vec(g.matrix(), v)


def test_compose_matches_matrix_product():
    group = signed_perm_group(2)
    for a, b in itertools.product(group, repeat=2):
        assert a.compose(b).matrix() == mat_mul(a.matrix(), b.matrix())


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_translate_composition_matches_compose(d):
    # the closure check composes keys through tables instead of SignedPerm.compose
    group = signed_perm_group(d)
    by_key = {g.key(): g for g in group}
    assert len(by_key) == len(group)
    for a in group:
        table = a.table()
        for b in group:
            assert by_key[b.key().translate(table)] == a.compose(b)


# -- cone predicates ---------------------------------------------------------

def test_cone_identity_contains_first_quadrant():
    ident = ((1, 0), (0, 1))
    assert cone_contains_quadrant(ident, Quadrant.canonical((1, 1)))
    assert not cone_contains_quadrant(ident, Quadrant.canonical((-1, 1)))


def test_cone_shear_contains_nothing():
    shear = ((1, 1), (0, 1))
    for q in canonical_quadrants(2):
        assert not cone_contains_quadrant(shear, q)


def test_cone_rotation():
    rot = ((0, -1), (1, 0))
    assert cone_contains_quadrant(rot, Quadrant.canonical((-1, 1)))
    assert not cone_contains_quadrant(rot, Quadrant.canonical((1, 1)))


def test_cone_rejects_non_unimodular():
    with pytest.raises(ScopeError):
        cone_contains_quadrant(((2, 0), (0, 1)), Quadrant.canonical((1, 1)))


def test_quadrant_contains_is_the_sign_test_on_p_minus_vertex():
    rng = random.Random(7)
    for d in (1, 2, 3):
        for sign in itertools.product((-1, 1), repeat=d):
            q = Quadrant(sign, tuple(rng.randint(-3, 3) for _ in range(d)))
            assert q.contains(q.vertex)
            for p in itertools.product(range(-5, 6), repeat=d):
                offset = tuple(x - v for x, v in zip(p, q.vertex))
                assert q.contains(p) == all(u * x >= 0 for u, x in zip(sign, offset)), (q, p)


def _brute_force_finite(a, p, axis, bound=1000):
    hits = 0
    e = [0, 0]
    e[axis] = 1
    for t in range(-bound, bound + 1):
        q = (p[0] + t * e[0], p[1] + t * e[1])
        if point_in_cone(a, q):
            hits += 1
    # infinite iff the hits keep accumulating near the scan boundary
    edge_hit = any(
        point_in_cone(a, (p[0] + t * e[0], p[1] + t * e[1]))
        for t in (-bound, bound)
    )
    return hits, edge_hit


def test_line_identity_infinite_ray():
    ident = ((1, 0), (0, 1))
    assert line_intersection_finite(ident, (1, 1), 0) is False


def test_line_shear_finite():
    shear = ((1, 1), (0, 1))
    # p = (2, 1) is in the cone; the vertical line through it leaves quickly
    assert line_intersection_finite(shear, (2, 1), 1) is True
    hits, edge = _brute_force_finite(shear, (2, 1), 1)
    assert not edge and hits >= 1


def test_line_wide_wedge_contains_axis_ray():
    # The cone of [[1,-1],[-1,2]] contains the whole first quadrant, so the
    # axis lines through the origin meet it in an infinite ray.
    a = ((1, -1), (-1, 2))
    assert cone_contains_quadrant(a, Quadrant.canonical((1, 1)))
    for axis in (0, 1):
        assert line_intersection_finite(a, (0, 0), axis) is False
        _, edge = _brute_force_finite(a, (0, 0), axis, bound=200)
        assert edge


def test_line_requires_point_in_cone():
    with pytest.raises(ScopeError):
        line_intersection_finite(((1, 0), (0, 1)), (-1, -1), 0)


def test_quadrant_lemma_random_unimodular():
    """No unimodular image cone contains two distinct canonical quadrants."""
    rng = random.Random(987654321)
    quads = canonical_quadrants(2)
    for _ in range(200):
        a = random_unimodular(rng)
        assert abs(mat_det(a)) == 1
        contained = [q for q in quads if cone_contains_quadrant(a, q)]
        assert len(contained) <= 1


def test_line_criterion_agrees_with_scan():
    rng = random.Random(13572468)
    done = 0
    while done < 100:
        a = random_unimodular(rng)
        # random cone point: nonnegative combo of the columns
        lam = (rng.randint(0, 6), rng.randint(0, 6))
        p = (
            a[0][0] * lam[0] + a[0][1] * lam[1],
            a[1][0] * lam[0] + a[1][1] * lam[1],
        )
        if max(map(abs, p)) > 40:
            continue
        axis = rng.randint(0, 1)
        finite = line_intersection_finite(a, p, axis)
        hits, edge_hit = _brute_force_finite(a, p, axis)
        if finite:
            assert not edge_hit, (a, p, axis)
        else:
            assert edge_hit, (a, p, axis)
        assert hits >= 1  # p itself is on the line and in the cone
        done += 1


def test_mat_inverse_unimodular_roundtrip():
    rng = random.Random(5)
    ident = ((1, 0), (0, 1))
    for _ in range(50):
        a = random_unimodular(rng)
        assert mat_mul(a, mat_inverse_unimodular(a)) == ident


def test_rect_validation():
    with pytest.raises(ValidationError):
        Rect((1,), (0,))
    with pytest.raises(ValidationError):
        Rect((0, 0), (1,))


def test_rect_cells_order():
    r = Rect((0, 0), (1, 1))
    assert list(r.cells()) == [(0, 0), (1, 0), (0, 1), (1, 1)]
