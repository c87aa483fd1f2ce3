"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every expected value is exact; the only tolerances are
the stated runtime caps.
"""

import io
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from subsym.cli import main as cli_main
from subsym.language import patch_language, seed_admissible_minimal
from subsym.lattice import (
    Rect,
    canonical_quadrants,
    cone_contains_quadrant,
    line_intersection_finite,
    mat_vec,
    point_in_cone,
    random_unimodular,
)
from subsym.points import AddressablePoint, contradiction_pair, shift_point
from subsym.substitution import (
    all_seeds,
    corner_fixed,
    fixed_seeds,
    is_bijective,
    power,
)
from subsym.symmetry import (
    EXACT_YES,
    fracture_normal_witness,
    non_axis_fracture_refuter,
    relabel_automorphisms,
    sym_group_report,
)
from subsym import robinson as rob


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{tail}", file=sys.stderr)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_aut_relabel_orders(tm2d, tm3d, cyc3, rig3):
    ok = True
    details = []
    for theta, want in ((tm2d, 2), (tm3d, 2), (cyc3, 3), (rig3, 1)):
        t0 = time.perf_counter()
        got = len(relabel_automorphisms(theta))
        dt = time.perf_counter() - t0
        details.append(f"{got} in {dt:.3f}s")
        ok &= got == want and dt < 1.0
    report(1, "aut relabel group orders", ok, "; ".join(details))


def test_02_sym_reports(tm2d, tm3d):
    rep2 = sym_group_report(tm2d, depth=2)
    ok = (
        rep2.psi_image_order == 8
        and all(c.verdict == EXACT_YES for c in rep2.candidates)
        and rep2.closure_ok
        and rep2.split == "yes"
    )
    t0 = time.perf_counter()
    rep3 = sym_group_report(tm3d, depth=2)
    dt = time.perf_counter() - t0
    ok &= rep3.psi_image_order == 48 and all(
        c.verdict == EXACT_YES for c in rep3.candidates
    )
    ok &= dt < 30.0
    report(2, "sym full hyperoctahedral image", ok, f"d=3 in {dt:.2f}s")


def test_03_fixed_seed_counts(corpus):
    ok = True
    details = []
    for name, theta in corpus.items():
        if len(theta.alphabet) != 2 or not is_bijective(theta):
            continue
        theta_cf, _ = corner_fixed(theta)
        got = len(fixed_seeds(theta_cf).fixed)
        want = 2 ** (2**theta.dim)
        details.append(f"{name}:{got}")
        ok &= got == want
    report(3, "fixed seeds are 2^(2^d) after corner fixing", ok, " ".join(details))


def test_04_lazy_point_oracle(corpus):
    ok = True
    details = []
    for name, theta in corpus.items():
        theta_cf = corner_fixed(theta)[0] if is_bijective(theta) else theta
        fixed = fixed_seeds(theta_cf).fixed
        if not fixed:
            ok = False
            details.append(f"{name}:no-fixed-seed")
            continue
        d = theta.dim
        # seeds with constant symbol a let window [0, s^m-1] reproduce theta^m(a)
        for a in range(len(theta.alphabet)):
            seed = next(s for s in fixed if len(set(s.symbols)) == 1 and s.symbols[0] == a)
            x = AddressablePoint(theta_cf, seed)
            for m in range(1, 7):
                patch = power(theta, m).rule(a)
                if x.window(patch.rect()) != patch:
                    ok = False
                    details.append(f"{name}:m={m}")
        details.append(f"{name}:ok")
    # the displayed 16 symbols around the dot
    tm1d_cf, _ = corner_fixed(corpus["tm1d"])
    from subsym.substitution import Seed

    x = AddressablePoint(tm1d_cf, Seed(1, (1, 0)))
    w = x.window(Rect((-8,), (7,)))
    got = "".join(str(w.get((k,))) for k in range(-8, 8))
    ok &= got == "0110100101101001"
    report(4, "lazy windows equal materialized powers", ok, " ".join(details))


def test_05_phi_additivity_coherence(corpus):
    rng = random.Random(424242)
    ok = True
    for name, theta in corpus.items():
        theta_cf = corner_fixed(theta)[0] if is_bijective(theta) else theta
        fixed = fixed_seeds(theta_cf).fixed
        if not fixed:
            ok = False
            continue
        x = AddressablePoint(theta_cf, fixed[0])
        for _ in range(100):
            k = tuple(rng.randint(-10**6, 10**6) for _ in range(theta.dim))
            lhs = shift_point(x, k).phi(8)   # coherence checked on construction
            rhs = x.phi(8).add_integer(k)
            ok &= lhs == rhs
    report(5, "odometer coordinate additivity and coherence", ok)


def test_06_contradiction_pair(tm2d):
    theta_cf, _ = corner_fixed(tm2d)
    pair = contradiction_pair(theta_cf, (1, 1))
    r = Rect((-64, -64), (63, 63))
    wx, wy = pair.x.window(r), pair.y.window(r)
    ok = all((wx.get(k) == wy.get(k)) == pair.expected_equal(k) for k in r.cells())
    # on the quadrant the two points are bitwise complements
    ok &= all(
        wx.get(k) == 1 - wy.get(k) for k in Rect((0, 0), (63, 63)).cells()
    )
    report(6, "contradiction pair masks on [-64,63]^2", ok)


def test_07_fracture_suite(tm2d):
    theta_cf, _ = corner_fixed(tm2d)
    ok = True
    for axis in (0, 1):
        w = fracture_normal_witness(theta_cf, axis, window=128)
        ok &= w.ok
    details = []
    for v in ((1, 1), (2, 1), (1, -1)):
        for n in (4, 8):
            rep = non_axis_fracture_refuter(tm2d, v, n, window=128)
            ok &= rep.conclusive
            details.append(f"{v}/N={n}:m={rep.block.level if rep.block else '-'}")
    report(7, "fracture witnesses and non-axis refuters", ok, " ".join(details))


def test_08_quadrant_lemma_properties():
    rng = random.Random(987654321)
    quads = canonical_quadrants(2)
    ok = True
    for _ in range(200):
        a = random_unimodular(rng)
        contained = sum(1 for q in quads if cone_contains_quadrant(a, q))
        ok &= contained <= 1
    # finite-line criterion against brute-force scans
    rng2 = random.Random(13572468)
    done = 0
    while done < 100:
        a = random_unimodular(rng2)
        lam = (rng2.randint(0, 6), rng2.randint(0, 6))
        p = tuple(mat_vec(a, lam))
        if max(map(abs, p)) > 40:
            continue
        axis = rng2.randint(0, 1)
        finite = line_intersection_finite(a, p, axis)
        e = [0, 0]
        e[axis] = 1
        edge_hit = any(
            point_in_cone(a, (p[0] + t * e[0], p[1] + t * e[1]))
            for t in (-1000, 1000)
        )
        ok &= finite == (not edge_hit)
        done += 1
    report(8, "quadrant and finite-line lemma properties", ok)


def test_09_minimality_gap(tm2d):
    lang_min = patch_language(tm2d, (2, 2), mode="minimal")
    lang_full = patch_language(tm2d, (2, 2), mode="full")
    ok = lang_min.patterns < lang_full.patterns
    failing = [
        s.symbols
        for s in all_seeds(tm2d)
        if not seed_admissible_minimal(tm2d, s).admissible
    ]
    # golden from the brute-force oracle: exactly the odd-sum seeds fail
    ok &= len(failing) == 8 and all(sum(s) % 2 == 1 for s in failing)
    report(9, "minimality gap and inadmissible seeds", ok,
           f"min={len(lang_min)} full={len(lang_full)} failing={len(failing)}")


def test_10_robinson_suite():
    t0 = time.perf_counter()
    ok = len(rob.enumerate_tiles()) == 28
    for n in range(2, 7):
        st = rob.supertile(n)
        ok &= st.rect.extent() == (2**n - 1, 2**n - 1)
        ok &= rob.verify_patch(st) == []
    ident = tuple(range(28))

    def comp(a, b):
        return tuple(a[b[i]] for i in range(28))

    rt, mt = rob.ROTATE_TABLE, rob.MIRROR_TABLE
    ok &= comp(rt, comp(rt, comp(rt, rt))) == ident
    ok &= comp(mt, mt) == ident
    ok &= comp(mt, comp(rt, mt)) == comp(rt, comp(rt, rt))
    rho = rob.PatchSymmetry.rotation()
    mu = rob.PatchSymmetry.reflection()
    for g in (rho, mu, rho.compose(mu)):
        ok &= rob.verify_patch(g.apply(rob.supertile(4))) == []
    ok &= rob.verify_patch(rob.four_quadrant_window(31)) == []
    for k in (1, 2, 4):
        ok &= rob.verify_patch(rob.fracture_shift_demo(31, k)) == []
    odd = rob._shifted_window(31, 1)
    ok &= any(v.kind == "coset_not_cross" for v in rob.verify_patch(odd))
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    report(10, "robinson tiles, supertiles, windows, fracture demos", ok, f"{dt:.2f}s")


def test_11_torus_unsat():
    ok = True
    details = []
    for w, h in ((2, 2), (4, 4)):
        res = rob.torus_tiling_search(w, h, time_cap=60.0)
        ok &= res.status == "unsat"
        details.append(f"{w}x{h}:{res.status}")
    res = rob.torus_tiling_search(6, 6, time_cap=60.0)
    ok &= res.status in ("unsat", "timeout")
    details.append(f"6x6:{res.status}")
    report(11, "torus searches end unsat (not a certificate of aperiodicity)", ok, " ".join(details))


def test_12_determinism_across_threads():
    def capture(threads):
        chunks = []
        for argv in (
            ["--threads", threads, "sym", "tm2d", "--depth", "2"],
            ["--threads", threads, "analyze", "tm3d"],
            ["--threads", threads, "lang", "tm2d", "--shape", "2,2"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(argv)
            assert code == 0
            chunks.append(out.getvalue())
        return "".join(chunks)

    ok = capture("1") == capture("8")
    report(12, "reports byte-identical across thread counts", ok)
