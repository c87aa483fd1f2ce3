"""Reference computations for the benchmark's output checks.

Nothing here imports `subsym`: specs are read as plain JSON objects and
every answer is recomputed the slow, obvious way, so a defect in the
program under test cannot hide in its own checker.

Conventions follow the spec format: cells of a rule are stored flat with
coordinate 0 varying fastest; a signed permutation ``(perm, signs)`` maps
``e_i`` to ``(-1)^signs[i] * e_{perm[i]}``, as ``subsym.lattice.SignedPerm``
documents it.
"""

from __future__ import annotations

import itertools
import math

# ---------------------------------------------------------------------------
# Specs as flat tables
# ---------------------------------------------------------------------------


def box_cells(size):
    """Cells of [0, size - 1] with coordinate 0 varying fastest."""
    for rev in itertools.product(*(range(s) for s in reversed(size))):
        yield tuple(reversed(rev))


def flat_index(k, size) -> int:
    idx, stride = 0, 1
    for x, s in zip(k, size):
        idx += x * stride
        stride *= s
    return idx


def _nested_get(node, k):
    for c in reversed(k):
        node = node[c]
    return node


def _nested_from_flat(flat, size):
    if len(size) == 1:
        return list(flat)
    inner = math.prod(size[:-1])
    return [
        _nested_from_flat(flat[i * inner:(i + 1) * inner], size[:-1])
        for i in range(size[-1])
    ]


def rule_tables(spec: dict) -> list[list[int]]:
    """Rules as flat symbol-index lists, one per symbol in alphabet order."""
    idx = {name: i for i, name in enumerate(spec["alphabet"])}
    size = tuple(spec["size"])
    return [
        [idx[_nested_get(spec["rules"][name], k)] for k in box_cells(size)]
        for name in spec["alphabet"]
    ]


def spec_from_tables(name: str, alphabet, size, tables) -> dict:
    size = tuple(size)
    return {
        "name": name,
        "dim": len(size),
        "size": list(size),
        "alphabet": list(alphabet),
        "rules": {
            alphabet[a]: _nested_from_flat([alphabet[c] for c in tables[a]], size)
            for a in range(len(alphabet))
        },
    }


def cyclic_spec(n: int) -> dict:
    """The rule a -> (a, a+1 mod n) on n symbols."""
    alphabet = [str(i) for i in range(n)]
    return spec_from_tables(f"cyc{n}r", alphabet, (2,), [[a, (a + 1) % n] for a in range(n)])


# ---------------------------------------------------------------------------
# Signed permutations and relabelings
# ---------------------------------------------------------------------------


def sp_compose(a, b):
    """Matrix product a @ b (apply b first)."""
    (pa, sa), (pb, sb) = a, b
    return (
        tuple(pa[p] for p in pb),
        tuple(sb[i] ^ sa[pb[i]] for i in range(len(pb))),
    )


def sp_inverse(a):
    perm, signs = a
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv), tuple(signs[inv[j]] for j in range(len(perm)))


def sp_text(a) -> str:
    """The CLI's rendering: sign string, ';', 1-based permutation."""
    perm, signs = a
    return "".join("-" if t else "+" for t in signs) + ";" + "".join(str(p + 1) for p in perm)


def sp_parse(text: str):
    signs, perm = text.split(";")
    return tuple(int(c) - 1 for c in perm), tuple(1 if c == "-" else 0 for c in signs)


def perm_conjugate(sigma, tau):
    """sigma o tau o sigma^-1 as a table."""
    out = [0] * len(tau)
    for a, t in enumerate(tau):
        out[sigma[a]] = sigma[t]
    return tuple(out)


def conjugate_spec(spec: dict, sigma, b, name: str) -> dict:
    """Image of a spec under the rigid map (B, sigma).

    The rule of sigma(a) at B.k (re-anchored to the box) is sigma applied
    to the rule of a at k.  The result has the same automorphism group up
    to conjugation by sigma and the same extended-symmetry verdicts with
    every matrix A moved to B A B^-1.  B must fix the size vector.
    """
    perm, signs = b
    size = tuple(spec["size"])
    if any(size[perm[i]] != size[i] for i in range(len(size))):
        raise ValueError("conjugating matrix must fix the size vector")
    tables = rule_tables(spec)
    out = [[0] * len(tables[0]) for _ in tables]
    for a, table in enumerate(tables):
        for k in box_cells(size):
            kk = [0] * len(size)
            for i, x in enumerate(k):
                kk[perm[i]] = size[perm[i]] - 1 - x if signs[i] else x
            out[sigma[a]][flat_index(kk, size)] = sigma[table[flat_index(k, size)]]
    return spec_from_tables(name, spec["alphabet"], size, out)


# ---------------------------------------------------------------------------
# Fixed points by the naive digit walk
# ---------------------------------------------------------------------------


def _perm_order(table) -> int:
    order = 1
    for a in range(len(table)):
        length, b = 1, table[a]
        while b != a:
            b, length = table[b], length + 1
        order = math.lcm(order, length)
    return order


def corner_fixing_power(spec: dict) -> int:
    """lcm of the orders of the 2^d corner maps a -> theta(a)_corner."""
    tables = rule_tables(spec)
    size = tuple(spec["size"])
    m = 1
    for pick in itertools.product((0, 1), repeat=len(size)):
        corner = tuple(0 if p == 0 else s - 1 for p, s in zip(pick, size))
        m = math.lcm(m, _perm_order([t[flat_index(corner, size)] for t in tables]))
    return m


def power_cell(tables, size, symbol: int, levels: int, q) -> int:
    """theta^levels(symbol) at position q, walking base-s digits of q."""
    digit_stack = []
    rest = list(q)
    for _ in range(levels):
        digit = []
        for i, s in enumerate(size):
            rest[i], r = divmod(rest[i], s)
            digit.append(r)
        digit_stack.append(digit)
    if any(rest):
        raise ValueError("position outside theta^levels support")
    for digit in reversed(digit_stack):
        symbol = tables[symbol][flat_index(digit, size)]
    return symbol


def seed_corner_symbol(seed, u) -> int:
    """Seed entry at corner u, corners in itertools.product((-1, 0)) order."""
    return seed[list(itertools.product((-1, 0), repeat=len(u))).index(tuple(u))]


def fixed_point_symbol(tables, size, m: int, seed, shift, k) -> int:
    """Symbol at k of sigma_shift(x), x the theta^m-fixed point with seed `seed`.

    The quadrant of k - shift picks a seed corner; the offset from that
    corner is read inside theta^(m*j)(corner symbol) for the least j whose
    block covers it, mirrored on the negative axes.
    """
    w = [x - v for x, v in zip(k, shift)]
    u = tuple(0 if x >= 0 else -1 for x in w)
    offs = [x if ui == 0 else -1 - x for x, ui in zip(w, u)]
    j = 0
    while any(o >= s ** (m * j) for o, s in zip(offs, size)):
        j += 1
    q = [
        o if ui == 0 else s ** (m * j) - 1 - o
        for o, ui, s in zip(offs, u, size)
    ]
    return power_cell(tables, size, seed_corner_symbol(seed, u), m * j, q)


# ---------------------------------------------------------------------------
# Parsing the CLI's text renders
# ---------------------------------------------------------------------------

GLYPHS = (
    "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "!#$%&()*+,-./:;<=>?@[]^_`{|}~"
)


def parse_render(text: str, lo, hi) -> dict:
    """Cell -> symbol index for a `render_pattern_text` block over [lo, hi].

    Rows run from the top (largest coordinate 1) down; for d >= 3 each
    `[slice ...]` block holds one value of the outer coordinates, last
    coordinate outermost.
    """
    d = len(lo)
    lines = text.splitlines()
    out = {}
    if d == 1:
        (row,) = lines
        for i, ch in enumerate(row):
            out[(lo[0] + i,)] = GLYPHS.index(ch)
        if len(row) != hi[0] - lo[0] + 1:
            raise ValueError("1-d render has the wrong length")
        return out
    outer_ranges = [range(lo[a], hi[a] + 1) for a in reversed(range(2, d))]
    pos = 0
    for n_block, outer in enumerate(itertools.product(*outer_ranges)):
        if n_block:
            if lines[pos] != "":
                raise ValueError("missing blank line between slices")
            pos += 1
        if d > 2:
            want = "[slice " + ",".join(str(v) for v in reversed(outer)) + "]"
            if lines[pos] != want:
                raise ValueError(f"expected {want!r}, got {lines[pos]!r}")
            pos += 1
        for y in range(hi[1], lo[1] - 1, -1):
            row = lines[pos]
            pos += 1
            if len(row) != hi[0] - lo[0] + 1:
                raise ValueError("render row has the wrong length")
            for i, ch in enumerate(row):
                out[(lo[0] + i, y) + tuple(reversed(outer))] = GLYPHS.index(ch)
    if pos != len(lines):
        raise ValueError("trailing lines in render")
    return out
