"""Cell-by-cell reference implementations of the materialization kernels.

Each function is the per-cell code that the row kernel in
`subsym.substitution` replaced (index_of arithmetic on a throwaway
Pattern).  The differential tests compare the fast paths against these.
"""

import math

from subsym.lattice import Rect, vadd, vmul
from subsym.substitution import Pattern, RectSubstitution, corner_order


def apply_oracle(theta, p):
    """Output cell at m*s + k is theta(p_m)_k, written one cell at a time."""
    s = theta.size
    anchor = vmul(p.anchor, s)
    extent = vmul(p.extent, s)
    buf = bytearray(math.prod(extent))
    out = Pattern(anchor, extent, bytes(buf))
    for m in p.rect().cells():
        patch = theta.rule(p.get(m))
        corner = vmul(m, s)
        for k in Rect.box(s).cells():
            buf[out.index_of(vadd(corner, k))] = patch.get(k)
    return Pattern(anchor, extent, bytes(buf))


def subpattern_oracle(p, r):
    buf = bytearray(r.cell_count())
    out = Pattern(r.lo, r.extent(), bytes(buf))
    for k in r.cells():
        buf[out.index_of(k)] = p.get(k)
    return Pattern(r.lo, r.extent(), bytes(buf))


def subpattern_keys_oracle(p, shape):
    """Every shape-window, offsets in cell order, each read cell by cell."""
    if any(sh > e for sh, e in zip(shape, p.extent)):
        return []
    offsets = Rect.box(tuple(e - sh + 1 for sh, e in zip(shape, p.extent)))
    out = []
    for o in offsets.cells():
        lo = vadd(p.anchor, o)
        window = Rect(lo, tuple(x + sh - 1 for x, sh in zip(lo, shape)))
        out.append(bytes(p.get(k) for k in window.cells()))
    return out


def from_rows_oracle(anchor, rows):
    """Walk the nested lists once per cell; outermost index is the last coordinate."""
    dims = []
    probe = rows
    while isinstance(probe, (list, tuple)):
        dims.append(len(probe))
        probe = probe[0]
    extent = tuple(reversed(dims))
    buf = bytearray(math.prod(extent))
    pat = Pattern(anchor, extent, bytes(buf))
    for k in pat.rect().cells():
        node = rows
        for c in reversed(tuple(x - a for x, a in zip(k, anchor))):
            node = node[c]
        buf[pat.index_of(k)] = node
    return Pattern(anchor, extent, bytes(buf))


def seed_pattern_oracle(seed):
    ext = (2,) * seed.dim
    buf = bytearray(1 << seed.dim)
    p = Pattern((-1,) * seed.dim, ext, bytes(buf))
    for u, sym in zip(corner_order(seed.dim), seed.symbols):
        buf[p.index_of(u)] = sym
    return Pattern((-1,) * seed.dim, ext, bytes(buf))


def window_oracle(x, r):
    """symbol_at over an inclusive rect, one query per cell."""
    buf = bytearray(r.cell_count())
    out = Pattern(r.lo, r.extent(), bytes(buf))
    for k in r.cells():
        buf[out.index_of(k)] = x.symbol_at(k)
    return Pattern(r.lo, r.extent(), bytes(buf))


def transform_oracle(theta, a, tau):
    """Cell-by-cell conjugation by (A, tau); None when A moves the size vector."""
    s = theta.size
    inv = a.inverse_perm()
    if tuple(s[inv[j]] for j in range(a.dim)) != s:
        return None

    def re_anchor(k):
        return tuple(
            k[inv[j]] if a.signs[inv[j]] == 0 else s[j] - 1 - k[inv[j]]
            for j in range(a.dim)
        )

    new_rules = [None] * len(theta.alphabet)
    for sym in range(len(theta.alphabet)):
        patch = theta.rule(sym)
        buf = bytearray(len(patch.cells))
        for k in Rect.box(s).cells():
            buf[patch.index_of(re_anchor(k))] = tau[patch.get(k)]
        new_rules[tau[sym]] = Pattern(patch.anchor, patch.extent, bytes(buf))
    return RectSubstitution(theta.alphabet, s, tuple(new_rules))
