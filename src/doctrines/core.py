"""Order-decision kernels over bitmask predicates.

A predicate over a carrier {0,..,n-1} is an int with bit i set iff i
belongs to the subset.  Product carriers are flattened row-major: (a, b)
maps to a*nb + b.

Each kernel returns the lexicographically least witness table.  In
``ex_witness`` the admissible values at distinct table positions are
independent of each other, so the least witness is the pointwise minimum
and the kernel is linear in the carrier size.  It works one row (one
point a of A) at a time.  A position (a, b) in alpha takes c, the first
point of beta's row a, and every other position takes 0.  So a row is a
run of zeros when alpha's row a is empty or c is 0, and "no" when
alpha's row a is not empty but beta's is.  ``un_witness`` is
``ex_witness`` through complement: g: A x C -> B witnesses the universal
order exactly when it sends every point outside beta to a point outside
alpha.  Only ``dial_witness`` is not linear: it scans the forward map f
by odometer, up to nb2**nb candidates, and takes no search budget.
"""

from __future__ import annotations

# Names the kernel implementation in benchmark reports.
BACKEND = "pure"


def _first_set(mask: int, limit: int) -> int:
    """Least bit index below `limit` set in mask, or -1."""
    m = mask & ((1 << limit) - 1)
    if m == 0:
        return -1
    return (m & -m).bit_length() - 1


def ex_witness(na: int, nb: int, nc: int, alpha: int, beta: int):
    """Least f: (A x B) -> C with (a,b) in alpha implying (a, f(a,b)) in beta.

    alpha is a mask over A x B, beta over A x C.  Returns the table as a
    tuple, or None when no table qualifies.
    """
    if na * nb == 0:
        return ()
    if nc == 0:
        return None
    row_mask = (1 << nb) - 1
    col_mask = (1 << nc) - 1
    zeros = (0,) * nb
    out = ()
    for _ in range(na):
        row = alpha & row_mask
        alpha >>= nb
        col = beta & col_mask
        beta >>= nc
        if row:
            if not col:
                return None
            c = (col & -col).bit_length() - 1
            if c:
                out += tuple([c if (row >> b) & 1 else 0 for b in range(nb)])
                continue
        out += zeros
    return out


def un_witness(na: int, nb: int, nc: int, alpha: int, beta: int):
    """Least g: (A x C) -> B with (a, g(a,c)) in alpha implying (a,c) in beta.

    alpha is a mask over A x B, beta over A x C.  Returns the table as a
    tuple, or None when no table qualifies.
    """
    return ex_witness(na, nc, nb, ~beta & ((1 << (na * nc)) - 1), ~alpha & ((1 << (na * nb)) - 1))


def dial_witness(nb: int, nc: int, nb2: int, nc2: int, alpha: int, beta: int):
    """Least pair (f: B -> B', F: (B x C') -> C), ordered f-major, with
    (b, F(b,c')) in alpha implying (f(b), c') in beta.

    alpha is a mask over B x C, beta over B' x C'.  Returns (f, F) as
    tuples, or None.  For a fixed f the admissible F form a box, so F is
    constructed greedily; f itself is scanned by odometer.
    """
    if nb == 0:
        return (), ()
    if nb2 == 0:
        return None
    if nc2 > 0 and nc == 0:
        return None
    f = [0] * nb
    while True:
        F = _dial_greedy(f, nb, nc, nc2, alpha, beta)
        if F is not None:
            return tuple(f), F
        i = nb - 1
        while i >= 0:
            f[i] += 1
            if f[i] < nb2:
                break
            f[i] = 0
            i -= 1
        if i < 0:
            return None


def _dial_greedy(f, nb, nc, nc2, alpha, beta):
    out = []
    for b in range(nb):
        c = _first_set(~alpha >> (b * nc), nc)
        brow = beta >> (f[b] * nc2)
        for c2 in range(nc2):
            if (brow >> c2) & 1:
                out.append(0)
            elif c < 0:
                return None
            else:
                out.append(c)
    return tuple(out)
