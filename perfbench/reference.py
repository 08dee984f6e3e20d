"""Answers the library must reproduce, computed without the library.

Predicates are Python sets of pairs here.  Each order is decided by its
first-order definition read off the sets, and each certificate is checked
against the inequality it claims.  Nothing in this module imports
``doctrines``; the only shared knowledge is the documented row-major
layout of product carriers (pair ``(x, y)`` of ``X x Y`` is bit
``x * |Y| + y``), which is how certificate tables are indexed.

For hom-sets of at most ``SCAN_CAP`` candidates, ``least_*`` scans every
candidate in lexicographic table order, so the first hit is the least
certificate and no hit at all proves a negative answer.
"""

from __future__ import annotations

from itertools import product

SCAN_CAP = 256


def from_mask(mask: int, nrows: int, ncols: int) -> frozenset:
    return frozenset(
        (i // ncols, i % ncols) for i in range(nrows * ncols) if (mask >> i) & 1
    )


# -- the orders, by definition -----------------------------------------------


def ex_holds(na, nb, nc, alpha, beta) -> bool:
    """exists f: A x B -> C. forall (a, b) in alpha. (a, f(a, b)) in beta."""
    if na * nb == 0:
        return True
    if nc == 0:
        return False
    return all(any((a, c) in beta for c in range(nc)) for a, _b in alpha)


def un_holds(na, nb, nc, alpha, beta) -> bool:
    """exists g: A x C -> B. forall (a, c). (a, g(a, c)) in alpha -> (a, c) in beta."""
    if na * nc == 0:
        return True
    if nb == 0:
        return False
    return all(
        any((a, b) not in alpha for b in range(nb))
        for a in range(na)
        for c in range(nc)
        if (a, c) not in beta
    )


def dial_holds(nb, nc, nb2, nc2, alpha, beta) -> bool:
    """exists f: B -> B', F: B x C' -> C. forall b, c'.
    (b, F(b, c')) in alpha -> (f(b), c') in beta."""
    return dial_decide(nb, nc, nb2, nc2, dial_escapes(nb, nc, alpha),
                       dial_has_full_row(nb2, nc2, beta))


def dial_escapes(nb, nc, alpha) -> bool:
    """forall b. exists c. (b, c) not in alpha."""
    return all(any((b, c) not in alpha for c in range(nc)) for b in range(nb))


def dial_has_full_row(nb2, nc2, beta) -> bool:
    """exists b'. forall c'. (b', c') in beta."""
    return any(all((b2, c2) in beta for c2 in range(nc2)) for b2 in range(nb2))


def dial_decide(nb, nc, nb2, nc2, escapes, has_full_row) -> bool:
    """The dialectica order from the two facts above.

    f and F are chosen independently at each b.  If some c lies outside
    alpha at b, F(b, c') = c satisfies every c' whatever f(b) is;
    otherwise every c' must hold at f(b), so f(b) needs a full row of
    beta.  Hence u <= v iff every b escapes or beta has a full row, given
    that the maps exist at all: B' is inhabited when B is, and C when
    B x C' is.
    """
    if nb == 0:
        return True
    if nb2 == 0 or (nc2 > 0 and nc == 0):
        return False
    return escapes or has_full_row


# -- certificates ----------------------------------------------------------------


def ex_certifies(na, nb, nc, alpha, beta, f) -> bool:
    return all((a, f[a * nb + b]) in beta for a, b in alpha)


def un_certifies(na, nb, nc, alpha, beta, g) -> bool:
    return all(
        (a, c) in beta or (a, g[a * nc + c]) not in alpha
        for a in range(na)
        for c in range(nc)
    )


def dial_certifies(nb, nc, nb2, nc2, alpha, beta, f, big_f) -> bool:
    return all(
        (b, big_f[b * nc2 + c2]) not in alpha or (f[b], c2) in beta
        for b in range(nb)
        for c2 in range(nc2)
    )


# -- brute-force least certificates --------------------------------------------

TOO_BIG = object()


def least_ex(na, nb, nc, alpha, beta):
    """The first f in table order, None if there is none, TOO_BIG past the cap."""
    if nc ** (na * nb) > SCAN_CAP:
        return TOO_BIG
    for f in product(range(nc), repeat=na * nb):
        if ex_certifies(na, nb, nc, alpha, beta, f):
            return f
    return None


def least_un(na, nb, nc, alpha, beta):
    if nb ** (na * nc) > SCAN_CAP:
        return TOO_BIG
    for g in product(range(nb), repeat=na * nc):
        if un_certifies(na, nb, nc, alpha, beta, g):
            return g
    return None


def least_dial(nb, nc, nb2, nc2, alpha, beta):
    """The first (f, F), f-major, in table order."""
    if nb2**nb * nc ** (nb * nc2) > SCAN_CAP:
        return TOO_BIG
    for f in product(range(nb2), repeat=nb):
        for big_f in product(range(nc), repeat=nb * nc2):
            if dial_certifies(nb, nc, nb2, nc2, alpha, beta, f, big_f):
                return f, big_f
    return None
