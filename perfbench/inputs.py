"""Seeded inputs of the order-stream workload, as bitmasks.

One pass of the stream is 4,000 completion decisions and 1,000 dialectica
decisions in a seeded order.  Completion decisions alternate EX and UN,
with a base of 1 to 3 elements and quantified objects of 0 to 6.
Dialectica decisions have all four carriers in 1..6.  Every carrier size
is drawn uniformly, every predicate draws its density uniformly, and then
each pair independently.  ``order_stream`` tells how the pass number and
the seed share the dialectica draws.

A predicate on X x Y is an int whose bit ``x * |Y| + y`` is set when the
pair (x, y) is in it, the layout the library's ``elem``/``DialObj`` take.
The references read it back as a set of pairs with ``reference.from_mask``.
"""

from __future__ import annotations

import random

LEQ_PER_PASS = 4000
DIAL_PER_PASS = 1000
MAX_BASE = 3
MAX_CARRIER = 6


def _mask(rng, nrows, ncols):
    p = rng.random()
    mask = 0
    for i in range(nrows * ncols):
        if rng.random() < p:
            mask |= 1 << i
    return mask


def _leq_instance(rng, polarity):
    na = rng.randint(1, MAX_BASE)
    nb = rng.randint(0, MAX_CARRIER)
    nc = rng.randint(0, MAX_CARRIER)
    return (polarity, na, nb, nc, _mask(rng, na, nb), _mask(rng, na, nc))


def _dial_instance(rng):
    nb, nc, nb2, nc2 = (rng.randint(1, MAX_CARRIER) for _ in range(4))
    return ("DIAL", nb, nc, nb2, nc2, _mask(rng, nb, nc), _mask(rng, nb2, nc2))


def first_full_row(nrows, ncols, mask):
    """The first row of the predicate that holds everywhere, or -1."""
    full = (1 << ncols) - 1
    for x in range(nrows):
        if (mask >> (x * ncols)) & full == full:
            return x
    return -1


def _dial_in_cell(rng, nb, nb2, nc2, alpha_full, beta_size, beta_full):
    """A uniform dialectica instance conditioned on its cost cell: the
    carriers |B|, |B'|, |C'|, the first full rows of alpha and beta, and
    the size of beta.

    Alpha is drawn by rejection from the uniform draw.  With a uniform
    density every size of beta is equally likely and, given its size, beta
    is a uniform subset, so it is drawn by rejection among subsets of that
    size.  Both keep the conditional distribution exact.
    """
    while True:
        nc = rng.randint(1, MAX_CARRIER)
        alpha = _mask(rng, nb, nc)
        if first_full_row(nb, nc, alpha) == alpha_full:
            break
    while True:
        beta = sum(1 << i for i in rng.sample(range(nb2 * nc2), beta_size))
        if first_full_row(nb2, nc2, beta) == beta_full:
            return ("DIAL", nb, nc, nb2, nc2, alpha, beta)


def _cell(inst):
    _, nb, nc, nb2, nc2, alpha, beta = inst
    return (nb, nb2, nc2, first_full_row(nb, nc, alpha), bin(beta).count("1"),
            first_full_row(nb2, nc2, beta))


def order_stream(seed: int, pass_index: int) -> list:
    """The decisions of one pass; the same (seed, pass) gives the same list.

    The cost of a dialectica decision is set by its cell (see
    ``_dial_in_cell``).  The odometer scans forward maps f in table order,
    each up to the first full row of alpha, which f must send to a full
    row of beta: a negative decision scans all |B'|^|B| of them, a
    positive one stops at the first f that does.  The cells come from a
    uniform draw fixed by the pass number, and the seed draws each instance
    within its cell.  So every pass is a draw of the uniform stream, and
    pass k costs about the same under every seed.
    """
    cells = random.Random(f"order-stream-cells:{pass_index}")
    rng = random.Random(f"order-stream:{seed}:{pass_index}")
    out = [_leq_instance(rng, "EX" if i % 2 == 0 else "UN") for i in range(LEQ_PER_PASS)]
    out += [_dial_in_cell(rng, *_cell(_dial_instance(cells))) for _ in range(DIAL_PER_PASS)]
    rng.shuffle(out)
    return out


def pass_inputs(workload: str, seed: int, pass_index: int):
    """Benchmark-side inputs of one pass; the other workloads need none."""
    return order_stream(seed, pass_index) if workload == "order-stream" else None
