"""Kernel contract: each kernel returns the first witness of the plain
enumerative search, or None exactly when that search finds none."""

import random

from doctrines import core


def iter_tables(n, m):
    """All tables of length n with values < m, lexicographic."""
    if n == 0:
        yield ()
        return
    if m == 0:
        return
    table = [0] * n
    while True:
        yield tuple(table)
        i = n - 1
        while i >= 0:
            table[i] += 1
            if table[i] < m:
                break
            table[i] = 0
            i -= 1
        if i < 0:
            return


def ex_witness_scan(na, nb, nc, alpha, beta):
    """First table in enumeration order satisfying the EX condition."""
    for f in iter_tables(na * nb, nc):
        if all(
            not (alpha >> (a * nb + b)) & 1 or (beta >> (a * nc + f[a * nb + b])) & 1
            for a in range(na)
            for b in range(nb)
        ):
            return f
    return None


def un_witness_scan(na, nb, nc, alpha, beta):
    for g in iter_tables(na * nc, nb):
        if all(
            not (alpha >> (a * nb + g[a * nc + c])) & 1 or (beta >> (a * nc + c)) & 1
            for a in range(na)
            for c in range(nc)
        ):
            return g
    return None


def dial_witness_scan(nb, nc, nb2, nc2, alpha, beta):
    for f in iter_tables(nb, nb2):
        for F in iter_tables(nb * nc2, nc):
            if all(
                not (alpha >> (b * nc + F[b * nc2 + c2])) & 1
                or (beta >> (f[b] * nc2 + c2)) & 1
                for b in range(nb)
                for c2 in range(nc2)
            ):
                return f, F
    return None


SMALL = [0, 1, 2]


def stray(n):
    """Bits above a carrier of size n, which every kernel must ignore: UN
    complements its masks, so a stray bit must not become a point."""
    return 0b101 << n


class TestAgainstScan:
    def test_ex_exhaustive(self):
        for na in SMALL:
            for nb in SMALL:
                for nc in SMALL:
                    for alpha in range(1 << (na * nb)):
                        for beta in range(1 << (na * nc)):
                            want = ex_witness_scan(na, nb, nc, alpha, beta)
                            assert core.ex_witness(na, nb, nc, alpha, beta) == want
                            strays = alpha | stray(na * nb), beta | stray(na * nc)
                            assert core.ex_witness(na, nb, nc, *strays) == want

    def test_un_exhaustive(self):
        for na in SMALL:
            for nb in SMALL:
                for nc in SMALL:
                    for alpha in range(1 << (na * nb)):
                        for beta in range(1 << (na * nc)):
                            want = un_witness_scan(na, nb, nc, alpha, beta)
                            assert core.un_witness(na, nb, nc, alpha, beta) == want
                            strays = alpha | stray(na * nb), beta | stray(na * nc)
                            assert core.un_witness(na, nb, nc, *strays) == want

    def test_dial_exhaustive_tiny(self):
        for nb in (0, 1, 2):
            for nc in (0, 1, 2):
                for nb2 in (0, 1, 2):
                    for nc2 in (0, 1, 2):
                        for alpha in range(1 << (nb * nc)):
                            for beta in range(1 << (nb2 * nc2)):
                                want = dial_witness_scan(nb, nc, nb2, nc2, alpha, beta)
                                got = core.dial_witness(nb, nc, nb2, nc2, alpha, beta)
                                assert got == want


# Tables of up to 8 positions, as the law suite reaches at qmax=2, with
# each scan kept under SCAN_CAP candidate tables.
MAX_POSITIONS = 8
SCAN_CAP = 10**4


def sweep_shapes():
    """(na, nb, nc) beyond SMALL whose EX table fits the bounds above; the
    UN table has na*nc positions over nb values, so (na, nc, nb) serves it."""
    for na in range(1, MAX_POSITIONS + 1):
        for nb in range(1, MAX_POSITIONS // na + 1):
            for nc in range(1, MAX_POSITIONS + 1):
                if max(na, nb, nc) > max(SMALL) and nc ** (na * nb) <= SCAN_CAP:
                    yield na, nb, nc


def random_mask(rng, n):
    """n random bits at a random density, with stray bits above them."""
    density = rng.choice((0.2, 0.5, 0.8))
    mask = sum(1 << i for i in range(n) if rng.random() < density)
    return mask | stray(n) if rng.random() < 0.5 else mask


class TestRandomSweep:
    def test_ex_and_un_against_scan(self):
        rng = random.Random(20261019)
        shapes = list(sweep_shapes())
        assert max(na * nb for na, nb, _ in shapes) == MAX_POSITIONS
        for na, nb, nc in shapes:
            for _ in range(6):
                alpha, beta = random_mask(rng, na * nb), random_mask(rng, na * nc)
                want = ex_witness_scan(na, nb, nc, alpha, beta)
                assert core.ex_witness(na, nb, nc, alpha, beta) == want, (na, nb, nc, alpha, beta)
                # the same shape read as UN: tables over na*nb positions with nc values
                alpha, beta = random_mask(rng, na * nc), random_mask(rng, na * nb)
                want = un_witness_scan(na, nc, nb, alpha, beta)
                assert core.un_witness(na, nc, nb, alpha, beta) == want, (na, nc, nb, alpha, beta)


class TestLargeCarrier:
    def test_masks_beyond_64_bits(self):
        # 9x9 product carriers are 81-bit masks
        full = (1 << 81) - 1
        assert core.ex_witness(9, 9, 2, full, (1 << 18) - 1) == (0,) * 81
        assert core.ex_witness(9, 9, 2, full, 0) is None
        assert core.un_witness(9, 9, 9, full, full) == (0,) * 81
        assert core.un_witness(9, 9, 9, full, 0) is None
        assert core.dial_witness(9, 9, 9, 9, 0, 0) == ((0,) * 9, (0,) * 81)
