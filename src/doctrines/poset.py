"""Finite preorders and posets: reflection, lattice checks.

Orders are stored as tuples of row bitmasks: ``rows[i]`` has bit j set
iff element i is below element j.  Completion fibers arrive here as
preorders; antisymmetry is only ever imposed by an explicit call to
:func:`poset_reflect`, which keeps "equality up to mutual order" a
first-class, testable notion.  In a reflexive, transitive matrix two
elements are mutually comparable exactly when their rows are equal, so a
class of mutual comparability is a row value.
"""

from __future__ import annotations

from .errors import SearchBudgetExceeded

ORDER_MATRIX_CAP = 2**25  # the most entries (labels squared) `Preorder.from_le` builds


class Preorder:
    """An order matrix on labels: validated when built, immutable, equal by fields within one class."""

    def __init__(self, labels: tuple, rows: tuple):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rows", rows)
        n = len(self.labels)
        if len(self.rows) != n:
            raise ValueError("order matrix size disagrees with element count")
        full = (1 << n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError("order matrix has bits outside the carrier")
            if not (row >> i) & 1:
                raise ValueError(f"not reflexive at {self.labels[i]!r}")
        for i in range(n):
            acc = self.rows[i]
            for j in range(n):
                if (self.rows[i] >> j) & 1:
                    acc |= self.rows[j]
            if acc != self.rows[i]:
                raise ValueError(f"not transitive at {self.labels[i]!r}")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.rows) == (other.labels, other.rows)

    def __hash__(self):
        return hash((self.labels, self.rows))

    def __repr__(self):
        return f"{type(self).__name__}(labels={self.labels!r}, rows={self.rows!r})"

    @property
    def n(self) -> int:
        return len(self.labels)

    def le(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    @classmethod
    def from_pairs(cls, labels, pairs):
        """Reflexive-transitive closure of the given covering pairs between
        distinct labels."""
        labels = tuple(labels)
        idx = {x: i for i, x in enumerate(labels)}
        n = len(labels)
        repeated = [x for i, x in enumerate(labels) if idx[x] != i]
        if repeated:
            raise ValueError(f"repeated element {repeated[0]!r}")
        rows = [1 << i for i in range(n)]
        for a, b in pairs:
            if a not in idx or b not in idx:
                raise ValueError(f"order pair ({a!r}, {b!r}) names an unknown element")
            rows[idx[a]] |= 1 << idx[b]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = rows[i]
                for j in range(n):
                    if (rows[i] >> j) & 1:
                        acc |= rows[j]
                if acc != rows[i]:
                    rows[i] = acc
                    changed = True
        return cls(labels, tuple(rows))

    @classmethod
    def from_le(cls, labels, le):
        """The order matrix of ``le`` on ``labels``, built from its classes.

        Labels are walked in order and each is compared with the
        representative (first member) of every class found so far; it joins
        the first class where both directions hold, and otherwise starts a
        new class, whose order against every earlier representative is then
        completed by asking each missing direction once.  Row i is the union
        of the classes above the class of i.  ``le`` must be a preorder: a
        member takes its order against the other classes from its
        representative.  No ordered pair is asked twice and the diagonal
        never, so for k classes there are at most 2·n·k decisions and never
        more than n(n-1).  Every answer asked is the matrix entry of its
        pair, so a wrong answer stays in the matrix or fails validation.
        A matrix of more than ORDER_MATRIX_CAP entries raises
        SearchBudgetExceeded before the first decision.
        """
        labels = tuple(labels)
        if len(labels) ** 2 > ORDER_MATRIX_CAP:
            raise SearchBudgetExceeded(len(labels)**2, ORDER_MATRIX_CAP, f"order matrix of {len(labels)} elements",
                                       "order-matrix entries")
        asked = {}

        def ask(i, j):
            asked[i, j] = answer = bool(le(labels[i], labels[j]))
            return answer

        reps, members, cls_of = [], [], []
        for i in range(len(labels)):
            for c, r in enumerate(reps):
                if ask(i, r) and ask(r, i):
                    members[c] |= 1 << i
                    cls_of.append(c)
                    break
            else:
                for r in reps:
                    if (r, i) not in asked:
                        ask(r, i)
                cls_of.append(len(reps))
                reps.append(i)
                members.append(1 << i)
        # classes are disjoint, so the sum of member masks is their union
        above = [sum(m for s, m in zip(reps, members) if r == s or asked[r, s]) for r in reps]
        rows = [above[c] for c in cls_of]
        for (i, j), answer in asked.items():
            if answer:
                rows[i] |= 1 << j
            else:
                rows[i] &= ~(1 << j)
        return cls(labels, tuple(rows))


class Poset(Preorder):
    def __init__(self, labels: tuple, rows: tuple):
        super().__init__(labels, rows)
        # mutual comparability is equality of rows: name the first pair in
        # row-major order, the least i with a twin and its least twin j
        first, twin = {}, {}
        for j, row in enumerate(self.rows):
            i = first.setdefault(row, j)
            if i != j:
                twin.setdefault(i, j)
        if twin:
            i = min(twin)
            raise ValueError(f"not antisymmetric: {self.labels[i]!r} ~ {self.labels[twin[i]]!r}")


def _least(p: Preorder, members) -> int | None:
    """An element of `members` below all of them, if any (unique in a poset)."""
    for i in members:
        if all(p.le(i, j) for j in members):
            return i
    return None


def _greatest(p: Preorder, members) -> int | None:
    for i in members:
        if all(p.le(j, i) for j in members):
            return i
    return None


def poset_reflect(p: Preorder) -> tuple[Poset, tuple]:
    """Quotient a preorder by mutual comparability.

    A class is a row value: the first element met with each row is the
    class's representative, its least-index member.  Classes are ordered
    by their representatives' order, which is well defined.  Returns the
    quotient poset and each element's class index, the (surjective,
    monotone) projection onto the quotient as a table.  Monotonicity is
    checked one row at a time: row i may only reach members of the classes
    at or above its own, and the first pair (i, j) in row-major order that
    does not is named.
    """
    first = {}
    for i, row in enumerate(p.rows):
        first.setdefault(row, i)
    reps = sorted(first.values())
    pos = {r: k for k, r in enumerate(reps)}
    labels = tuple(p.labels[r] for r in reps)
    rows = tuple(
        sum(1 << pos[s] for s in reps if p.le(r, s)) for r in reps
    )
    quotient = Poset(labels, rows)
    table = tuple(pos[first[row]] for row in p.rows)
    members = [0] * len(reps)
    for i, c in enumerate(table):
        members[c] |= 1 << i
    allowed = [sum(m for d, m in enumerate(members) if quotient.le(c, d)) for c in range(len(reps))]
    for i, row in enumerate(p.rows):
        stray = row & ~allowed[table[i]]
        if stray:
            j = (stray & -stray).bit_length() - 1
            raise ValueError(f"projection not monotone at ({i},{j})")
    return quotient, table


class LatticeReport:
    def __init__(self, has_top: bool, has_bottom: bool, top: int | None, bottom: int | None,
                 meet: dict | None = None, join: dict | None = None, failures: list | None = None):
        self.has_top, self.has_bottom, self.top, self.bottom = has_top, has_bottom, top, bottom
        self.meet = {} if meet is None else meet
        self.join = {} if join is None else join
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return self.has_top and self.has_bottom and not self.failures


def lattice_check(p: Poset) -> LatticeReport:
    """Existence of top, bottom and all binary meets/joins, with witnesses.

    Each found meet/join is certified against its universal property; a
    pair without one is recorded in `failures` as (i, j, kind).
    """
    n = p.n
    everything = range(n)
    top = _greatest(p, everything) if n else None
    bottom = _least(p, everything) if n else None
    report = LatticeReport(top is not None, bottom is not None, top, bottom)
    for i in range(n):
        for j in range(i, n):
            lbs = [k for k in range(n) if p.le(k, i) and p.le(k, j)]
            m = _greatest(p, lbs)
            if m is None:
                report.failures.append((i, j, "meet"))
            else:
                report.meet[(i, j)] = m
            ubs = [k for k in range(n) if p.le(i, k) and p.le(j, k)]
            v = _least(p, ubs)
            if v is None:
                report.failures.append((i, j, "join"))
            else:
                report.join[(i, j)] = v
    return report


def to_dot(p: Preorder, name: str = "poset") -> str:
    """Hasse diagram in DOT; preorders are reflected first."""
    if not isinstance(p, Poset):
        p, _ = poset_reflect(p)
    n = p.n
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i in range(n):
        lines.append(f'  v{i} [label="{p.labels[i]}"];')
    for i in range(n):
        for j in range(n):
            if i == j or not p.le(i, j):
                continue
            if any(k != i and k != j and p.le(i, k) and p.le(k, j) for k in range(n)):
                continue
            lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
