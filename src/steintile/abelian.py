"""Finite abelian groups and their subgroups in Hermite normal form.

Groups are direct products of cyclic groups Z_{d1} x ... x Z_{dk} (order
guarded by a configurable cap); elements are integer tuples, one coordinate
per cyclic factor. A subgroup is the row HNF of its preimage lattice in Z^k:
orders, membership, coset minima, sums and intersections are O(k^2)-O(k^3)
integer work and never walk the group. Listing members (`_closure`) and the
coset table `quotient` stay as the enumeration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, ValidationError

Element = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10**6


def _as_ints(xs, what: str) -> tuple[int, ...]:
    """The integer rule for group orders and element coordinates: a list of
    ints or decimal-integer strings. Booleans, floats and a bare string are
    refused, never truncated or split into digits."""
    if isinstance(xs, str):
        raise ValidationError(f"{what} must be a list, got {xs!r}")
    try:
        xs = list(xs)
    except TypeError as exc:
        raise ValidationError(f"{what} must be a list: {exc}") from exc
    out = []
    for x in xs:
        if isinstance(x, str):
            try:
                x = int(x)
            except ValueError:
                pass
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValidationError(f"{what} must be integers, got {x!r}")
        out.append(x)
    return tuple(out)


class FiniteAbelianGroup:
    """Z_{d1} x ... x Z_{dk} with componentwise addition modulo d_i."""

    __slots__ = ("orders", "order", "_elements")

    def __init__(self, orders: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP):
        orders = _as_ints(orders, "cyclic factor orders")
        if not orders or any(d < 1 for d in orders):
            raise ValidationError(f"cyclic factor orders must be >= 1, got {list(orders)}")
        order = math.prod(orders)
        if order > cap:
            raise CapExceededError(f"group order {order} exceeds enumeration cap {cap}")
        self.orders = orders
        self.order = order
        self._elements: tuple[Element, ...] | None = None

    @property
    def zero(self) -> Element:
        return (0,) * len(self.orders)

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic order."""
        if self._elements is None:
            self._elements = tuple(product(*(range(d) for d in self.orders)))
        return self._elements

    def check(self, x) -> Element:
        x = _as_ints(x, "element coordinates")
        if len(x) != len(self.orders) or any(not 0 <= c < d for c, d in zip(x, self.orders)):
            raise ValidationError(f"{x} is not an element of {self!r}")
        return x

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def __eq__(self, other):
        if not isinstance(other, FiniteAbelianGroup):
            return NotImplemented
        return self.orders == other.orders

    def __hash__(self):
        return hash(("FiniteAbelianGroup", self.orders))

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.orders)})"


class Subgroup:
    """A subgroup H of G = Z_{d1} x ... x Z_{dk}, held as its generators and
    the row Hermite normal form `hnf` of the generators stacked on diag(d).

    `hnf` is a basis of H's preimage lattice in Z^k and is canonical, so it
    decides equality. Reducing x by its rows in order gives the least member
    of x + H, and the coset minima are the points with 0 <= x_i < hnf[i][i].
    """

    __slots__ = ("parent", "generators", "hnf")

    def __init__(self, parent: FiniteAbelianGroup, generators: Iterable[Element], hnf=None):
        self.parent = parent
        self.generators = tuple(generators)
        if hnf is None:
            k = len(parent.orders)
            hnf = _integer_hnf([list(g) for g in self.generators]
                               + [[d if i == j else 0 for j in range(k)]
                                  for i, d in enumerate(parent.orders)], k)
        self.hnf = tuple(tuple(row) for row in hnf)

    @property
    def index(self) -> int:
        return math.prod(row[i] for i, row in enumerate(self.hnf))

    @property
    def order(self) -> int:
        return self.parent.order // self.index

    def reduce(self, x: Sequence[int]) -> Element:
        """The lexicographically least member of x + H, for any integer vector x."""
        for i, row in enumerate(self.hnf):
            c = x[i] // row[i]
            if c:
                x = [a - c * b for a, b in zip(x, row)]
        return tuple(x)

    def contains(self, x: Element) -> bool:
        return not any(self.reduce(x))

    def coset_minima(self) -> Iterator[Element]:
        """The least member of every coset of H, in lexicographic order."""
        return product(*(range(row[i]) for i, row in enumerate(self.hnf)))

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.hnf == other.hnf

    def __hash__(self):
        return hash((self.parent, self.hnf))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"


def make_group(orders: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP) -> FiniteAbelianGroup:
    """Construct Z_{d1} x ... x Z_{dk}; the product of orders must stay under cap."""
    return FiniteAbelianGroup(orders, cap=cap)


def _xgcd(a: int, b: int):
    """(g, x, y) with g = x*a + y*b = +-gcd(a, b)."""
    x, nx, y, ny = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, x, nx, y, ny = b, a - q * b, nx, x - q * nx, ny, y - q * ny
    return a, x, y


def _integer_hnf(rows: list[list[int]], d: int) -> list[list[int]]:
    """Row-span HNF: upper triangular, positive diagonal, entries above each
    pivot reduced modulo it. Raises on rank deficiency."""
    work = [list(r) for r in rows if any(r)]
    result: list[list[int]] = []
    for col in range(d):
        sel = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not sel:
            raise ValidationError("generators are rank deficient (singular basis)")
        piv = sel[0]
        for r in sel[1:]:
            g, x, y = _xgcd(piv[col], r[col])
            q1, q2 = piv[col] // g, r[col] // g
            combo = [x * a + y * b for a, b in zip(piv, r)]
            other = [q1 * b - q2 * a for a, b in zip(piv, r)]
            piv = combo
            if any(other):
                rest.append(other)
        if piv[col] < 0:
            piv = [-a for a in piv]
        result.append(piv)
        work = rest
    for i in range(d):
        for k in range(i):
            q = result[k][i] // result[i][i]
            if q:
                result[k] = [a - q * b for a, b in zip(result[k], result[i])]
    return result


def _sum_and_meet(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]):
    """HNFs of A + B and of A n B for full-rank integer lattices of Z^k given
    by row bases: the row HNF of [[A, A], [B, 0]] holds the first in its
    top-left k x k block and the second in its bottom-right block."""
    k = len(A)
    H = _integer_hnf([list(a) * 2 for a in A] + [list(b) + [0] * k for b in B], 2 * k)
    return [row[:k] for row in H[:k]], [row[k:] for row in H[k:]]


def _closure(G: FiniteAbelianGroup, gens: Sequence[Element]) -> list[Element]:
    """The sorted members of the subgroup generated by gens, by enumeration:
    the oracle for Subgroup, which never lists its members."""
    elems = {G.zero}
    for g in gens:  # elems stays a subgroup: add the multiples of g to it
        frontier = elems
        while frontier:
            frontier = {G.add(x, g) for x in frontier} - elems
            elems |= frontier
    return sorted(elems)


def subgroup_from_generators(G: FiniteAbelianGroup, gens: Iterable[Element]) -> Subgroup:
    """Smallest subgroup of G containing gens."""
    return Subgroup(G, (G.check(g) for g in gens))


def _require_subgroups(G: FiniteAbelianGroup, *subgroups: Subgroup) -> None:
    if any(H.parent != G for H in subgroups):
        raise ValidationError("subgroup belongs to a different group")


def _sum_and_intersection(G: FiniteAbelianGroup, H1: Subgroup, H2: Subgroup):
    _require_subgroups(G, H1, H2)
    return tuple(
        Subgroup(G, [g for g in (tuple(v % d for v, d in zip(row, G.orders)) for row in h)
                     if any(g)], h)
        for h in _sum_and_meet(H1.hnf, H2.hnf))


def subgroup_intersection(G: FiniteAbelianGroup, H1: Subgroup, H2: Subgroup) -> Subgroup:
    return _sum_and_intersection(G, H1, H2)[1]


def subgroup_sum(G: FiniteAbelianGroup, H1: Subgroup, H2: Subgroup) -> Subgroup:
    return _sum_and_intersection(G, H1, H2)[0]


def quotient(G: FiniteAbelianGroup, H: Subgroup) -> dict[Element, Element]:
    """The coset table of G/H by enumeration: every element of G maps to the
    lexicographically smallest member of its coset, so the table's values
    are the coset representatives and appear in ascending order. This is
    the oracle for Subgroup.reduce."""
    _require_subgroups(G, H)
    members = _closure(G, H.generators)
    table: dict[Element, Element] = {}
    for x in G.elements():
        if x not in table:
            # first unvisited element in ascending order is the coset minimum
            for h in members:
                table[G.add(x, h)] = x
    return table


@dataclass(frozen=True)
class CrtIsomorphism:
    """The group isomorphism Z_m x Z_n <-> Z_{mn} for coprime m, n."""

    m: int
    n: int

    def to_cyclic(self, i: int, j: int) -> int:
        m, n = self.m, self.n
        if not (0 <= i < m and 0 <= j < n):
            raise ValidationError(f"({i},{j}) is not an element of Z_{m} x Z_{n}")
        return (i * n * pow(n, -1, m) + j * m * pow(m, -1, n)) % (m * n)

    def to_pair(self, x: int) -> tuple[int, int]:
        if not 0 <= x < self.m * self.n:
            raise ValidationError(f"{x} is not an element of Z_{self.m * self.n}")
        return x % self.m, x % self.n


def crt_iso(m: int, n: int) -> CrtIsomorphism:
    """Both directions of the isomorphism Z_m x Z_n ~ Z_{mn}; requires gcd(m,n)=1."""
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise ValidationError("moduli must be positive")
    if math.gcd(m, n) != 1:
        raise ValidationError(f"gcd({m},{n}) != 1, no cyclic isomorphism")
    return CrtIsomorphism(m, n)


def cyclic_subgroups(G: FiniteAbelianGroup) -> tuple[Subgroup, ...]:
    """All distinct nontrivial cyclic subgroups, each generated by its least
    generator, ordered by (order, sorted members); found by enumeration."""
    seen: dict[tuple[Element, ...], Element] = {}
    for g in G.elements():
        if g != G.zero:
            seen.setdefault(tuple(_closure(G, [g])), g)
    return tuple(subgroup_from_generators(G, [g])
                 for _, g in sorted(seen.items(), key=lambda kv: (len(kv[0]), kv[0])))
