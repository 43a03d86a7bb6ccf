"""Explicit engine for finite abelian groups.

Groups are direct products of cyclic groups, modeled by full element
enumeration (desk scale only, guarded by a configurable cap). Elements are
integer tuples, one coordinate per cyclic factor. Quotients are tables of
lexicographically smallest coset representatives, so every operation is
deterministic across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence, Union

from .errors import CapExceededError, ValidationError

Element = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10**6


class FiniteAbelianGroup:
    """Z_{d1} x ... x Z_{dk} with componentwise addition modulo d_i."""

    __slots__ = ("orders", "order", "_elements")

    def __init__(self, orders: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP):
        try:
            orders = tuple(int(d) for d in orders)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"cyclic factor orders must be integers: {exc}") from exc
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
        try:
            x = tuple(int(c) for c in x)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"element coordinates must be integers: {exc}") from exc
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
    """A subgroup held as its full sorted element list plus generating set."""

    __slots__ = ("parent", "elements", "generators", "_members")

    def __init__(self, parent: "GroupLike", elements: Iterable[Element], generators: Iterable[Element]):
        self.parent = parent
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators)
        self._members = frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: Element) -> bool:
        return x in self._members

    def to_json(self) -> list:
        return [list(e) for e in self.elements]

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.elements == other.elements

    def __hash__(self):
        return hash((self.parent, self.elements))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"


class QuotientGroup:
    """parent/kernel, modeled on lexicographically smallest coset representatives.

    Representatives form a group under (x, y) -> reduce(x + y); this object
    exposes the same elements()/add/neg/zero surface as FiniteAbelianGroup so
    that subgroup and quotient machinery works on either.
    """

    __slots__ = ("parent", "kernel", "representatives", "_table")

    def __init__(self, parent: "GroupLike", kernel: Subgroup,
                 representatives: tuple[Element, ...], table: dict):
        self.parent = parent
        self.kernel = kernel
        self.representatives = representatives
        self._table = table

    @property
    def order(self) -> int:
        return len(self.representatives)

    @property
    def zero(self) -> Element:
        return self._table[self.parent.zero]

    def elements(self) -> tuple[Element, ...]:
        return self.representatives

    def reduce(self, x: Element) -> Element:
        """Representative of the coset of x (x is any parent element)."""
        try:
            return self._table[x]
        except KeyError:
            raise ValidationError(f"{x} is not an element of the quotient's parent group") from None

    def check(self, x) -> Element:
        x = tuple(int(c) for c in x)
        if self._table.get(x) != x:
            raise ValidationError(f"{x} is not a coset representative of {self!r}")
        return x

    def add(self, x: Element, y: Element) -> Element:
        return self._table[self.parent.add(x, y)]

    def neg(self, x: Element) -> Element:
        return self._table[self.parent.neg(x)]

    def __eq__(self, other):
        if not isinstance(other, QuotientGroup):
            return NotImplemented
        return self.parent == other.parent and self.kernel.elements == other.kernel.elements

    def __hash__(self):
        return hash((self.parent, self.kernel.elements))

    def __repr__(self):
        return f"QuotientGroup({self.parent!r} / kernel of order {self.kernel.order})"


GroupLike = Union[FiniteAbelianGroup, QuotientGroup]


def make_group(orders: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP) -> FiniteAbelianGroup:
    """Construct Z_{d1} x ... x Z_{dk}; the product of orders must stay under cap."""
    return FiniteAbelianGroup(orders, cap=cap)


def _closure(G: GroupLike, gens: Sequence[Element]) -> set[Element]:
    elems = {G.zero}
    frontier = [G.zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.add(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def subgroup_from_generators(G: GroupLike, gens: Iterable[Element]) -> Subgroup:
    """Smallest subgroup of G containing gens, fully enumerated."""
    gens = tuple(G.check(g) for g in gens)
    return Subgroup(G, _closure(G, gens), gens)


def _require_subgroup_of(G: GroupLike, H: Subgroup, name: str = "subgroup") -> None:
    if H.parent != G:
        raise ValidationError(f"{name} belongs to a different parent group")


def subgroup_intersection(G: GroupLike, H1: Subgroup, H2: Subgroup) -> Subgroup:
    _require_subgroup_of(G, H1, "H1")
    _require_subgroup_of(G, H2, "H2")
    common = sorted(H1._members & H2._members)
    return Subgroup(G, common, tuple(common))


def subgroup_sum(G: GroupLike, H1: Subgroup, H2: Subgroup) -> Subgroup:
    _require_subgroup_of(G, H1, "H1")
    _require_subgroup_of(G, H2, "H2")
    return subgroup_from_generators(G, H1.elements + H2.elements)


@dataclass(frozen=True)
class SubgroupCalculus:
    intersection: Subgroup
    sum: Subgroup
    index1: int
    index2: int


def subgroup_calculus(G: GroupLike, H1: Subgroup, H2: Subgroup) -> SubgroupCalculus:
    """Intersection, join and indices of two subgroups of the same group."""
    inter = subgroup_intersection(G, H1, H2)
    total = subgroup_sum(G, H1, H2)
    return SubgroupCalculus(
        intersection=inter,
        sum=total,
        index1=G.order // H1.order,
        index2=G.order // H2.order,
    )


def quotient(G: GroupLike, H: Subgroup) -> QuotientGroup:
    """G/H with each coset represented by its lexicographically smallest member."""
    _require_subgroup_of(G, H)
    table: dict[Element, Element] = {}
    reps = []
    for x in sorted(G.elements()):
        if x in table:
            continue
        # first unvisited element in ascending order is the coset minimum
        reps.append(x)
        for h in H.elements:
            table[G.add(x, h)] = x
    return QuotientGroup(G, H, tuple(reps), table)


def quotient_image(Q: QuotientGroup, H: Subgroup) -> Subgroup:
    """Image of a subgroup of Q.parent inside the quotient Q."""
    _require_subgroup_of(Q.parent, H)
    gens = [Q.reduce(g) for g in (H.generators or H.elements)]
    return subgroup_from_generators(Q, gens)


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


def cyclic_subgroups(G: GroupLike) -> tuple[Subgroup, ...]:
    """All distinct nontrivial cyclic subgroups, deduplicated by element set."""
    seen: dict[tuple[Element, ...], Subgroup] = {}
    for g in G.elements():
        if g == G.zero:
            continue
        H = subgroup_from_generators(G, [g])
        key = H.elements
        if key not in seen:
            seen[key] = H
    return tuple(sorted(seen.values(), key=lambda H: (H.order, H.elements)))
