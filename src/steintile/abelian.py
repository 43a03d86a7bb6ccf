"""Explicit engine for finite abelian groups.

Groups are direct products of cyclic groups, modeled by full element
enumeration (desk scale only, guarded by a configurable cap). Elements are
integer tuples, one coordinate per cyclic factor. A quotient G/H is a coset
table: a dict sending every element of G to the lexicographically smallest
member of its coset, so every operation is deterministic across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

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
    """A subgroup held as its full sorted element list plus generating set."""

    __slots__ = ("parent", "elements", "generators", "_members")

    def __init__(self, parent: FiniteAbelianGroup, elements: Iterable[Element], generators: Iterable[Element]):
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


def make_group(orders: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP) -> FiniteAbelianGroup:
    """Construct Z_{d1} x ... x Z_{dk}; the product of orders must stay under cap."""
    return FiniteAbelianGroup(orders, cap=cap)


def _closure(G: FiniteAbelianGroup, gens: Sequence[Element]) -> set[Element]:
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


def subgroup_from_generators(G: FiniteAbelianGroup, gens: Iterable[Element]) -> Subgroup:
    """Smallest subgroup of G containing gens, fully enumerated."""
    gens = tuple(G.check(g) for g in gens)
    return Subgroup(G, _closure(G, gens), gens)


def _require_subgroup_of(G: FiniteAbelianGroup, H: Subgroup, name: str = "subgroup") -> None:
    if H.parent != G:
        raise ValidationError(f"{name} belongs to a different parent group")


def subgroup_intersection(G: FiniteAbelianGroup, H1: Subgroup, H2: Subgroup) -> Subgroup:
    _require_subgroup_of(G, H1, "H1")
    _require_subgroup_of(G, H2, "H2")
    common = sorted(H1._members & H2._members)
    return Subgroup(G, common, tuple(common))


def subgroup_sum(G: FiniteAbelianGroup, H1: Subgroup, H2: Subgroup) -> Subgroup:
    _require_subgroup_of(G, H1, "H1")
    _require_subgroup_of(G, H2, "H2")
    return subgroup_from_generators(G, H1.generators + H2.generators)


@dataclass(frozen=True)
class SubgroupCalculus:
    intersection: Subgroup
    sum: Subgroup
    index1: int
    index2: int


def subgroup_calculus(G: FiniteAbelianGroup, H1: Subgroup, H2: Subgroup) -> SubgroupCalculus:
    """Intersection, join and indices of two subgroups of the same group."""
    inter = subgroup_intersection(G, H1, H2)
    total = subgroup_sum(G, H1, H2)
    return SubgroupCalculus(
        intersection=inter,
        sum=total,
        index1=G.order // H1.order,
        index2=G.order // H2.order,
    )


def quotient(G: FiniteAbelianGroup, H: Subgroup) -> dict[Element, Element]:
    """The coset table of G/H: every element of G maps to the lexicographically
    smallest member of its coset, so the table's values are the coset
    representatives and appear in ascending order."""
    _require_subgroup_of(G, H)
    table: dict[Element, Element] = {}
    for x in G.elements():
        if x not in table:
            # first unvisited element in ascending order is the coset minimum
            for h in H.elements:
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
