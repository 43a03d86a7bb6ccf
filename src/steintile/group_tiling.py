"""Tiling functions on finite abelian groups.

A function f on G tiles with a subgroup H when every H-periodization sum is
the same constant; normalized tiling means that constant equals |H|. The
minimal common-tile support for a pair of subgroups is computed two ways: a
pipeline that reduces modulo the intersection and solves the margin problem
on the direct-sum part, and an independent brute-force oracle that enumerates
support sets and decides each by exact rational LP feasibility. Cosets are
named by their least members, which Subgroup.reduce computes from the
subgroup's Hermite normal form; every function lives on G itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Union

from . import copula as copula_mod
from .abelian import (
    Element,
    FiniteAbelianGroup,
    Subgroup,
    _closure,
    _require_subgroups,
    crt_iso,
    make_group,
    quotient,
    subgroup_from_generators,
    subgroup_intersection,
    subgroup_sum,
)
from .errors import CapExceededError, ValidationError
from .exactlp import feasible_nonnegative
from .pp1d import RationalPiecewisePoly, from_segments
from .rationals import format_rational, parse_rational

DEFAULT_ORACLE_CAP = 36


class GroupFunction:
    """Nonnegative rational-valued function on a group; zeros are not stored."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteAbelianGroup, values: Mapping):
        vals = {}
        for x, v in values.items():
            x = group.check(x)
            v = Fraction(v)
            if v < 0:
                raise ValidationError(f"negative value {v} at {x}")
            if v != 0:
                vals[x] = v
        self.group = group
        self.values = dict(sorted(vals.items()))

    @property
    def support(self) -> tuple[Element, ...]:
        return tuple(self.values)

    @property
    def support_size(self) -> int:
        return len(self.values)

    def mass(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))

    def __call__(self, x: Element) -> Fraction:
        return self.values.get(x, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, GroupFunction):
            return NotImplemented
        return self.group == other.group and self.values == other.values

    def __repr__(self):
        return f"GroupFunction(on {self.group!r}, support={self.support_size})"

    def to_json(self) -> dict:
        return {
            "group": list(self.group.orders),
            "values": [{"at": list(x), "v": format_rational(v)} for x, v in self.values.items()],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GroupFunction":
        try:
            group = make_group(doc["group"])
            values = {group.check(item["at"]): parse_rational(item["v"]) for item in doc["values"]}
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed group-function document: {exc}") from exc
        return cls(group, values)


@dataclass(frozen=True)
class TilingCertificate:
    """Witness that the H-periodization of f is the constant `level`."""

    subgroup: Subgroup
    level: Fraction
    normalized: bool


@dataclass(frozen=True)
class TilingFailure:
    subgroup: Subgroup
    witness_x: Element
    sum_x: Fraction
    witness_y: Element
    sum_y: Fraction


TilingResult = Union[TilingCertificate, TilingFailure]


def _coset_sums(f: GroupFunction, H: Subgroup) -> dict[Element, Fraction]:
    """The f-sum over each coset of H that meets f's support, by coset minimum."""
    sums: dict[Element, Fraction] = {}
    for x, v in f.values.items():
        r = H.reduce(x)
        sums[r] = sums.get(r, 0) + v
    return sums


def tiling_level(f: GroupFunction, H: Subgroup) -> TilingResult:
    """Check whether sum_{g in H} f(x-g) is constant in x.

    The periodized sum at x equals the plain f-sum over the coset x + H, so
    the check sums f's support per coset, keyed by the coset minimum
    H.reduce(x); a coset without support sums to 0. On failure the two
    witnesses are the smallest coset minima with differing sums.
    """
    G = f.group
    _require_subgroups(G, H)
    sums = _coset_sums(f, H)
    x0 = G.zero  # the least representative
    s0 = sums.get(x0, Fraction(0))
    differ = [x for x, s in sums.items() if s != s0]
    if s0 and len(sums) < H.index:
        # the first coset minimum without a bucket comes within len(sums) + 1 steps
        differ.append(next(x for x in H.coset_minima() if x not in sums))
    if differ:
        x = min(differ)
        return TilingFailure(H, x0, s0, x, sums.get(x, Fraction(0)))
    return TilingCertificate(H, s0, s0 == H.order)


def _require_normalized(f: GroupFunction, H: Subgroup, what: str) -> None:
    res = tiling_level(f, H)
    if isinstance(res, TilingFailure):
        raise ValidationError(
            f"{what}: periodization is not constant "
            f"({res.witness_x} -> {format_rational(res.sum_x)}, "
            f"{res.witness_y} -> {format_rational(res.sum_y)})")
    if not res.normalized:
        raise ValidationError(
            f"{what}: tiling level {format_rational(res.level)} != |H| = {H.order}")


def project_tile(f: GroupFunction, G1: Subgroup, G2: Subgroup) -> GroupFunction:
    """Collapse f onto the least member of each (G1 n G2)-coset, which keeps
    the coset's sum there.

    Every coset of G1 or G2 is a union of (G1 n G2)-cosets, so the result
    tiles G1 and G2 at the same normalized levels, and its support is never
    larger than f's.
    """
    G = f.group
    _require_normalized(f, G1, "first subgroup")
    _require_normalized(f, G2, "second subgroup")
    return GroupFunction(G, _coset_sums(f, subgroup_intersection(G, G1, G2)))


def multiple_construction(G1: Subgroup, G2: Subgroup) -> GroupFunction:
    """Common tile of support |G2| when G = G1 (+) G2 and |G1| divides |G2|.

    Pairs each element of G2 with the elements of G1 cycled |G2|/|G1| times
    and puts mass |G1| on every sum; this tiles with G1 at level |G1| and
    with G2 at level |G2|.
    """
    G = G1.parent
    _require_subgroups(G, G2)
    if subgroup_intersection(G, G1, G2).order != 1 or G1.order * G2.order != G.order:
        raise ValidationError("group is not the internal direct sum of the subgroups")
    if G2.order % G1.order != 0:
        raise ValidationError(f"|G1| = {G1.order} does not divide |G2| = {G2.order}")
    g1s, g2s = _closure(G, G1.generators), _closure(G, G2.generators)
    return GroupFunction(G, {G.add(g1s[j % len(g1s)], b): Fraction(len(g1s))
                             for j, b in enumerate(g2s)})


@dataclass(frozen=True)
class MinSupportResult:
    S: int
    witness: GroupFunction


def _transversal(H: Subgroup, K: Subgroup) -> list[Element]:
    """The sorted K-coset minima of H, for K inside H: the K-reductions of
    sum_i c_i a_i over 0 <= c_i < k_ii / a_ii, with a, k the two HNFs."""
    a, k = H.hnf, K.hnf
    return sorted(K.reduce([sum(c * row[j] for c, row in zip(cs, a)) for j in range(len(a))])
                  for cs in product(*(range(k[i][i] // a[i][i]) for i in range(len(a)))))


def min_support(G: FiniteAbelianGroup, G1: Subgroup, G2: Subgroup,
                copula_cap: int = copula_mod.DEFAULT_SEARCH_CAP) -> MinSupportResult:
    """Smallest support of a nonnegative f with f*1_{G1} = |G1|, f*1_{G2} = |G2|.

    Pipeline: reduce modulo K = G1 n G2 (this preserves the answer), split
    over the cosets of G1 + G2 (the tiling equations never couple different
    cosets), and solve the margin problem with m = [G1 : K], n = [G2 : K]
    inside each coset. Everything is built in G from the Hermite normal
    forms: the witness puts |K| times the margin entry (i, j) on the least
    member of r + t1_i + t2_j + K, where r runs over the coset minima of
    G1 + G2 and t1, t2 are the sorted K-coset minima of G1, G2.
    The witness is re-verified against both subgroups.
    """
    _require_subgroups(G, G1, G2)
    K = subgroup_intersection(G, G1, G2)
    m, n = G1.order // K.order, G2.order // K.order
    if max(m, n) > copula_cap:
        raise CapExceededError(
            f"reduced subgroup orders ({m},{n}) exceed the margin-search cap {copula_cap}")
    t1, t2 = (_transversal(H, K) for H in (G1, G2))
    reps = list(subgroup_sum(G, G1, G2).coset_minima())
    plan = copula_mod.min_support_exact(m, n, cap=copula_cap)
    S = len(reps) * plan.S

    values = {}
    for r in reps:
        for i, j in plan.pattern.sorted_edges:
            x = K.reduce([a + b + c for a, b, c in zip(r, t1[i], t2[j])])
            if x in values:
                raise RuntimeError(f"unreachable: two margin entries land on {x}")
            values[x] = K.order * plan.witness.entries[i][j]
    f = GroupFunction(G, values)

    if f.support_size != S:
        raise RuntimeError(f"unreachable: witness support {f.support_size} != S = {S}")
    if S < G.order // min(G1.order, G2.order):
        raise RuntimeError(f"unreachable: S = {S} is below an index of the subgroups")
    _require_normalized(f, G1, "solver witness vs first subgroup")
    _require_normalized(f, G2, "solver witness vs second subgroup")
    return MinSupportResult(S, f)


def min_support_bruteforce(G: FiniteAbelianGroup, G1: Subgroup, G2: Subgroup,
                           cap: int = DEFAULT_ORACLE_CAP) -> MinSupportResult:
    """Independent oracle: enumerate support sets of increasing size in
    lexicographic order and decide each candidate by exact rational LP
    feasibility of the periodization equations.

    The periodized sum at x equals the f-sum over the coset x + H, so the
    equations say: f sums to |G1| on every G1-coset and to |G2| on every
    G2-coset. Sizes that provably admit no candidate (a coset would get fewer
    points than its margin forces, given that no value may exceed
    min(|G1|, |G2|)) are skipped wholesale.
    """
    _require_subgroups(G, G1, G2)
    N = G.order
    if N > cap:
        raise CapExceededError(f"group order {N} exceeds brute-force cap {cap}")
    elems = G.elements()
    q1, q2 = quotient(G, G1), quotient(G, G2)
    rep_index1 = {rep: i for i, rep in enumerate(sorted(set(q1.values())))}
    rep_index2 = {rep: i for i, rep in enumerate(sorted(set(q2.values())))}
    id1 = [rep_index1[q1[x]] for x in elems]
    id2 = [rep_index2[q2[x]] for x in elems]
    k1, k2 = len(rep_index1), len(rep_index2)
    vcap = min(G1.order, G2.order)
    need1 = -(-G1.order // vcap)
    need2 = -(-G2.order // vcap)
    size_floor = max(k1 * need1, k2 * need2)

    level1, level2 = Fraction(G1.order), Fraction(G2.order)
    for s in range(1, N + 1):
        if s < size_floor:
            continue
        for combo in combinations(range(N), s):
            c1 = [0] * k1
            c2 = [0] * k2
            for t in combo:
                c1[id1[t]] += 1
                c2[id2[t]] += 1
            if min(c1) < need1 or min(c2) < need2:
                continue
            rows = []
            rhs = []
            for c in range(k1):
                rows.append([Fraction(1 if id1[t] == c else 0) for t in combo])
                rhs.append(level1)
            for c in range(k2):
                rows.append([Fraction(1 if id2[t] == c else 0) for t in combo])
                rhs.append(level2)
            sol = feasible_nonnegative(rows, rhs)
            if sol is not None:
                witness = GroupFunction(G, {elems[t]: v for t, v in zip(combo, sol)})
                if s < max(k1, k2):
                    raise RuntimeError(f"unreachable: support {s} is below an index")
                return MinSupportResult(s, witness)
    raise RuntimeError("unreachable: the constant function 1 is always feasible")


def common_fundamental_domain(G: FiniteAbelianGroup, G1: Subgroup, G2: Subgroup) -> tuple[Element, ...]:
    """A set meeting every G1-coset and every G2-coset exactly once.

    Requires equal indices; extracted from the minimal-support witness, whose
    support at equal indices has exactly one point per coset on both sides.
    """
    _require_subgroups(G, G1, G2)
    index1, index2 = G.order // G1.order, G.order // G2.order
    if index1 != index2:
        raise ValidationError(f"indices differ: {index1} != {index2}")
    result = min_support(G, G1, G2)
    domain = result.witness.support
    if len(domain) != index1:
        raise RuntimeError(f"unreachable: domain of size {len(domain)} at index {index1}")
    for H in (G1, G2):
        if len({H.reduce(x) for x in domain}) != len(domain):
            raise RuntimeError("unreachable: domain meets a coset twice")
    return domain


def matrix_as_cyclic_tile(A: copula_mod.CopulaMatrix) -> GroupFunction:
    """Transfer an m x n margin matrix to a function on Z_{mn} (coprime m, n)
    through the coordinatewise congruence isomorphism; the result tiles the
    subgroup generated by m at level n and the one generated by n at level m."""
    iso = crt_iso(A.m, A.n)
    G = make_group([A.m * A.n])
    values = {}
    for i in range(A.m):
        for j in range(A.n):
            v = A.entries[i][j]
            if v:
                values[(iso.to_cyclic(i, j),)] = v
    return GroupFunction(G, values)


def discrete_to_continuous(f, m: int, n: int) -> RationalPiecewisePoly:
    """Spread a tile of the cyclic group of order m*n into unit slabs on the
    line: F = sum_j f(j) * 1_{[j, j+1)}.

    Requires gcd(m, n) = 1 and that f tiles the subgroup generated by m at
    level n and the one generated by n at level m; F then tiles m*Z at level n
    and n*Z at level m, with support measure equal to f's support size.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise ValidationError("need m, n >= 1")
    if math.gcd(m, n) != 1:
        raise ValidationError(f"gcd({m},{n}) != 1")
    if not isinstance(f, GroupFunction) or f.group.orders != (m * n,):
        raise ValidationError(f"expected a function on the cyclic group of order {m * n}")
    G = f.group
    for gen, lvl in (((m % (m * n),), n), ((n % (m * n),), m)):
        H = subgroup_from_generators(G, [gen])
        res = tiling_level(f, H)
        if not (isinstance(res, TilingCertificate) and res.level == lvl):
            raise ValidationError(
                f"input does not tile the subgroup generated by {gen[0]} at level {lvl}")
    return from_segments((j, j + 1, (f((j,)),)) for j in range(m * n) if f((j,)) != 0)
