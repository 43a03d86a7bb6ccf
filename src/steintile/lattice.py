"""Full-rank rational lattices in canonical form, plus box tilings.

A lattice is stored as the unique Hermite normal form of its scaled integer
version together with the smallest scale that clears all denominators, so two
bases of the same lattice always canonicalize identically. Sums and
intersections come from one integer HNF over a common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .abelian import (DEFAULT_ENUMERATION_CAP, _integer_hnf, _sum_and_meet, cyclic_subgroups,
                      make_group)
from .errors import CapExceededError, ValidationError
from .rationals import format_rational

_F0 = Fraction(0)
_F1 = Fraction(1)

# bound on count * d^2, the basis entries a many-relations family holds
FAMILY_ENTRY_CAP = 10**6


class RationalLattice:
    """Lattice spanned over Z by the rows of hnf/denominator."""

    __slots__ = ("dimension", "denominator", "hnf")

    def __init__(self, dimension: int, denominator: int, hnf: tuple[tuple[int, ...], ...]):
        self.dimension = dimension
        self.denominator = denominator
        self.hnf = hnf

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.denominator
        return tuple(tuple(Fraction(v, den) for v in row) for row in self.hnf)

    @property
    def volume(self) -> Fraction:
        det = 1
        for i in range(self.dimension):
            det *= self.hnf[i][i]
        return Fraction(det, self.denominator ** self.dimension)

    def contains(self, vector: Sequence) -> bool:
        w = [Fraction(v) * self.denominator for v in vector]
        if any(v.denominator != 1 for v in w):
            return False
        w = [int(v) for v in w]
        for i in range(self.dimension):
            if w[i] % self.hnf[i][i] != 0:
                return False
            c = w[i] // self.hnf[i][i]
            if c:
                w = [a - c * b for a, b in zip(w, self.hnf[i])]
        return True

    def __eq__(self, other):
        if not isinstance(other, RationalLattice):
            return NotImplemented
        return (self.dimension, self.denominator, self.hnf) == \
            (other.dimension, other.denominator, other.hnf)

    def __hash__(self):
        return hash((self.dimension, self.denominator, self.hnf))

    def __repr__(self):
        return f"RationalLattice(d={self.dimension}, volume={self.volume})"

    def to_json(self) -> dict:
        return {"d": self.dimension,
                "basis": [[format_rational(v) for v in row] for row in self.basis]}


def _from_rational_rows(rows, d: int) -> RationalLattice:
    rows = [[Fraction(v) for v in row] for row in rows]
    if any(len(r) != d for r in rows):
        raise ValidationError(f"expected vectors of length {d}")
    den = math.lcm(*(v.denominator for r in rows for v in r))
    int_rows = [[int(v * den) for v in r] for r in rows]
    return _canonical(d, den, _integer_hnf(int_rows, d))


def _canonical(d: int, den: int, H: list[list[int]]) -> RationalLattice:
    """The lattice spanned by the rows of H/den, for H in Hermite normal form."""
    g = math.gcd(den, *(v for row in H for v in row))
    return RationalLattice(d, den // g, tuple(tuple(v // g for v in row) for row in H))


def make_lattice(basis) -> RationalLattice:
    """Canonicalize a nonsingular square rational basis (rows are generators)."""
    rows = list(basis)
    d = len(rows)
    if d == 0:
        raise ValidationError("empty basis")
    return _from_rational_rows(rows, d)


def dual(L: RationalLattice) -> RationalLattice:
    """Inverse-transpose basis; an involution with vol(dual) = 1/vol. The
    inverse U of the triangular HNF comes by back substitution."""
    d, H = L.dimension, L.hnf
    U = [[_F0] * d for _ in range(d)]
    for j in range(d):
        for i in range(j, -1, -1):
            s = sum((H[i][k] * U[k][j] for k in range(i + 1, j + 1)), _F0)
            U[i][j] = ((_F1 if i == j else _F0) - s) / H[i][i]
    return _from_rational_rows([[L.denominator * U[j][i] for j in range(d)] for i in range(d)], d)


@dataclass(frozen=True)
class LatticePair:
    sum: RationalLattice
    intersection: RationalLattice


def sum_and_intersection(L1: RationalLattice, L2: RationalLattice) -> LatticePair:
    """Join and meet from one integer HNF of both bases scaled to a common
    denominator. Satisfies vol(sum) * vol(intersection) = vol(L1) * vol(L2)."""
    if L1.dimension != L2.dimension:
        raise ValidationError("lattices have different dimensions")
    den = math.lcm(L1.denominator, L2.denominator)
    pair = _sum_and_meet(*([[v * (den // L.denominator) for v in row] for row in L.hnf]
                           for L in (L1, L2)))
    return LatticePair(*(_canonical(L1.dimension, den, H) for H in pair))


@dataclass(frozen=True)
class Box:
    """Axis-aligned half-open box [0, a_1) x ... x [0, a_d)."""

    sides: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(Fraction(s) for s in self.sides))
        if not self.sides or any(s <= 0 for s in self.sides):
            raise ValidationError("box sides must be positive")

    @property
    def dimension(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> Fraction:
        return math.prod(self.sides, start=_F1)

    @property
    def diameter_squared(self) -> Fraction:
        return sum((s * s for s in self.sides), _F0)

    def to_json(self) -> dict:
        return {"sides": [format_rational(s) for s in self.sides]}


def box_tiling_multiplicity(L: RationalLattice, box: Box, x) -> int:
    """Number of lattice points lam with x - lam inside the box, counted
    exactly by bounding the HNF coefficients axis by axis. Everything is
    scaled to integers: x and the sides by den * s, the HNF by s, where s is
    the common denominator of x and the sides."""
    d = L.dimension
    if box.dimension != d:
        raise ValidationError("box dimension mismatch")
    x = [Fraction(v) for v in x]
    if len(x) != d:
        raise ValidationError("point dimension mismatch")
    s = math.lcm(*(v.denominator for v in x), *(a.denominator for a in box.sides))
    den = L.denominator * s
    X = [v.numerator * (den // v.denominator) for v in x]
    A = [a.numerator * (den // a.denominator) for a in box.sides]
    H = [[v * s for v in row] for row in L.hnf]

    count = 0
    # lam_i in (x_i - a_i, x_i]; row i is the first contributing coordinate i
    stack = [(0, [0] * d)]
    while stack:
        i, partial = stack.pop()
        hii = H[i][i]
        c_hi = (X[i] - partial[i]) // hii
        c_lo = (X[i] - A[i] - partial[i]) // hii + 1
        if i == d - 1:
            count += max(0, c_hi - c_lo + 1)
            continue
        row = H[i]
        for c in range(c_lo, c_hi + 1):
            nxt = partial.copy()
            for j in range(i, d):
                nxt[j] += c * row[j]
            stack.append((i + 1, nxt))
    return count


@dataclass(frozen=True)
class ScaledFamily:
    """The family shrunk by count**(1/d), reported through exact squares.

    tile_diameter_squared is a Fraction when count**(2/d) is rational (always
    for d = 2), otherwise None with the symbolic pair (d*p^2, count) standing
    for (d*p^2) / count**(2/d). Scaled bases are only representable when
    count**(1/d) is an integer.
    """

    count: int
    scaled_volume: Fraction
    tile_diameter_squared: Fraction | None
    tile_diameter_squared_symbolic: tuple[int, int]
    lattices: tuple[RationalLattice, ...] | None


@dataclass(frozen=True)
class ManyRelationsFamily:
    p: int
    d: int
    count: int
    lattices: tuple[RationalLattice, ...]
    directions: tuple[tuple[int, ...], ...]
    common_tile: Box
    scaled: ScaledFamily


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def _exact_root(value: int, k: int) -> int | None:
    r = round(value ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 1 and cand ** k == value:
            return cand
    return None


def many_relations_count(p: int, d: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Validate (p, d) for many_relations_family and return its lattice
    count (p^d - 1)/(p - 1), the number of lines of (F_p)^d."""
    p, d = int(p), int(d)
    if p < 2:
        raise ValidationError(f"{p} is not prime")
    if d < 2:
        raise ValidationError("need dimension d >= 2")
    # checked before the trial division, whose cost grows like sqrt(p)
    if d > cap.bit_length():
        raise CapExceededError(f"dimension d = {d} puts p^d above enumeration cap {cap}")
    if p ** d > cap:
        raise CapExceededError(f"p^d = {p ** d} exceeds enumeration cap {cap}")
    count = (p ** d - 1) // (p - 1)
    if count * d * d > FAMILY_ENTRY_CAP:
        raise CapExceededError(
            f"{count} lattices of {d}x{d} entries exceed entry cap {FAMILY_ENTRY_CAP}")
    if not _is_prime(p):
        raise ValidationError(f"{p} is not prime")
    return count


def _projective_points(p: int, d: int):
    """The lines of (F_p)^d, each by its point whose first nonzero coordinate
    is 1, in lexicographic order."""
    for i in range(d - 1, -1, -1):
        lead = (0,) * i + (1,)
        for tail in product(range(p), repeat=d - 1 - i):
            yield lead + tail


def projective_points_by_enumeration(p: int, d: int) -> list[tuple[int, ...]]:
    """Test oracle for _projective_points: the generator that cyclic_subgroups
    keeps for each line, found by closing a subgroup around every element."""
    return [H.generators[0] for H in cyclic_subgroups(make_group([p] * d))]


def _direction_lattice(p: int, v: Sequence[int]) -> RationalLattice:
    """Canonical form of (p*Z)^d + Z*v for v with leading coordinate 1 and
    entries in [0, p): v replaces the row p*e_i at its leading position i,
    which is already the Hermite normal form."""
    d = len(v)
    i = next(k for k, a in enumerate(v) if a)
    rows = tuple(tuple(v) if j == i else tuple(p if k == j else 0 for k in range(d))
                 for j in range(d))
    return RationalLattice(d, 1, rows)


def many_relations_family(p: int, d: int,
                          cap: int = DEFAULT_ENUMERATION_CAP) -> ManyRelationsFamily:
    """One lattice per line of (F_p)^d with direction v: the preimage
    (p*Z)^d + Z*v. All of them contain (p*Z)^d, share the box [0,p)^d as a
    common tile, and have volume p^(d-1); there are (p^d - 1)/(p - 1) of them.
    """
    count = many_relations_count(p, d, cap)
    p, d = int(p), int(d)
    directions = tuple(_projective_points(p, d))
    lattices = tuple(_direction_lattice(p, v) for v in directions)
    if len(lattices) != count:
        raise RuntimeError(f"unreachable: {len(lattices)} lines in (F_{p})^{d}")

    dd_p2 = d * p * p
    root2 = _exact_root(count * count, d)
    diam2 = Fraction(dd_p2, root2) if root2 is not None else None
    root1 = _exact_root(count, d)
    scaled_lattices = None
    if root1 is not None:
        scaled_lattices = tuple(
            _from_rational_rows([[Fraction(v, L.denominator * root1) for v in row]
                                 for row in L.hnf], d)
            for L in lattices)
    scaled = ScaledFamily(
        count=count,
        scaled_volume=Fraction(p ** (d - 1), count),
        tile_diameter_squared=diam2,
        tile_diameter_squared_symbolic=(dd_p2, count),
        lattices=scaled_lattices,
    )
    return ManyRelationsFamily(
        p=p, d=d, count=count,
        lattices=lattices,
        directions=directions,
        common_tile=Box(tuple(Fraction(p) for _ in range(d))),
        scaled=scaled,
    )


@dataclass(frozen=True)
class BoxConvolutionStats:
    volume: Fraction
    diameter_squared: Fraction


def box_convolution_stats(boxes: Sequence[Box]) -> BoxConvolutionStats:
    """Support of the convolution of the box indicators is the box whose sides
    are the per-axis sums; returns its exact volume and squared diameter."""
    boxes = list(boxes)
    if not boxes:
        raise ValidationError("need at least one box")
    d = boxes[0].dimension
    if any(b.dimension != d for b in boxes):
        raise ValidationError("boxes have mixed dimensions")
    sides = tuple(sum((b.sides[i] for b in boxes), _F0) for i in range(d))
    total = Box(sides)
    return BoxConvolutionStats(volume=total.volume, diameter_squared=total.diameter_squared)
