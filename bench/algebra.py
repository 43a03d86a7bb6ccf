"""Exact helpers shared by the input generator and the answer checker.

Standard library only. Nothing here imports steintile, so every fact the
checker confirms is confirmed by a route independent of the program.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------- groups

def add(x, y, orders):
    return tuple((a + b) % d for a, b, d in zip(x, y, orders))


def elements(orders):
    """All elements of Z_{d1} x ... x Z_{dk} in lexicographic order."""
    return product(*(range(d) for d in orders))


def subgroup(orders, gens):
    """The set of elements of the subgroup generated by gens."""
    zero = (0,) * len(orders)
    gens = [tuple(g) for g in gens]
    members = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = add(x, g, orders)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return members


def coset_labels(orders, members):
    """(label, count): label maps every element to the number of its coset of
    the subgroup `members`, cosets numbered by their smallest element."""
    label = {}
    hs = list(members)
    count = 0
    for x in elements(orders):
        if x in label:
            continue
        for h in hs:
            label[add(x, h, orders)] = count
        count += 1
    return label, count


def reduced_orders(H1, H2):
    """(m, n, |H1 n H2|): orders of the images of H1 and H2 in G/(H1 n H2)."""
    k = len(H1 & H2)
    return len(H1) // k, len(H2) // k, k


def min_support_formula(group_order, H1, H2):
    """[G : H1+H2] * (m + n - gcd(m, n)) with m, n the reduced orders."""
    m, n, k = reduced_orders(H1, H2)
    index = group_order * k // (len(H1) * len(H2))
    return index * (m + n - math.gcd(m, n))


def copula_min_support(m, n):
    """S(m, n) = m + n - gcd(m, n); this is m*n whenever min(m, n) = 1."""
    return m + n - math.gcd(m, n)


# ---------------------------------------------------------------- rationals

def fmt(value):
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else \
        f"{value.numerator}/{value.denominator}"


def det(rows):
    """Exact determinant of a square rational matrix."""
    a = [[Fraction(v) for v in row] for row in rows]
    d = len(a)
    sign = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, d):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = Fraction(sign)
    for i in range(d):
        out *= a[i][i]
    return out


def in_lattice(vector, rows):
    """True when vector is an integer combination of the (independent) rows."""
    d = len(rows)
    # solve c * B = v, i.e. B^T c^T = v^T, by elimination on [B^T | v]
    aug = [[Fraction(rows[j][i]) for j in range(d)] + [Fraction(vector[i])]
           for i in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return all(aug[i][d].denominator == 1 for i in range(d))


# ---------------------------------------------------------------- 1-D functions

def pieces_from_json(doc):
    """[(lo, hi, coeffs)] from the program's piecewise-polynomial JSON."""
    return [(Fraction(s["from"]), Fraction(s["to"]), [Fraction(c) for c in s["coeffs"]])
            for s in doc]


def piece_value(pieces, x):
    for lo, hi, coeffs in pieces:
        if lo <= x < hi:
            r = Fraction(0)
            for c in reversed(coeffs):
                r = r * x + c
            return r
    return Fraction(0)


def mass(pieces):
    total = Fraction(0)
    for lo, hi, coeffs in pieces:
        for k, c in enumerate(coeffs):
            total += c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return total


def box_spline_value(lams, x):
    """(1_[0,l1) * ... * 1_[0,lk))(x) by the truncated-power formula
    (1/(k-1)!) sum over subsets S of (-1)^|S| (x - lambda_S)_+^(k-1)."""
    k = len(lams)
    total = Fraction(0)
    for mask in range(1 << k):
        shift = sum((lams[i] for i in range(k) if mask >> i & 1), Fraction(0))
        t = x - shift
        if k == 1:
            term = Fraction(1) if t >= 0 else Fraction(0)
        else:
            term = t ** (k - 1) if t > 0 else Fraction(0)
        total += -term if bin(mask).count("1") % 2 else term
    return total / math.factorial(k - 1)


def step_periodization(steps, lam):
    """Cells [(a, b, value)] covering [0, lam) of the lam*Z-periodization of
    the step function given as [(lo, hi, value)] half-open steps."""
    cuts = {Fraction(0), lam}
    for lo, hi, _ in steps:
        for e in (lo, hi):
            r = e - math.floor(e / lam) * lam
            cuts.add(r)
    cuts = sorted(c for c in cuts if 0 <= c <= lam)
    cells = []
    for a, b in zip(cuts, cuts[1:]):
        x = (a + b) / 2
        total = Fraction(0)
        for lo, hi, v in steps:
            # number of n with lo <= x + n*lam < hi
            total += v * (math.ceil((hi - x) / lam) - math.ceil((lo - x) / lam))
        cells.append((a, b, total))
    return cells
