"""Exact algebra of compactly supported 1-D rational piecewise polynomials.

Pieces live on half-open intervals [x_i, x_{i+1}), so tiling identities hold
at every point rather than almost everywhere, and every evaluation, integral,
convolution and periodization is a Fraction computation.

Polynomials are coefficient tuples, low degree first, with no trailing zeros
(the empty tuple is the zero polynomial).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import CapExceededError, ValidationError
from .rationals import format_rational, parse_rational

Poly = tuple[Fraction, ...]

_F0 = Fraction(0)
_F1 = Fraction(1)

CONV_PERIOD_CAP = 8  # most periods convolution_tile takes; up to 2^k breakpoints
SAMPLE_ROW_CAP = 10**5  # most rows sample_csv writes


def _ptrim(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pscale(c: Fraction, a: Poly) -> Poly:
    if c == 0:
        return ()
    return tuple(c * v for v in a)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _ptrim(out)


def _peval(a: Poly, x: Fraction) -> Fraction:
    r = _F0
    for c in reversed(a):
        r = r * x + c
    return r


def _pantider(a: Poly) -> Poly:
    return _ptrim([_F0] + [c / (i + 1) for i, c in enumerate(a)])


def _pcompose(a: Poly, inner: Poly) -> Poly:
    """a(inner(x)) by Horner over polynomial arithmetic."""
    r: Poly = ()
    for c in reversed(a):
        r = _padd(_pmul(r, inner), (c,) if c else ())
    return r


def _pshift(a: Poly, t: Fraction) -> Poly:
    """a(x - t)."""
    if t == 0:
        return a
    return _pcompose(a, (-t, _F1))


class RationalPiecewisePoly:
    """Piecewise polynomial with rational breakpoints, zero outside the hull.

    Canonical form: adjacent identical pieces are merged and zero pieces are
    stripped from both ends; the zero function has no breakpoints at all.
    """

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Sequence, pieces: Sequence):
        breaks = [Fraction(b) for b in breakpoints]
        polys = [_ptrim(p) for p in pieces]
        if len(breaks) != len(polys) + 1 and not (len(breaks) == 0 and len(polys) == 0):
            raise ValidationError("need one more breakpoint than pieces")
        if any(breaks[i] >= breaks[i + 1] for i in range(len(breaks) - 1)):
            raise ValidationError("breakpoints must be strictly increasing")
        # merge equal neighbours
        merged_b: list[Fraction] = []
        merged_p: list[Poly] = []
        for lo, p in zip(breaks[:-1], polys):
            if merged_p and merged_p[-1] == p:
                continue
            merged_b.append(lo)
            merged_p.append(p)
        if breaks:
            merged_b.append(breaks[-1])
        # strip zero ends
        while merged_p and merged_p[0] == ():
            merged_p.pop(0)
            merged_b.pop(0)
        while merged_p and merged_p[-1] == ():
            merged_p.pop()
            merged_b.pop()
        if not merged_p:
            merged_b = []
        self.breakpoints = tuple(merged_b)
        self.pieces = tuple(merged_p)

    @property
    def is_zero(self) -> bool:
        return not self.pieces

    def value(self, x) -> Fraction:
        x = Fraction(x)
        if self.is_zero or not self.breakpoints[0] <= x < self.breakpoints[-1]:
            return _F0
        i = bisect_right(self.breakpoints, x) - 1
        return _peval(self.pieces[i], x)

    def mass(self) -> Fraction:
        total = _F0
        for i, p in enumerate(self.pieces):
            H = _pantider(p)
            total += _peval(H, self.breakpoints[i + 1]) - _peval(H, self.breakpoints[i])
        return total

    def __eq__(self, other):
        if not isinstance(other, RationalPiecewisePoly):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    def __repr__(self):
        if self.is_zero:
            return "RationalPiecewisePoly(zero)"
        return (f"RationalPiecewisePoly({len(self.pieces)} pieces on "
                f"[{self.breakpoints[0]}, {self.breakpoints[-1]}))")

    def to_json(self) -> list:
        out = []
        for i, p in enumerate(self.pieces):
            if p == ():
                continue
            out.append({
                "from": format_rational(self.breakpoints[i]),
                "to": format_rational(self.breakpoints[i + 1]),
                "coeffs": [format_rational(c) for c in p],
            })
        return out

    @classmethod
    def from_json(cls, doc) -> "RationalPiecewisePoly":
        try:
            segments = [(parse_rational(seg["from"]), parse_rational(seg["to"]),
                         tuple(parse_rational(c) for c in seg["coeffs"])) for seg in doc]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed piecewise-polynomial document: {exc}") from exc
        return from_segments(segments)


def from_segments(segments) -> RationalPiecewisePoly:
    """Build from (lo, hi, poly) triples; gaps become explicit zero pieces."""
    segs = sorted((Fraction(lo), Fraction(hi), _ptrim(p)) for lo, hi, p in segments)
    breaks: list[Fraction] = []
    pieces: list[Poly] = []
    for lo, hi, p in segs:
        if lo >= hi:
            raise ValidationError(f"empty segment [{lo}, {hi})")
        if breaks:
            if lo < breaks[-1]:
                raise ValidationError("overlapping segments")
            if lo > breaks[-1]:
                pieces.append(())
                breaks.append(lo)
        else:
            breaks.append(lo)
        pieces.append(p)
        breaks.append(hi)
    return RationalPiecewisePoly(breaks, pieces)


ZERO = RationalPiecewisePoly([], [])


def indicator(a, b) -> RationalPiecewisePoly:
    """1 on [a, b), 0 elsewhere."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValidationError(f"empty interval [{a}, {b})")
    return RationalPiecewisePoly([a, b], [(_F1,)])


def add(f: RationalPiecewisePoly, g: RationalPiecewisePoly) -> RationalPiecewisePoly:
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    breaks = sorted(set(f.breakpoints) | set(g.breakpoints))
    pieces = []
    for lo in breaks[:-1]:
        pf = _piece_at(f, lo)
        pg = _piece_at(g, lo)
        pieces.append(_padd(pf, pg))
    return RationalPiecewisePoly(breaks, pieces)


def _piece_at(f: RationalPiecewisePoly, x: Fraction) -> Poly:
    if f.is_zero or not f.breakpoints[0] <= x < f.breakpoints[-1]:
        return ()
    return f.pieces[bisect_right(f.breakpoints, x) - 1]


def scale(c, f: RationalPiecewisePoly) -> RationalPiecewisePoly:
    c = Fraction(c)
    if c == 0 or f.is_zero:
        return ZERO
    return RationalPiecewisePoly(f.breakpoints, [_pscale(c, p) for p in f.pieces])


def translate(f: RationalPiecewisePoly, t) -> RationalPiecewisePoly:
    t = Fraction(t)
    if f.is_zero or t == 0:
        return f
    return RationalPiecewisePoly([b + t for b in f.breakpoints],
                                 [_pshift(p, t) for p in f.pieces])


def _pair_antiderivative(P: Poly, Q: Poly) -> list[Poly]:
    """Antiderivative in t of P(t) * Q(x - t), as a polynomial in t whose
    coefficients are polynomials in x."""
    nq = len(Q)
    qx: list[Poly] = []
    for j in range(nq):
        cx = [_F0] * (nq - j)
        sign = -1 if j % 2 else 1
        for k in range(j, nq):
            cx[k - j] += Q[k] * math.comb(k, j) * sign
        qx.append(_ptrim(cx))
    prod: list[Poly] = [()] * (len(P) + nq)
    for i, pi in enumerate(P):
        if pi:
            for j in range(nq):
                prod[i + j] = _padd(prod[i + j], _pscale(pi, qx[j]))
    return [()] + [_pscale(Fraction(1, i + 1), prod[i]) for i in range(len(prod) - 1)]


def _bivar_eval(A: list[Poly], tpoly: Poly) -> Poly:
    """Substitute the x-polynomial tpoly for t."""
    r: Poly = ()
    for coeff in reversed(A):
        r = _padd(_pmul(r, tpoly), coeff)
    return r


def convolve(f: RationalPiecewisePoly, g: RationalPiecewisePoly) -> RationalPiecewisePoly:
    """Exact convolution. The support hull is the sum of the hulls, the mass
    multiplies, and for nonnegative inputs hull diameters add."""
    if f.is_zero or g.is_zero:
        return ZERO
    breaks = sorted({a + b for a in f.breakpoints for b in g.breakpoints})
    acc: list[Poly] = [()] * (len(breaks) - 1)
    index = {b: i for i, b in enumerate(breaks)}
    for i, P in enumerate(f.pieces):
        if P == ():
            continue
        a0, a1 = f.breakpoints[i], f.breakpoints[i + 1]
        for j, Q in enumerate(g.pieces):
            if Q == ():
                continue
            b0, b1 = g.breakpoints[j], g.breakpoints[j + 1]
            A = _pair_antiderivative(P, Q)
            lo, hi = a0 + b0, a1 + b1
            lo_i, hi_i = index[lo], index[hi]
            for cell in range(lo_i, hi_i):
                c, d = breaks[cell], breaks[cell + 1]
                # t ranges over [max(a0, x-b1), min(a1, x-b0)]; which branch is
                # active is constant on the cell because a0+b1 and a1+b0 are breaks
                upper = (-b0, _F1) if d <= a1 + b0 else (a1,)
                lower = (-b1, _F1) if c >= a0 + b1 else (a0,)
                contrib = _padd(_bivar_eval(A, upper),
                                tuple(-v for v in _bivar_eval(A, lower)))
                acc[cell] = _padd(acc[cell], contrib)
    return RationalPiecewisePoly(breaks, acc)


def _fold_cells(f: RationalPiecewisePoly, lam: Fraction):
    """The periodization sum over lam*Z as contiguous cells covering [0, lam)."""
    if f.is_zero:
        return [(_F0, lam, ())]
    x0, xk = f.breakpoints[0], f.breakpoints[-1]
    n_min = math.floor(-xk / lam) + 1
    n_max = math.ceil((lam - x0) / lam) - 1
    cuts = {_F0, lam}
    for n in range(n_min, n_max + 1):
        for b in f.breakpoints:
            c = b + n * lam
            if _F0 < c < lam:
                cuts.add(c)
    breaks = sorted(cuts)
    cells = []
    for idx in range(len(breaks) - 1):
        c, d = breaks[idx], breaks[idx + 1]
        total: Poly = ()
        for n in range(n_min, n_max + 1):
            p = _piece_at(f, c - n * lam)
            if p:
                total = _padd(total, _pshift(p, Fraction(n) * lam))
        cells.append((c, d, total))
    return cells


def fold(f: RationalPiecewisePoly, lam) -> RationalPiecewisePoly:
    """Sum of all lam*Z-translates of f restricted to [0, lam); mass is kept."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValidationError("period must be positive")
    return from_segments((c, d, p) for c, d, p in _fold_cells(f, lam) if p != ())


@dataclass(frozen=True)
class TilingLevel1D:
    lam: Fraction
    level: Fraction


@dataclass(frozen=True)
class TilingFailure1D:
    lam: Fraction
    interval: tuple[Fraction, Fraction]


OneDimTiling = Union[TilingLevel1D, TilingFailure1D]


def tiling_level_1d(f: RationalPiecewisePoly, lam) -> OneDimTiling:
    """Constant level of the lam*Z-periodization, or the first interval on
    which the periodization deviates from its initial value."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValidationError("period must be positive")
    cells = _fold_cells(f, lam)
    merged: list[tuple[Fraction, Fraction, Poly]] = []
    for c, d, p in cells:
        if merged and merged[-1][2] == p:
            merged[-1] = (merged[-1][0], d, p)
        else:
            merged.append((c, d, p))
    first = merged[0]
    if len(first[2]) > 1:
        return TilingFailure1D(lam, (first[0], first[1]))
    for c, d, p in merged[1:]:
        if p != first[2]:
            return TilingFailure1D(lam, (c, d))
    level = first[2][0] if first[2] else _F0
    return TilingLevel1D(lam, level)


@dataclass(frozen=True)
class SupportStats:
    measure: Fraction
    diameter: Fraction
    hull: tuple[Fraction, Fraction] | None


def support_stats(f: RationalPiecewisePoly) -> SupportStats:
    """Lebesgue measure and hull of the support. A piece counts iff its
    polynomial is not identically zero (nonzero polynomials vanish only on
    finitely many points)."""
    measure = _F0
    hull_lo = hull_hi = None
    for i, p in enumerate(f.pieces):
        if p == ():
            continue
        lo, hi = f.breakpoints[i], f.breakpoints[i + 1]
        measure += hi - lo
        if hull_lo is None:
            hull_lo = lo
        hull_hi = hi
    if hull_lo is None:
        return SupportStats(_F0, _F0, None)
    return SupportStats(measure, hull_hi - hull_lo, (hull_lo, hull_hi))


def convolution_tile(lams) -> tuple[RationalPiecewisePoly, tuple[TilingLevel1D, ...]]:
    """Convolution of the indicators of [0, lam_j); tiles lam_j*Z for every j.
    Returns the tile and its verified level on each lam_j*Z, in input order."""
    lams = [Fraction(v) for v in lams]
    if not lams or any(v <= 0 for v in lams):
        raise ValidationError("need at least one positive period")
    if len(lams) > CONV_PERIOD_CAP:
        raise CapExceededError(
            f"{len(lams)} periods exceed the convolution period cap {CONV_PERIOD_CAP}")
    f = indicator(0, lams[0])
    for lam in lams[1:]:
        f = convolve(f, indicator(0, lam))
    levels = []
    for lam in lams:
        res = tiling_level_1d(f, lam)
        if not isinstance(res, TilingLevel1D):
            raise RuntimeError(f"convolution tile failed to tile {lam}Z")
        levels.append(res)
    return f, tuple(levels)


def steinhaus_lb(alpha) -> Fraction:
    """ceil(1/alpha) * alpha: the least support measure of a nonnegative
    common tile of Z and alpha*Z, alpha in (0, 1)."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    return math.ceil(1 / alpha) * alpha


def sample_csv(f: RationalPiecewisePoly, per_unit: int = 16) -> str:
    """Dense rational sampling "x,value" for external plotting."""
    if per_unit < 1:
        raise ValidationError("need at least one sample per unit")
    lines = ["x,value"]
    if not f.is_zero:
        rows = math.floor((f.breakpoints[-1] - f.breakpoints[0]) * per_unit) + 1
        if rows > SAMPLE_ROW_CAP:
            raise CapExceededError(f"{rows} sample rows exceed the CSV row cap {SAMPLE_ROW_CAP}")
        step = Fraction(1, per_unit)
        x = f.breakpoints[0]
        while x <= f.breakpoints[-1]:
            lines.append(f"{format_rational(x)},{format_rational(f.value(x))}")
            x += step
    return "\n".join(lines)
