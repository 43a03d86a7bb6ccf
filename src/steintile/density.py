"""Exact density and counting for integers with a divisor in (N, 2N].

Two independent code paths serve as each other's oracle: subset
inclusion-exclusion with exact lcm arithmetic, and a plain sieve. The
logarithmic reference value is reporting-only and never enters an exact
assertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, ValidationError
from .rationals import format_rational

DEFAULT_EXACT_CAP = 15
DEFAULT_SIEVE_CAP = 10**8

TENENBAUM_DELTA = 0.086071
TENENBAUM_DELTA_TEXT = "0.086071"


def _check_n(N: int) -> int:
    N = int(N)
    if N < 1:
        raise ValidationError("N must be >= 1")
    return N


def multiples_density_exact(N: int, cap: int = DEFAULT_EXACT_CAP) -> Fraction:
    """Natural density of {n >= 1 : some q in {N+1,...,2N} divides n}, by
    inclusion-exclusion over the 2^N - 1 nonempty subsets of moduli."""
    N = _check_n(N)
    if N > cap:
        raise CapExceededError(f"N = {N} exceeds inclusion-exclusion cap {cap}")
    mods = list(range(N + 1, 2 * N + 1))
    total = Fraction(0)

    def rec(idx: int, lcm_val: int, size: int) -> None:
        nonlocal total
        for i in range(idx, len(mods)):
            nl = math.lcm(lcm_val, mods[i])
            sign = 1 if size % 2 == 0 else -1
            total += Fraction(sign, nl)
            rec(i + 1, nl, size + 1)

    rec(0, 1, 0)
    return total


def _count_by_inclusion_exclusion(N: int, X: int) -> int:
    """Exact |{1..X} with a divisor in (N, 2N]| via floor sums; independent of
    the sieve path."""
    mods = list(range(N + 1, 2 * N + 1))
    total = 0

    def rec(idx: int, lcm_val: int, size: int) -> None:
        nonlocal total
        for i in range(idx, len(mods)):
            nl = math.lcm(lcm_val, mods[i])
            if nl > X:
                # deeper lcms only grow, but siblings may still fit
                continue
            total += (X // nl) if size % 2 == 0 else -(X // nl)
            rec(i + 1, nl, size + 1)

    rec(0, 1, 0)
    return total


def multiples_count_sieve(N: int, X: int, cap: int = DEFAULT_SIEVE_CAP) -> int:
    """Exact count of n in [1, X] divisible by some q in {N+1,...,2N}."""
    N = _check_n(N)
    X = int(X)
    if X < 1:
        raise ValidationError("X must be >= 1")
    if X > cap:
        raise CapExceededError(f"X = {X} exceeds sieve cap {cap}")
    hit = bytearray(X + 1)
    for q in range(N + 1, min(2 * N, X) + 1):
        hit[q::q] = b"\x01" * (X // q)
    return sum(hit)


def tenenbaum_reference(N: int) -> float:
    """(log N)^(-delta) with delta = 0.086071; a floating reference value for
    how slowly the density above decays. Reporting only."""
    N = _check_n(N)
    if N < 3:
        raise ValidationError("reference value needs N >= 3")
    return math.log(N) ** (-TENENBAUM_DELTA)


def union_count_window(N: int, cap: int = DEFAULT_SIEVE_CAP) -> int:
    """Exact count of integers in [1, 2N^2] with a divisor in (N, 2N].

    After scaling by N this is the number of points that the union of the
    arithmetic progressions (N+j)Z, j = 1..N, puts in (0, 2N].
    """
    N = _check_n(N)
    X = 2 * N * N
    if X > cap:
        raise CapExceededError(f"window 2N^2 = {X} exceeds sieve cap {cap}")
    return multiples_count_sieve(N, X, cap=cap)


@dataclass(frozen=True)
class DensityReport:
    N: int
    window: int
    sieve_count: int
    exact_density: Fraction | None
    reference_bound: float

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "window": self.window,
            "sieve_count": self.sieve_count,
            "sieve_density": format_rational(Fraction(self.sieve_count, self.window)),
            "exact_density": None if self.exact_density is None
            else format_rational(self.exact_density),
            "reference_bound": f"{self.reference_bound:.10g}",
            "reference_delta": TENENBAUM_DELTA_TEXT,
        }


def density_report(N: int, X: int, exact_cap: int = DEFAULT_EXACT_CAP,
                   sieve_cap: int = DEFAULT_SIEVE_CAP) -> DensityReport:
    """Sieve count over [1, X] plus, when N is small enough, the exact density
    and the logarithmic reference value."""
    N = _check_n(N)
    count = multiples_count_sieve(N, X, cap=sieve_cap)
    exact = multiples_density_exact(N, cap=exact_cap) if N <= exact_cap else None
    ref = tenenbaum_reference(N) if N >= 3 else float("nan")
    return DensityReport(N=N, window=int(X), sieve_count=count,
                         exact_density=exact, reference_bound=ref)
