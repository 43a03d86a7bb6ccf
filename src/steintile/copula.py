"""Calculus of nonnegative m x n matrices with all row sums n and column sums m.

Contains validation, the explicit small-support constructions (all-ones column
with staircase blocks; gcd-many northwest-corner blocks), the minimal support
size in closed form, and the exhaustive minimal-support search with exact
transportation feasibility by integral max-flow, kept as its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapExceededError, ValidationError
from .rationals import format_rational

DEFAULT_SEARCH_CAP = 8
CONSTRUCTION_CAP = 10**6  # most entries an explicit m x n construction may build
TABLE_CELL_CAP = 10**6  # most cells a min_support_grid table may have


@dataclass(frozen=True)
class CopulaMatrix:
    """m x n matrix of nonnegative rationals; every row sums to n, every column to m."""

    m: int
    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def support_size(self) -> int:
        return sum(1 for row in self.entries for v in row if v != 0)

    def support_pattern(self) -> "SupportPattern":
        edges = frozenset(
            (i, j) for i, row in enumerate(self.entries) for j, v in enumerate(row) if v != 0
        )
        return SupportPattern(self.m, self.n, edges)

    def transpose(self) -> "CopulaMatrix":
        cols = tuple(tuple(self.entries[i][j] for i in range(self.m)) for j in range(self.n))
        return CopulaMatrix(self.n, self.m, cols)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "entries": [[format_rational(v) for v in row] for row in self.entries],
        }

    def to_csv(self) -> str:
        return "\n".join(",".join(format_rational(v) for v in row) for row in self.entries)


def validate(entries, m: int, n: int) -> CopulaMatrix:
    """Check margins exactly; report the first offending row or column."""
    if len(entries) != m or any(len(row) != n for row in entries):
        raise ValidationError(f"expected a {m}x{n} matrix")
    mat = tuple(tuple(Fraction(v) for v in row) for row in entries)
    # margins are summed as integer numerators over the common denominator
    den = math.lcm(*(v.denominator for row in mat for v in row))
    nums = [[v.numerator * (den // v.denominator) for v in row] for row in mat]
    for i, row in enumerate(nums):
        for j, v in enumerate(row):
            if v < 0:
                raise ValidationError(f"entry ({i},{j}) is negative: {mat[i][j]}")
        s = sum(row)
        if s != n * den:
            raise ValidationError(
                f"row {i} sums to {format_rational(Fraction(s, den))}, expected {n}")
    for j, col in enumerate(zip(*nums)):
        s = sum(col)
        if s != m * den:
            raise ValidationError(
                f"column {j} sums to {format_rational(Fraction(s, den))}, expected {m}")
    return CopulaMatrix(m, n, mat)


@dataclass(frozen=True)
class SupportPattern:
    """A set of (row, column) positions allowed to be nonzero."""

    m: int
    n: int
    edges: frozenset

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def row_supports(self) -> list[tuple[int, ...]]:
        rows = [[] for _ in range(self.m)]
        for i, j in self.sorted_edges:
            rows[i].append(j)
        return [tuple(r) for r in rows]

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "edges": [list(e) for e in self.sorted_edges]}


def _check_construction_size(m: int, n: int) -> None:
    if m * n > CONSTRUCTION_CAP:
        raise CapExceededError(
            f"a {m}x{n} matrix has more than {CONSTRUCTION_CAP} entries")


def construct_lmr(m: int, k: int) -> CopulaMatrix:
    """The m x (km+1) matrix with an all-ones first column and, in row i, a
    block of k consecutive entries equal to m in columns 1+ik .. k+ik.

    Its support has size (k+1)m, the minimum possible for these shapes.
    """
    if m < 2 or k < 1:
        raise ValidationError("need m >= 2 and k >= 1")
    n = k * m + 1
    _check_construction_size(m, n)
    entries = []
    for i in range(m):
        row = [Fraction(0)] * n
        row[0] = Fraction(1)
        for c in range(1 + i * k, 1 + (i + 1) * k):
            row[c] = Fraction(m)
        entries.append(tuple(row))
    return validate(entries, m, n)


def construct_nw_blocks(m: int, n: int) -> CopulaMatrix:
    """Block-diagonal matrix with gcd(m,n) blocks, each filled by the
    northwest-corner rule; support size is exactly m + n - gcd(m,n)."""
    if m < 1 or n < 1:
        raise ValidationError("need m, n >= 1")
    _check_construction_size(m, n)
    g = math.gcd(m, n)
    mb, nb = m // g, n // g
    entries = [[0] * n for _ in range(m)]
    for b in range(g):
        r0, c0 = b * mb, b * nb
        supply = [n] * mb
        demand = [m] * nb
        i = j = 0
        while i < mb and j < nb:
            d = min(supply[i], demand[j])
            entries[r0 + i][c0 + j] = d
            supply[i] -= d
            demand[j] -= d
            if supply[i] == 0:
                i += 1
            if demand[j] == 0:
                j += 1
    return validate([tuple(r) for r in entries], m, n)


def support_lower_bound(m: int, n: int) -> int:
    """max(m*ceil(n/m), n*ceil(m/n)): entries are capped by the opposite
    margin, so each row needs ceil(n/m) nonzeros and each column ceil(m/n)."""
    return max(m * (-(-n // m)), n * (-(-m // n)))


@dataclass(frozen=True)
class MinSupportResult:
    S: int
    pattern: SupportPattern
    witness: CopulaMatrix


def _check_margins(m: int, n: int, cap: int) -> None:
    if m < 1 or n < 1:
        raise ValidationError("need m, n >= 1")
    if min(m, n) > 1 and max(m, n) > cap:
        raise CapExceededError(f"margins ({m},{n}) exceed search cap {cap}")


def min_support_exact(m: int, n: int, cap: int = DEFAULT_SEARCH_CAP) -> MinSupportResult:
    """Exact minimum support size S(m, n) = m + n - gcd(m, n) over all
    matrices with the (m, n) margins; the witness is construct_nw_blocks.

    Lower bound. A feasible matrix stays feasible when its support shrinks to
    that of a basic feasible solution of the transportation polytope, and
    basic supports are forests in the bipartite row/column graph. All margins
    are positive, so no node of the forest is isolated. A tree with r rows
    and c columns carries total mass r*n = c*m, so r is a multiple of m/g and
    c of n/g, where g = gcd(m, n): every tree has at least (m + n)/g nodes,
    and there are at most g trees. A forest has as many edges as nodes minus
    trees, so the support has at least m + n - g entries. The northwest-corner
    blocks attain this bound, one tree per block.

    `cap` bounds the output size only; a single row or column is never
    refused, so the exit codes match those of min_support_search.
    """
    _check_margins(m, n, cap)
    witness = construct_nw_blocks(m, n)
    return MinSupportResult(m + n - math.gcd(m, n), witness.support_pattern(), witness)


def min_support_grid(ms, ns, cap: int = DEFAULT_SEARCH_CAP) -> dict:
    """S(m, n) = m + n - gcd(m, n) for every pair in ms x ns, as {(m, n): S};
    each cell passes the same cap check as min_support_exact."""
    if len(ms) * len(ns) > TABLE_CELL_CAP:
        raise CapExceededError(
            f"table of {len(ms)} x {len(ns)} cells exceeds cell cap {TABLE_CELL_CAP}")
    grid = {}
    for m in ms:
        for n in ns:
            _check_margins(m, n, cap)
            grid[(m, n)] = m + n - math.gcd(m, n)
    return grid


# ---------------------------------------------------------------- search oracle


@dataclass(frozen=True)
class TransportationFeasibility:
    feasible: bool
    witness: CopulaMatrix | None

    def __bool__(self) -> bool:
        return self.feasible


def _transport_flow(row_cols, m: int, n: int):
    """Integral flow meeting row margins n and column margins m within the
    allowed positions, or None. Greedy northwest start, then augmenting paths
    explored in ascending order, so the result is deterministic."""
    flow = [[0] * n for _ in range(m)]
    row_left = [n] * m
    col_left = [m] * n
    for i in range(m):
        for j in row_cols[i]:
            if row_left[i] == 0:
                break
            d = min(row_left[i], col_left[j])
            if d:
                flow[i][j] += d
                row_left[i] -= d
                col_left[j] -= d
    for i in range(m):
        while row_left[i] > 0:
            parent_col = {}
            parent_row = {}
            seen_rows = {i}
            seen_cols = set()
            queue = [("r", i)]
            target = -1
            while queue and target < 0:
                kind, v = queue.pop(0)
                if kind == "r":
                    for j in row_cols[v]:
                        if j not in seen_cols:
                            seen_cols.add(j)
                            parent_col[j] = v
                            if col_left[j] > 0:
                                target = j
                                break
                            queue.append(("c", j))
                else:
                    for r in range(m):
                        if r not in seen_rows and flow[r][v] > 0:
                            seen_rows.add(r)
                            parent_row[r] = v
                            queue.append(("r", r))
            if target < 0:
                return None
            path = []
            j = target
            while True:
                r = parent_col[j]
                path.append((r, j, 1))
                if r == i:
                    break
                j = parent_row[r]
                path.append((r, j, -1))
            delta = min(row_left[i], col_left[target])
            for r, jj, d in path:
                if d < 0:
                    delta = min(delta, flow[r][jj])
            for r, jj, d in path:
                flow[r][jj] += d * delta
            row_left[i] -= delta
            col_left[target] -= delta
    return flow


def transportation_feasible(pattern: SupportPattern, m: int | None = None,
                            n: int | None = None) -> TransportationFeasibility:
    """Decide whether some nonnegative matrix supported inside the pattern has
    all row sums n and column sums m; the witness is an integral flow."""
    m = pattern.m if m is None else m
    n = pattern.n if n is None else n
    if (m, n) != (pattern.m, pattern.n):
        raise ValidationError(f"pattern is {pattern.m}x{pattern.n}, not {m}x{n}")
    if any(not (0 <= i < m and 0 <= j < n) for i, j in pattern.edges):
        raise ValidationError("pattern edge out of range")
    flow = _transport_flow(pattern.row_supports(), m, n)
    if flow is None:
        return TransportationFeasibility(False, None)
    witness = validate([[Fraction(v) for v in row] for row in flow], m, n)
    return TransportationFeasibility(True, witness)


def _degree_sequences(m, s, lo, hi):
    """Nondecreasing degree tuples of length m within [lo, hi] summing to s."""
    def rec(i, prev, left):
        if i == m - 1:
            if prev <= left <= hi:
                yield (left,)
            return
        remaining = m - 1 - i
        d_lo = max(prev, lo, left - remaining * hi)
        d_hi = min(hi, left // (remaining + 1))
        for d in range(d_lo, d_hi + 1):
            for rest in rec(i + 1, d, left - d):
                yield (d,) + rest
    if m >= 1:
        yield from rec(0, lo, s)


def _patterns_of_size(m, n, s):
    """Support patterns of size s with rows in nondecreasing (degree, support)
    order, every column covered, per-row degree >= ceil(n/m) and per-column
    degree >= ceil(m/n). Complete up to row permutation."""
    row_min = -(-n // m)
    col_min = -(-m // n)
    combo_cache: dict[int, tuple] = {}
    bits_cache: dict[int, tuple] = {}

    def options(deg):
        if deg not in combo_cache:
            opts = tuple(combinations(range(n), deg))
            combo_cache[deg] = opts
            bits_cache[deg] = tuple(sum(1 << c for c in opt) for opt in opts)
        return combo_cache[deg], bits_cache[deg]

    full = (1 << n) - 1
    for degs in _degree_sequences(m, s, row_min, n):
        tail = [0] * (m + 1)
        for r in range(m - 1, -1, -1):
            tail[r] = tail[r + 1] + degs[r]
        rows: list[tuple[int, ...]] = []

        def fill(r, start, covered):
            if r == m:
                if covered != full:
                    return
                if col_min > 1:
                    counts = [0] * n
                    for row in rows:
                        for c in row:
                            counts[c] += 1
                    if any(cnt < col_min for cnt in counts):
                        return
                yield SupportPattern(m, n, frozenset(
                    (i, c) for i, row in enumerate(rows) for c in row))
                return
            opts, bits = options(degs[r])
            begin = start if r > 0 and degs[r] == degs[r - 1] else 0
            for idx in range(begin, len(opts)):
                newcov = covered | bits[idx]
                # remaining rows must be able to cover the uncovered columns
                if n - bin(newcov).count("1") > tail[r + 1]:
                    continue
                rows.append(opts[idx])
                yield from fill(r + 1, idx, newcov)
                rows.pop()

        yield from fill(0, 0, 0)


def min_support_search(m: int, n: int, cap: int = DEFAULT_SEARCH_CAP) -> MinSupportResult:
    """Oracle for min_support_exact by exhaustive search.

    Searches candidate sizes upward from support_lower_bound; at each size
    enumerates row-sorted support patterns and tests exact transportation
    feasibility, so the first feasible size is the minimum. The witness is the
    first feasible pattern in enumeration order with its deterministic flow.
    """
    if m < 1 or n < 1:
        raise ValidationError("need m, n >= 1")
    if min(m, n) == 1:
        # a single row (or column) forces the all-ones matrix; nothing to search
        ones = validate([[Fraction(1)] * n for _ in range(m)], m, n)
        return MinSupportResult(m * n, ones.support_pattern(), ones)
    if max(m, n) > cap:
        raise CapExceededError(f"margins ({m},{n}) exceed search cap {cap}")
    if m > n:
        res = min_support_search(n, m, cap=cap)
        pat = SupportPattern(m, n, frozenset((j, i) for i, j in res.pattern.edges))
        return MinSupportResult(res.S, pat, res.witness.transpose())
    for s in range(support_lower_bound(m, n), m * n + 1):
        for pattern in _patterns_of_size(m, n, s):
            feas = transportation_feasible(pattern)
            if feas:
                return MinSupportResult(s, pattern, feas.witness)
    raise RuntimeError("unreachable: the full pattern is always feasible")
