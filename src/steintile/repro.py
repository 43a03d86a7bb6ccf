"""Reproduction driver: recomputes every acceptance-level number and writes a
machine-readable report per criterion. The pytest acceptance suite runs the
same functions, so the CLI report and the test verdicts can never diverge.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

from . import copula, density, group_tiling, lattice, pp1d
from .abelian import make_group, subgroup_from_generators
from .rationals import format_rational

_SEED = 20240901


def _factor_subgroups(m: int, n: int):
    G = make_group([m, n])
    return (G,
            subgroup_from_generators(G, [(1, 0)]),
            subgroup_from_generators(G, [(0, 1)]))


def criterion_1() -> dict:
    """S(m, km) = km for m in {2,3,4,5}, k in {1,2,3}, via the CLI."""
    from . import cli
    cases = []
    ok = True
    for m in (2, 3, 4, 5):
        for k in (1, 2, 3):
            n = k * m
            rr = cli.run(["copula", "min-support", "-m", str(m), "-n", str(n),
                          "--cap", str(max(copula.DEFAULT_SEARCH_CAP, n))])
            got = rr.result.get("S") if rr.exit_code == 0 else None
            cases.append({"m": m, "n": n, "expected": n, "S": got})
            ok = ok and rr.exit_code == 0 and got == n
    return {"criterion": 1, "label": "S(m,km) = km via CLI", "pass": ok, "cases": cases}


def criterion_2() -> dict:
    """S(m, km+1) = (k+1)m for m in {2,3,4}, k in {1,2}, by the closed form
    and by the exhaustive search; the staircase construction attains it."""
    cases = []
    ok = True
    for m in (2, 3, 4):
        for k in (1, 2):
            n = k * m + 1
            expected = (k + 1) * m
            cap = max(copula.DEFAULT_SEARCH_CAP, n)
            S = copula.min_support_exact(m, n, cap=cap).S
            S_search = copula.min_support_search(m, n, cap=cap).S
            built = copula.construct_lmr(m, k)
            case_ok = S == S_search == expected and built.support_size == expected
            cases.append({"m": m, "n": n, "expected": expected, "S": S,
                          "search": S_search,
                          "construction_support": built.support_size})
            ok = ok and case_ok
    return {"criterion": 2, "label": "S(m,km+1) = (k+1)m and staircase attains it",
            "pass": ok, "cases": cases}


def criterion_3() -> dict:
    """Closed-form margin solver equals the brute-force LP oracle on
    Z_m x Z_n, 2<=m,n<=5."""
    cases = []
    ok = True
    for m in range(2, 6):
        for n in range(2, 6):
            S_matrix = copula.min_support_exact(m, n).S
            G, G1, G2 = _factor_subgroups(m, n)
            S_oracle = group_tiling.min_support_bruteforce(G, G1, G2).S
            cases.append({"m": m, "n": n, "solver": S_matrix, "oracle": S_oracle})
            ok = ok and S_matrix == S_oracle
    return {"criterion": 3, "label": "solver vs brute-force LP oracle, 2<=m,n<=5",
            "pass": ok, "cases": cases}


def criterion_4() -> dict:
    """For 2<=m,n<=6 the exhaustive search and the closed form agree on
    S = m+n-gcd(m,n), with support_lower_bound <= S."""
    cases = []
    ok = True
    for m in range(2, 7):
        for n in range(2, 7):
            S = copula.min_support_exact(m, n).S
            S_search = copula.min_support_search(m, n).S
            lo = copula.support_lower_bound(m, n)
            hi = m + n - math.gcd(m, n)
            cases.append({"m": m, "n": n, "S": S, "search": S_search,
                          "lower": lo, "nw_upper": hi})
            ok = ok and S_search == S == hi and lo <= S
    return {"criterion": 4, "label": "search S = closed form m+n-gcd, 2<=m,n<=6",
            "pass": ok, "cases": cases}


def criterion_5() -> dict:
    """Quotient-reduction pipeline equals direct brute force on the unreduced
    group for five instances with nontrivial or trivial intersections."""
    instances = [
        ([4, 2], [(1, 0)], [(2, 0), (0, 1)]),
        ([8], [(2,)], [(4,)]),
        ([12], [(2,)], [(3,)]),
        ([2, 2], [(1, 0)], [(0, 1)]),
        ([9], [(3,)], [(3,)]),
        ([6], [(2,)], [(3,)]),
        ([3, 4], [(1, 0)], [(0, 1)]),
    ]
    cases = []
    ok = True
    for orders, g1, g2 in instances:
        G = make_group(orders)
        G1 = subgroup_from_generators(G, g1)
        G2 = subgroup_from_generators(G, g2)
        S_fast = group_tiling.min_support(G, G1, G2).S
        S_brute = group_tiling.min_support_bruteforce(G, G1, G2).S
        cases.append({"orders": orders, "g1": g1 and [list(g) for g in g1],
                      "g2": [list(g) for g in g2],
                      "pipeline": S_fast, "bruteforce": S_brute})
        ok = ok and S_fast == S_brute
    return {"criterion": 5, "label": "quotient reduction equals unreduced brute force",
            "pass": ok, "cases": cases}


def criterion_6() -> dict:
    """Staircase tiles moved to the line: exact measure (k+1)m, levels km+1 on
    m*Z and m on (km+1)*Z, and exactly 1 less than the two-factor convolution
    tile's measure."""
    cases = []
    ok = True
    for m, k in ((2, 1), (3, 1), (2, 2)):
        n = k * m + 1
        f = group_tiling.matrix_as_cyclic_tile(copula.construct_lmr(m, k))
        F = group_tiling.discrete_to_continuous(f, m, n)
        stats = pp1d.support_stats(F)
        lev_m = pp1d.tiling_level_1d(F, m)
        lev_n = pp1d.tiling_level_1d(F, n)
        conv = pp1d.support_stats(pp1d.convolution_tile([m, n])[0]).measure
        case_ok = (stats.measure == (k + 1) * m
                   and isinstance(lev_m, pp1d.TilingLevel1D) and lev_m.level == n
                   and isinstance(lev_n, pp1d.TilingLevel1D) and lev_n.level == m
                   and conv == stats.measure + 1)
        cases.append({"m": m, "k": k, "measure": format_rational(stats.measure),
                      "level_on_mZ": format_rational(lev_m.level),
                      "level_on_nZ": format_rational(lev_n.level),
                      "convolution_measure": format_rational(conv)})
        ok = ok and case_ok
    return {"criterion": 6, "label": "discrete-to-continuous measures and levels",
            "pass": ok, "cases": cases}


def criterion_7() -> dict:
    """Every constructed nonnegative common tile of Z and alpha*Z has support
    measure >= ceil(1/alpha)*alpha."""
    alphas = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10)]
    cases = []
    ok = True
    for alpha in alphas:
        bound = pp1d.steinhaus_lb(alpha)
        tiles = {"convolution": pp1d.support_stats(
            pp1d.convolution_tile([1, alpha])[0]).measure}
        m, n = alpha.numerator, alpha.denominator
        # staircase tile of m*Z and n*Z when n = km+1, rescaled to Z and alpha*Z
        if m == 1 or (n - 1) % m == 0:
            if m == 1:
                G = make_group([n])
                f = group_tiling.GroupFunction(G, {(x,): 1 for x in range(n)})
            else:
                f = group_tiling.matrix_as_cyclic_tile(
                    copula.construct_lmr(m, (n - 1) // m))
            F = group_tiling.discrete_to_continuous(f, m, n)
            tiles["discrete"] = pp1d.support_stats(F).measure / m
        case_ok = all(measure >= bound for measure in tiles.values())
        cases.append({"alpha": format_rational(alpha),
                      "bound": format_rational(bound),
                      "measures": {k: format_rational(v) for k, v in tiles.items()}})
        ok = ok and case_ok
    return {"criterion": 7, "label": "1-D support bound ceil(1/alpha)*alpha",
            "pass": ok, "cases": cases}


def criterion_8() -> dict:
    """Families over (Z_p)^2 for p in {3,5,7}: p+1 lattices of volume p, and
    box multiplicity p at 100 random rational points per lattice."""
    rng = random.Random(_SEED)
    cases = []
    ok = True
    for p in (3, 5, 7):
        fam = lattice.many_relations_family(p, 2)
        counts_ok = fam.count == p + 1
        volumes_ok = all(L.volume == p for L in fam.lattices)
        mult_ok = True
        for L in fam.lattices:
            for _ in range(100):
                x = [Fraction(rng.randrange(-6 * p, 6 * p), rng.randrange(1, 9))
                     for _ in range(2)]
                if lattice.box_tiling_multiplicity(L, fam.common_tile, x) != p:
                    mult_ok = False
                    break
        cases.append({"p": p, "count": fam.count, "volumes_ok": volumes_ok,
                      "multiplicity_ok": mult_ok})
        ok = ok and counts_ok and volumes_ok and mult_ok
    return {"criterion": 8, "label": "many-relations family counts, volumes, multiplicity",
            "pass": ok, "cases": cases}


def criterion_9() -> dict:
    """Minkowski-sum volume of N boxes of volume >= 1 is at least N^d,
    for 20 random families with N <= 6, d <= 3."""
    rng = random.Random(_SEED)
    cases = []
    ok = True
    for trial in range(20):
        d = rng.randrange(1, 4)
        N = rng.randrange(2, 7)
        boxes = []
        for _ in range(N):
            sides = tuple(Fraction(rng.randrange(1, 13), rng.randrange(1, 5))
                          for _ in range(d))
            box = lattice.Box(sides)
            while box.volume < 1:
                box = lattice.Box(tuple(s * 2 for s in box.sides))
            boxes.append(box)
        stats = lattice.box_convolution_stats(boxes)
        bound = Fraction(N ** d)
        cases.append({"trial": trial, "d": d, "N": N,
                      "volume": format_rational(stats.volume),
                      "bound": format_rational(bound)})
        ok = ok and stats.volume >= bound
    return {"criterion": 9, "label": "box Minkowski-sum volume >= N^d",
            "pass": ok, "cases": cases}


def criterion_10() -> dict:
    """Exact densities 1/2, 7/15, 47/105 and 1895/4199 at N = 2, 3, 5, 10;
    sieve-vs-exact agreement within 2^N at X = 10^6 for N <= 12; decay of
    the sieve density from N = 5 to N = 50.

    The decay clause compares the ends of the trend along N in
    {5, 10, 25, 50}, not each step: the density is not monotone in N
    (exact_10 > exact_5), and `strictly_decreasing` records that outside
    `pass`."""
    X = 10**6
    exact = {N: density.multiples_density_exact(N) for N in range(1, 13)}
    ok = exact[2] == Fraction(1, 2) and exact[3] == Fraction(7, 15)
    ok = ok and exact[5] == Fraction(47, 105)
    ok = ok and exact[10] == Fraction(1895, 4199)
    sieved = {N: density.multiples_count_sieve(N, X) for N in (*range(1, 13), 25, 50)}
    agreement = []
    for N in range(1, 13):
        diff = abs(sieved[N] - exact[N] * X)
        agreement.append({"N": N, "abs_error": format_rational(diff),
                          "bound": 2 ** N})
        ok = ok and diff <= 2 ** N
    trend = [Fraction(sieved[N], X) for N in (5, 10, 25, 50)]
    ok = ok and trend[-1] < trend[0]
    decreasing = all(a > b for a, b in zip(trend, trend[1:]))
    return {"criterion": 10, "label": "density identities, sieve agreement, trend",
            "pass": ok,
            "exact_2": format_rational(exact[2]),
            "exact_3": format_rational(exact[3]),
            "exact_5": format_rational(exact[5]),
            "exact_10": format_rational(exact[10]),
            "agreement": agreement,
            "trend": [format_rational(t) for t in trend],
            "strictly_decreasing": decreasing}


def _random_poly(rng, max_deg=2) -> tuple:
    deg = rng.randrange(0, max_deg + 1)
    return tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                 for _ in range(deg + 1))


def _random_pp(rng, nonneg=False) -> pp1d.RationalPiecewisePoly:
    k = rng.randrange(1, 4)
    cuts = sorted({Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
                   for _ in range(k + 1)})
    while len(cuts) < 2:
        cuts.append(cuts[-1] + 1)
    if nonneg:
        pieces = [(Fraction(rng.randrange(1, 7), rng.randrange(1, 4)),)
                  for _ in range(len(cuts) - 1)]
    else:
        pieces = [_random_poly(rng) for _ in range(len(cuts) - 1)]
    return pp1d.RationalPiecewisePoly(cuts, pieces)


def criterion_11() -> dict:
    """pp1d property suite, >= 100 randomized exact instances each: mass is
    multiplicative under convolution, periodization preserves mass, tiling
    level equals mass/lambda, and hull diameters add for nonnegative inputs."""
    rng = random.Random(_SEED)
    lams = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 4)]
    checks = {"mass_multiplicative": 0, "fold_mass": 0,
              "level_equals_mass_over_lambda": 0, "diameter_additive": 0}
    ok = True
    for i in range(100):
        f = _random_pp(rng)
        g = _random_pp(rng)
        conv = pp1d.convolve(f, g)
        ok = ok and conv.mass() == f.mass() * g.mass()
        checks["mass_multiplicative"] += 1

        lam = lams[i % len(lams)]
        ok = ok and pp1d.fold(f, lam).mass() == f.mass()
        checks["fold_mass"] += 1

        tiled = pp1d.convolve(f, pp1d.indicator(0, lam))
        res = pp1d.tiling_level_1d(tiled, lam)
        ok = ok and isinstance(res, pp1d.TilingLevel1D) and res.level == tiled.mass() / lam
        checks["level_equals_mass_over_lambda"] += 1

        fp = _random_pp(rng, nonneg=True)
        gp = _random_pp(rng, nonneg=True)
        sf, sg = pp1d.support_stats(fp), pp1d.support_stats(gp)
        sc = pp1d.support_stats(pp1d.convolve(fp, gp))
        ok = ok and sc.diameter == sf.diameter + sg.diameter
        checks["diameter_additive"] += 1
    return {"criterion": 11, "label": "pp1d randomized property suite",
            "pass": ok, "instances": checks}


def _random_lattice(rng, d) -> lattice.RationalLattice:
    while True:
        basis = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                  for _ in range(d)] for _ in range(d)]
        try:
            return lattice.make_lattice(basis)
        except Exception:
            continue


def criterion_12() -> dict:
    """Lattice algebra over >= 50 random rational lattices in d <= 3: dual is
    an involution, vol(sum)*vol(meet) = vol*vol, and (L1 n L2)* = L1* + L2*."""
    rng = random.Random(_SEED)
    ok = True
    trials = 0
    for i in range(50):
        d = 1 + i % 3
        L1 = _random_lattice(rng, d)
        L2 = _random_lattice(rng, d)
        ok = ok and lattice.dual(lattice.dual(L1)) == L1
        ok = ok and lattice.dual(L1).volume * L1.volume == 1
        pair = lattice.sum_and_intersection(L1, L2)
        ok = ok and pair.sum.volume * pair.intersection.volume == L1.volume * L2.volume
        lhs = lattice.dual(pair.intersection)
        rhs = lattice.sum_and_intersection(lattice.dual(L1), lattice.dual(L2)).sum
        ok = ok and lhs == rhs
        trials += 1
    return {"criterion": 12, "label": "lattice algebra identities, 50 random lattices",
            "pass": ok, "trials": trials}


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
                criterion_11, criterion_12)


def run_all(out_dir: str) -> dict:
    """Run every criterion, write one JSON report each plus the S(m, n) table as
    CSV, and return a summary."""
    os.makedirs(out_dir, exist_ok=True)
    summary = {"criteria": {}, "all_pass": True}
    for fn in ALL_CRITERIA:
        report = fn()
        idx = report["criterion"]
        path = os.path.join(out_dir, f"criterion_{idx:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        summary["criteria"][str(idx)] = {"pass": report["pass"], "label": report["label"]}
        summary["all_pass"] = summary["all_pass"] and report["pass"]
        if idx == 4:
            rows = ["m,n,S,lower,nw_upper"]
            rows += [f"{c['m']},{c['n']},{c['S']},{c['lower']},{c['nw_upper']}"
                     for c in report["cases"]]
            with open(os.path.join(out_dir, "criterion_04_table.csv"), "w",
                      encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
    return summary
