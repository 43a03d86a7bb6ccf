"""Seeded request streams for the three benchmark workloads.

A workload is an endless sequence of rounds. Every round of a workload has the
same composition: how many requests of each operation, in the same size
slots. The seed picks the inputs inside each slot (random parameters, or a
fixed shape moved by a random group automorphism), so a run of whole rounds
does comparable work whatever its seed, and the same seed always gives the
same requests.

A request is a dict: "op" names the operation, "spec" holds the benchmark's
own record of the input (the checker reads only this and the program's
answer), and either "argv" (a CLI request, run through steintile.cli) or
"oracle" (a library request) says how to send it.

Standard library only; the program never sees the seed, only the inputs.
"""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction

import algebra

WORKLOADS = ("group-search", "lp-oracle", "continuum")

COPULA_RANGE = range(2, 9)      # the default search cap is max(m, n) <= 8
ORACLE_CAP = 36                 # default brute-force oracle cap on |G|


def rounds(workload, seed, start=0, step=1):
    """Yield (index, round) for rounds start, start + step, ... forever; a
    round is a list of requests and depends only on (workload, seed, index)."""
    make = _ROUND_MAKERS[workload]
    r = start
    while True:
        yield r, make(random.Random(f"{workload}/{seed}/{r}"))
        r += step


def cli(op, spec, argv):
    return {"op": op, "spec": spec, "argv": [str(a) for a in argv]}


# ---------------------------------------------------------------- group-search
#
# Group requests come from fixed shapes (group orders and subgroup
# generators, drawn once from a fixed generator), so each slot of a round
# costs the same in every run. The seed moves each shape by a random
# automorphism of the group (a unit multiplier per cyclic factor), which
# keeps subgroup orders and indices, and chooses the function values.

def _random_orders(rng, lo, hi, factors, target=None):
    """Orders of a product of `factors` cyclic groups whose order lies in
    [lo, hi]; all factors but the last are at most 60, and the last one is
    target // (product of the others) when a target is given."""
    while True:
        orders = [rng.randint(2, 60) for _ in range(factors - 1)]
        last = target // math.prod(orders) if target else rng.randint(2, 60)
        orders.append(max(2, last))
        if lo <= math.prod(orders) <= hi:
            return orders


def _coordinate_gens(rng, orders):
    """Generators d_i * e_i (d_i a random divisor of d_i's order), plus
    sometimes one random element, so reduced orders stay small."""
    gens = []
    for i, d in enumerate(orders):
        div = rng.choice([q for q in range(1, d + 1) if d % q == 0])
        g = [0] * len(orders)
        g[i] = div % d
        gens.append(tuple(g))
    if rng.random() < 0.5:
        gens.append(tuple(rng.randrange(d) for d in orders))
    return gens


def _group_pair(rng, equal_orders=False):
    """Orders and two generator lists whose subgroups have reduced orders at
    most 6 (this keeps the margin search for the pair fast; the copula
    requests cover the slow margins) and |G| in [24, 600]: the pipeline's
    subgroup sum walks |G1 + G2| * (|G1| + |G2|) elements."""
    while True:
        factors = rng.choice([2, 3])
        if equal_orders:
            a = rng.randint(3, 16)
            orders = [a, a] + ([rng.randint(2, 4)] if factors == 3 else [])
        else:
            orders = _random_orders(rng, 24, 600, factors)
        g1 = _coordinate_gens(rng, orders)
        if equal_orders:
            g2 = [(g[1], g[0]) + g[2:] for g in g1]
        else:
            g2 = _coordinate_gens(rng, orders)
        H1, H2 = algebra.subgroup(orders, g1), algebra.subgroup(orders, g2)
        m, n, _ = algebra.reduced_orders(H1, H2)
        if max(m, n) <= 6 and math.prod(orders) <= 600:
            return orders, g1, g2


def _tile_shape(rng, target, factors):
    """Orders within 3% of target and 1-2 generators of index 16 .. 4000."""
    while True:
        orders = _random_orders(rng, int(target * 0.97), int(target * 1.03), factors,
                                target=target)
        gens = [tuple(rng.randrange(d) for d in orders) for _ in range(rng.choice([1, 2]))]
        if 16 <= math.prod(orders) // len(algebra.subgroup(orders, gens)) <= 4000:
            return orders, gens


@functools.cache
def _shapes():
    rng = random.Random("group-search shapes")
    return {
        "min-support": [_group_pair(rng) for _ in range(10)],
        "cfd": [_group_pair(rng, equal_orders=True) for _ in range(8)],
        # |G| = 10^4 .. 10^5 in six steps, alternating two and three factors
        "tile-check": [_tile_shape(rng, int(10 ** (4 + i / 5)), 2 + i % 2) for i in range(6)],
    }


def _moved(rng, orders, gen_lists):
    """Apply one random automorphism x_i -> u_i * x_i to every generator."""
    units = [rng.choice([u for u in range(1, d) if math.gcd(u, d) == 1]) for d in orders]
    return [[tuple(u * x % d for u, x, d in zip(units, g, orders)) for g in gens]
            for gens in gen_lists]


def _tile_function(rng, orders, gens, tiles):
    """A function whose coset sums over <gens> are all |H| (tiles) or all
    but one (does not tile); half of the cosets carry two support points."""
    H = algebra.subgroup(orders, gens)
    label, count = algebra.coset_labels(orders, H)
    first = [None] * count
    for x, c in label.items():
        if first[c] is None or x < first[c]:
            first[c] = x
    hs = sorted(H)[1:]
    level = len(H)
    split = set(rng.sample(range(count), count // 2)) if hs else set()
    values = {}
    for c, x in enumerate(first):
        if c in split:
            y = algebra.add(x, rng.choice(hs), orders)
            part = Fraction(rng.randint(1, 7), 8) * level
            values[x] = part
            values[y] = level - part
        else:
            values[x] = Fraction(level)
    if not tiles:
        values[rng.choice(sorted(values))] += 1
    return {"group": list(orders),
            "values": [{"at": list(x), "v": algebra.fmt(v)} for x, v in sorted(values.items())]}


def _tile_check(rng, orders, gens, tiles):
    f = _tile_function(rng, orders, gens, tiles)
    spec = {"function": f, "gens": [list(g) for g in gens]}
    return cli("group tile-check", spec,
               ["group", "tile-check", "--function", json.dumps(f, separators=(",", ":")),
                "--gens", json.dumps(spec["gens"])])


def _group_request(op, orders, g1, g2):
    spec = {"orders": orders, "g1": [list(g) for g in g1], "g2": [list(g) for g in g2]}
    return cli(op, spec, ["group", op.split()[1], "--orders", ",".join(map(str, orders)),
                          "--g1", json.dumps(spec["g1"]), "--g2", json.dumps(spec["g2"])])


# (m, n) of the nw and (m, k) of the lmr constructions; the seed adds jitter
NW_SIZES = ((40, 12), (90, 20), (160, 40), (280, 60))
LMR_SIZES = ((20, 1), (40, 2), (60, 2), (100, 1))
SMALL_CONSTRUCTS = 14           # pairs of nw and lmr requests with m, n <= 12


def group_search_round(rng):
    reqs = []
    for m in COPULA_RANGE:
        for n in COPULA_RANGE:
            if m <= n:
                a, b = (m, n) if rng.random() < 0.5 else (n, m)
                reqs.append(cli("copula min-support", {"m": a, "n": b},
                                ["copula", "min-support", "-m", a, "-n", b]))
    for m, n in NW_SIZES:
        m, n = m + rng.randint(-2, 2), n + rng.randint(-2, 2)
        reqs.append(cli("copula construct nw", {"m": m, "n": n},
                        ["copula", "construct", "--family", "nw", "-m", m, "-n", n]))
    for m, k in LMR_SIZES:
        m += rng.randint(-2, 2)
        reqs.append(cli("copula construct lmr", {"m": m, "k": k},
                        ["copula", "construct", "--family", "lmr", "-m", m, "-k", k]))
    # small constructions: answers of a few milliseconds, mostly CLI work
    for _ in range(SMALL_CONSTRUCTS):
        m, n = rng.randint(2, 12), rng.randint(2, 12)
        reqs.append(cli("copula construct nw", {"m": m, "n": n},
                        ["copula", "construct", "--family", "nw", "-m", m, "-n", n]))
        m, k = rng.randint(2, 12), rng.randint(1, 2)
        reqs.append(cli("copula construct lmr", {"m": m, "k": k},
                        ["copula", "construct", "--family", "lmr", "-m", m, "-k", k]))
    for orders, g1, g2 in _shapes()["min-support"]:
        reqs.append(_group_request("group min-support", orders, *_moved(rng, orders, [g1, g2])))
    for orders, g1, g2 in _shapes()["cfd"]:
        reqs.append(_group_request("group cfd", orders, *_moved(rng, orders, [g1, g2])))
    for i, (orders, gens) in enumerate(_shapes()["tile-check"]):
        gens, = _moved(rng, orders, [gens])
        reqs.append(_tile_check(rng, orders, gens, tiles=i % 2 == 0))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------- lp-oracle

def _oracle_work(orders, H1, H2):
    """Number of candidate supports the brute-force oracle may enumerate:
    sum of C(|G|, s) from its size floor up to S."""
    N = math.prod(orders)
    o1, o2 = len(H1), len(H2)
    v = min(o1, o2)
    floor = max((N // o1) * -(-o1 // v), (N // o2) * -(-o2 // v))
    S = algebra.min_support_formula(N, H1, H2)
    return sum(math.comb(N, s) for s in range(floor, S + 1))


# (low, high] bounds on the oracle's candidate count, and requests per round
ORACLE_STRATA = ((0, 10**3, 3), (10**3, 10**5, 4), (10**5, 3 * 10**5, 3))
ORACLE_POOL = 48                # shapes per stratum
# G = G1 (+) G2 with |G1|, |G2| not dividing each other: the oracle tries
# tens to hundreds of candidate supports by LP before it finds S. Z_3 x Z_5
# comes twice so that the slowest tenth of a round is one shape.
ORACLE_COMPLEMENTS = (
    ([3, 5], [(1, 0)], [(0, 1)]),
    ([3, 5], [(1, 0)], [(0, 1)]),
    ([4, 5], [(1, 0)], [(0, 1)]),
    ([4, 6], [(1, 0)], [(0, 1)]),
    ([15], [(5,)], [(3,)]),
)


def _oracle_shape(rng, lo, hi):
    """Orders (|G| <= 36, one to three factors) and two generator lists with
    reduced orders <= 8 whose oracle candidate count lies in (lo, hi]."""
    while True:
        orders = [rng.randint(2, ORACLE_CAP) for _ in range(rng.choice([1, 2, 3]))]
        if math.prod(orders) > ORACLE_CAP:
            continue
        g1 = [tuple(rng.randrange(d) for d in orders) for _ in range(rng.choice([1, 2]))]
        g2 = [tuple(rng.randrange(d) for d in orders) for _ in range(rng.choice([1, 2]))]
        H1, H2 = algebra.subgroup(orders, g1), algebra.subgroup(orders, g2)
        m, n, _ = algebra.reduced_orders(H1, H2)
        if max(m, n) <= 8 and lo < _oracle_work(orders, H1, H2) <= hi:
            return orders, g1, g2


@functools.cache
def _oracle_shapes():
    """Pools of shapes per stratum, drawn once from a fixed generator.
    Drawing them anew for every request would cost more than the requests."""
    rng = random.Random("lp-oracle shapes")
    return [[_oracle_shape(rng, lo, hi) for _ in range(ORACLE_POOL)]
            for lo, hi, _ in ORACLE_STRATA]


def lp_oracle_round(rng):
    """Random shapes from each stratum and every complement shape, each moved
    by a random automorphism, which keeps subgroup orders and so the stratum."""
    shapes = list(ORACLE_COMPLEMENTS)
    for pool, (_, _, count) in zip(_oracle_shapes(), ORACLE_STRATA):
        shapes += rng.sample(pool, count)
    reqs = []
    for orders, g1, g2 in shapes:
        g1, g2 = _moved(rng, orders, [g1, g2])
        spec = {"orders": orders, "g1": [list(g) for g in g1], "g2": [list(g) for g in g2]}
        reqs.append({"op": "oracle min-support", "spec": spec, "oracle": spec})
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------- continuum

def _rational(rng, lo, hi, max_den=6):
    while True:
        q = rng.randint(1, max_den)
        v = Fraction(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)
        if lo <= v <= hi and v > 0:
            return v


# denominators of the conv-tile periods (each period lies in [1, 2]): with
# distinct primes (and 1) every subset sum of the periods is distinct, so k
# periods always give 2^k breakpoints
CONV_DENOMINATORS = (1, 2, 3, 5, 7, 11)


def _conv_tile(rng, k):
    lams = []
    for q in CONV_DENOMINATORS[:k]:
        a = rng.choice([a for a in range(q, 2 * q + 1) if q == 1 or a % q])
        lams.append(Fraction(a, q))
    rng.shuffle(lams)
    top = sum(lams)
    points = [_rational(rng, Fraction(1, 7), top, max_den=7) for _ in range(6)] + [Fraction(0), top]
    spec = {"lambdas": [algebra.fmt(v) for v in lams], "points": [algebra.fmt(p) for p in points]}
    return cli("pp1d conv-tile", spec,
               ["pp1d", "conv-tile", "--lambdas", ",".join(spec["lambdas"])])


def _step_tile(rng):
    """(steps, period, delta): a step function on a grid of width delta that
    tiles period*Z, period = q*delta, at level units/2."""
    delta = Fraction(1, rng.randint(1, 4))
    q = rng.randint(2, 6)
    length = q * rng.randint(3, 10)
    units = rng.randint(2, 6)
    values = [0] * length
    for r in range(q):
        cells = list(range(r, length, q))
        for _ in range(units):
            values[rng.choice(cells)] += 1
    steps = [(j * delta, (j + 1) * delta, Fraction(v, 2)) for j, v in enumerate(values) if v]
    return steps, q * delta, delta


def _verify(rng, tiling_period):
    steps, lam, delta = _step_tile(rng)
    if not tiling_period:
        lam = delta * rng.choice([k for k in range(2, 9) if k * delta != lam])
    doc = [{"from": algebra.fmt(lo), "to": algebra.fmt(hi), "coeffs": [algebra.fmt(v)]}
           for lo, hi, v in steps]
    spec = {"function": doc, "lam": algebra.fmt(lam)}
    return cli("pp1d verify", spec,
               ["pp1d", "verify", "--function", json.dumps(doc, separators=(",", ":")),
                "--lam", spec["lam"]])


# (p, d) choices for the small slots of many-relations (p^d about 10 to 130)
# and the fixed middle and large slots (p^d = 2197 and 29791)
MANY_RELATIONS_SMALL = ((3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (11, 2), (5, 3))
MANY_RELATIONS_FIXED = ((13, 3), (31, 3))


def _many_relations(p, d, samples):
    spec = {"p": p, "d": d, "verify_samples": samples}
    return cli("lattice many-relations", spec,
               ["lattice", "many-relations", "-p", p, "-d", d, "--verify-samples", samples])


def _random_basis(rng, d):
    while True:
        rows = [[_rational(rng, Fraction(1, 4), 4, max_den=4) if rng.random() < 0.8
                 else Fraction(0) for _ in range(d)] for _ in range(d)]
        rows = [[v if rng.random() < 0.7 else -v for v in row] for row in rows]
        if algebra.det(rows) != 0:
            return [[algebra.fmt(v) for v in row] for row in rows]


def continuum_round(rng):
    # conv-tile: two to six periods, with two slots of five
    reqs = [_conv_tile(rng, k) for k in (2, 3, 4, 5, 5, 6)]
    for _ in range(3):
        m, k = rng.randint(3, 6), rng.randint(2, 4)
        reqs.append(cli("pp1d d2c", {"m": m, "k": k}, ["pp1d", "d2c", "-m", m, "-k", k]))
    reqs += [_verify(rng, tiling_period=i % 2 == 0) for i in range(4)]
    for samples in (5, 0):
        reqs.append(_many_relations(*rng.choice(MANY_RELATIONS_SMALL), samples))
    reqs.append(_many_relations(*MANY_RELATIONS_FIXED[0], 1))
    reqs.append(_many_relations(*MANY_RELATIONS_FIXED[1], 0))
    for _ in range(4):
        basis = _random_basis(rng, rng.randint(2, 4))
        reqs.append(cli("lattice dual", {"basis": basis},
                        ["lattice", "dual", "--basis", json.dumps(basis)]))
    for _ in range(4):
        d = rng.randint(2, 4)
        b1, b2 = _random_basis(rng, d), _random_basis(rng, d)
        reqs.append(cli("lattice meet-join", {"basis1": b1, "basis2": b2},
                        ["lattice", "meet-join", "--basis1", json.dumps(b1),
                         "--basis2", json.dumps(b2)]))
    # density: N in three fixed bands up to the exact cap of 15, X = 10^6
    for N in (rng.randint(3, 6), rng.randint(9, 11), 15):
        reqs.append(cli("density multiples", {"N": N, "X": 10**6},
                        ["density", "multiples", "-N", N, "-X", 10**6]))
    for _ in range(2):
        N = rng.randint(5, 200)
        reqs.append(cli("density union-window", {"N": N},
                        ["density", "union-window", "-N", N]))
    rng.shuffle(reqs)
    return reqs


_ROUND_MAKERS = {
    "group-search": group_search_round,
    "lp-oracle": lp_oracle_round,
    "continuum": continuum_round,
}
