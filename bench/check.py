"""Answer checker: confirms each rendered answer from the request's own spec.

Standard library only, and it never calls steintile: every fact is recomputed
here (coset sums, determinants, lattice membership, truncated powers, sieves)
or follows from a closed form. It runs outside the timed window.

check(request, text) returns None when the answer is right and raises
CheckFailed with a reason otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import algebra


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def check(request, text):
    doc = json.loads(text)
    spec = request["spec"]
    if "oracle" in request:
        return _oracle(spec, doc)
    expect(doc.get("exit_code") == 0, f"exit code {doc.get('exit_code')}: {doc.get('result')}")
    _CHECKS[request["op"]](spec, doc["result"])
    return None


# ---------------------------------------------------------------- copula

def _margins(entries, m, n):
    mat = [[Fraction(v) for v in row] for row in entries]
    expect(len(mat) == m and all(len(row) == n for row in mat), "witness shape")
    expect(all(v >= 0 for row in mat for v in row), "negative witness entry")
    expect(all(sum(row) == n for row in mat), "a row sum differs from n")
    expect(all(sum(mat[i][j] for i in range(m)) == m for j in range(n)),
           "a column sum differs from m")
    return {(i, j) for i, row in enumerate(mat) for j, v in enumerate(row) if v != 0}


def _copula_min_support(spec, res):
    m, n = spec["m"], spec["n"]
    S = algebra.copula_min_support(m, n)
    expect(res["S"] == S, f"S({m},{n}) = {res['S']}, expected {S}")
    w = res["witness"]
    expect((w["m"], w["n"]) == (m, n), "witness dimensions")
    support = _margins(w["entries"], m, n)
    expect(len(support) == S, f"witness support {len(support)} != S = {S}")
    expect({tuple(e) for e in res["pattern"]["edges"]} == support,
           "pattern differs from the witness support")
    expect(res["nw_upper_bound"] == m + n - math.gcd(m, n), "nw_upper_bound")
    expect(res["lower_bound"] == max(m * -(-n // m), n * -(-m // n)), "lower_bound")


def _copula_construct(spec, res, family):
    mat = res["matrix"]
    m = spec["m"]
    if family == "nw":
        n, size = spec["n"], spec["m"] + spec["n"] - math.gcd(spec["m"], spec["n"])
    else:
        n, size = spec["k"] * m + 1, (spec["k"] + 1) * m
    expect((mat["m"], mat["n"]) == (m, n), "matrix dimensions")
    support = _margins(mat["entries"], m, n)
    expect(len(support) == size == res["support_size"],
           f"support {len(support)} / reported {res['support_size']}, expected {size}")


# ---------------------------------------------------------------- groups

def _coset_sums(orders, values, labels):
    label, count = labels
    sums = [Fraction(0)] * count
    for x, v in values.items():
        sums[label[x]] += v
    return sums


def _function_values(orders, items):
    values = {}
    for item in items:
        x = tuple(item["at"])
        expect(len(x) == len(orders) and all(0 <= c < d for c, d in zip(x, orders)),
               f"{x} is not a group element")
        expect(x not in values, f"{x} listed twice")
        v = Fraction(item["v"])
        expect(v > 0, f"nonpositive value at {x}")
        values[x] = v
    return values


def _min_support_checker(spec):
    """A function checking (S, witness) for the spec's group and subgroups."""
    orders = spec["orders"]
    H1, H2 = algebra.subgroup(orders, spec["g1"]), algebra.subgroup(orders, spec["g2"])
    expected = algebra.min_support_formula(math.prod(orders), H1, H2)
    labels = [(algebra.coset_labels(orders, H), len(H)) for H in (H1, H2)]

    def check_answer(S, witness):
        expect(S == expected, f"S = {S}, expected {expected}")
        expect(witness["group"] == list(orders), "witness group")
        values = _function_values(orders, witness["values"])
        expect(len(values) == S, f"witness support {len(values)} != S = {S}")
        for which, (lab, level) in zip(("first", "second"), labels):
            expect(all(s == level for s in _coset_sums(orders, values, lab)),
                   f"witness coset sums over the {which} subgroup are not all {level}")

    return check_answer


def _oracle(spec, doc):
    expect(doc["S_bruteforce"] == doc["S"],
           f"oracle S = {doc['S_bruteforce']} but pipeline S = {doc['S']}")
    check_answer = _min_support_checker(spec)
    check_answer(doc["S_bruteforce"], doc["witness_bruteforce"])
    check_answer(doc["S"], doc["witness"])


def _group_cfd(spec, res):
    orders = spec["orders"]
    H1, H2 = algebra.subgroup(orders, spec["g1"]), algebra.subgroup(orders, spec["g2"])
    index = math.prod(orders) // len(H1)
    domain = [tuple(x) for x in res["domain"]]
    expect(res["size"] == len(domain) == index, f"domain size {len(domain)} != index {index}")
    for H in (H1, H2):
        label, _ = algebra.coset_labels(orders, H)
        expect(len({label[x] for x in domain}) == index, "domain repeats a coset")


def _tile_check(spec, res):
    f = spec["function"]
    orders = f["group"]
    values = _function_values(orders, f["values"])
    H = algebra.subgroup(orders, spec["gens"])
    label, count = algebra.coset_labels(orders, H)
    sums = _coset_sums(orders, values, (label, count))
    tiles = all(s == sums[0] for s in sums)
    expect(res["tiles"] is tiles, f"verdict tiles={res['tiles']}, expected {tiles}")
    if tiles:
        expect(Fraction(res["level"]) == sums[0], "tiling level")
        expect(res["normalized"] is (sums[0] == len(H)), "normalized flag")
    else:
        sx, sy = Fraction(res["sum_x"]), Fraction(res["sum_y"])
        expect(sums[label[tuple(res["witness_x"])]] == sx, "sum at witness_x")
        expect(sums[label[tuple(res["witness_y"])]] == sy, "sum at witness_y")
        expect(sx != sy, "witness sums agree")


# ---------------------------------------------------------------- pp1d

def _conv_tile(spec, res):
    lams = [Fraction(v) for v in spec["lambdas"]]
    pieces = algebra.pieces_from_json(res["function"])
    total = math.prod(lams, start=Fraction(1))
    expect(algebra.mass(pieces) == total and Fraction(res["mass"]) == total,
           f"mass {res['mass']}, expected {algebra.fmt(total)}")
    for lam in lams:
        expect(Fraction(res["levels"][algebra.fmt(lam)]) == total / lam, f"level at {lam}")
    expect(res["support"]["hull"] == ["0", algebra.fmt(sum(lams))], "support hull")
    for p in spec["points"]:
        x = Fraction(p)
        expect(algebra.piece_value(pieces, x) == algebra.box_spline_value(lams, x),
               f"value at {p} differs from the truncated-power formula")


def _steps(pieces):
    for lo, hi, coeffs in pieces:
        expect(len(coeffs) <= 1, "expected a step function")
    return [(lo, hi, coeffs[0]) for lo, hi, coeffs in pieces if coeffs]


def _d2c(spec, res):
    m, k = spec["m"], spec["k"]
    n = k * m + 1
    # the staircase matrix moved to Z_{mn} by the Chinese remainder map
    source = {}
    for i in range(m):
        for j in [0] + list(range(1 + i * k, 1 + (i + 1) * k)):
            x = (i * n * pow(n, -1, m) + j * m * pow(m, -1, n)) % (m * n)
            source[x] = Fraction(1 if j == 0 else m)
    got = {item["at"][0]: Fraction(item["v"]) for item in res["source_values"]["values"]}
    expect(got == source, "source values differ from the staircase transfer")
    pieces = algebra.pieces_from_json(res["function"])
    for j in range(m * n):
        expect(algebra.piece_value(pieces, j + Fraction(1, 2)) == source.get(j, 0),
               f"F on [{j}, {j + 1}) differs from f({j})")
    expect(Fraction(res["mass"]) == m * n, "mass")
    expect(Fraction(res["support"]["measure"]) == (k + 1) * m, "support measure")
    for lam, level in ((m, n), (n, m)):
        cells = algebra.step_periodization(_steps(pieces), Fraction(lam))
        expect(all(v == level for _, _, v in cells), f"F does not tile {lam}Z at {level}")
        expect(Fraction(res["levels"][str(lam)]) == level, f"reported level at {lam}")


def _verify(spec, res):
    pieces = algebra.pieces_from_json(spec["function"])
    lam = Fraction(spec["lam"])
    cells = algebra.step_periodization(_steps(pieces), lam)
    v0 = cells[0][2]
    tiles = all(v == v0 for _, _, v in cells)
    expect(res["tiles"] is tiles, f"verdict tiles={res['tiles']}, expected {tiles}")
    if tiles:
        expect(Fraction(res["level"]) == v0, "level")
        return
    a, b = (Fraction(v) for v in res["witness"])
    inside = [v for lo, hi, v in cells if a <= lo and hi <= b]
    expect(inside and all(v == inside[0] for v in inside) and inside[0] != v0,
           "witness interval is not a deviating cell")
    expect(all(v == v0 for lo, hi, v in cells if hi <= a), "an earlier cell deviates")


# ---------------------------------------------------------------- lattices

def _basis(doc):
    return [[Fraction(v) for v in row] for row in doc["basis"]]


def _many_relations(spec, res):
    p, d, samples = spec["p"], spec["d"], spec["verify_samples"]
    count = (p ** d - 1) // (p - 1)
    volume = Fraction(p ** (d - 1))
    expect(res["count"] == count == len(res["lattices"]), f"count {res['count']} != {count}")
    expect(Fraction(res["volume"]) == volume, "reported volume")
    expect(len({json.dumps(L["basis"]) for L in res["lattices"]}) == count,
           "lattices repeat")
    expect(res["common_tile"]["sides"] == [str(p)] * d, "common tile")
    for L in res["lattices"]:
        B = _basis(L)
        expect(abs(algebra.det(B)) == volume, f"a lattice has volume {algebra.det(B)}")
    if samples:
        expect(res["verified_points"] == count * samples, "verified point count")
        expect(res["verified_multiplicity"] == p, "verified multiplicity")


def _dual(spec, res):
    B = [[Fraction(v) for v in row] for row in spec["basis"]]
    D = _basis(res["dual"])
    vol = abs(algebra.det(D))
    expect(vol * abs(algebra.det(B)) == 1 and Fraction(res["volume"]) == vol, "dual volume")
    for b in B:
        for w in D:
            expect(sum(x * y for x, y in zip(b, w)).denominator == 1,
                   "a dual vector pairs non-integrally with the basis")


def _meet_join(spec, res):
    B1 = [[Fraction(v) for v in row] for row in spec["basis1"]]
    B2 = [[Fraction(v) for v in row] for row in spec["basis2"]]
    S, M = _basis(res["sum"]), _basis(res["intersection"])
    vs, vm = abs(algebra.det(S)), abs(algebra.det(M))
    expect(vs * vm == abs(algebra.det(B1) * algebra.det(B2)),
           "vol(sum) * vol(meet) != vol1 * vol2")
    vols = res["volumes"]
    expect((Fraction(vols["sum"]), Fraction(vols["intersection"]), Fraction(vols["product"]))
           == (vs, vm, vs * vm), "reported volumes")
    expect(all(algebra.in_lattice(v, S) for v in B1 + B2), "sum misses an input vector")
    expect(all(algebra.in_lattice(v, B1) and algebra.in_lattice(v, B2) for v in M),
           "meet vector outside an input lattice")


# ---------------------------------------------------------------- density

def _sieve(N, X):
    hit = bytearray(X + 1)
    for q in range(N + 1, min(2 * N, X) + 1):
        hit[q::q] = b"\x01" * (X // q)
    return sum(hit)


def _density_multiples(spec, res):
    N, X = spec["N"], spec["X"]
    sieve = res["sieve_count"]
    exact = Fraction(res["exact_density"])
    expect(res["window"] == X, "window")
    expect(abs(sieve - exact * X) <= 2 ** N, "|sieve - exact * X| > 2^N")
    expect(sieve == _sieve(N, X), "sieve count")
    expect(Fraction(res["sieve_density"]) == Fraction(sieve, X), "sieve density")


def _union_window(spec, res):
    N = spec["N"]
    expect(res["window"] == 2 * N * N, "window")
    expect(res["count"] == _sieve(N, 2 * N * N), "union count")


_CHECKS = {
    "copula min-support": _copula_min_support,
    "copula construct nw": lambda s, r: _copula_construct(s, r, "nw"),
    "copula construct lmr": lambda s, r: _copula_construct(s, r, "lmr"),
    "group min-support": lambda s, r: _min_support_checker(s)(r["S"], r["witness"]),
    "group cfd": _group_cfd,
    "group tile-check": _tile_check,
    "pp1d conv-tile": _conv_tile,
    "pp1d d2c": _d2c,
    "pp1d verify": _verify,
    "lattice many-relations": _many_relations,
    "lattice dual": _dual,
    "lattice meet-join": _meet_join,
    "density multiples": _density_multiples,
    "density union-window": _union_window,
}
