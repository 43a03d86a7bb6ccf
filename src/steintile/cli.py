"""Single command-line entry point; every subcommand is a thin adapter over
the library and prints one JSON document (sorted keys, reduced rationals) so
identical invocations produce byte-identical output.

Exit codes: 0 success, 2 validation error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import copula, density, group_tiling, lattice, pp1d
from .abelian import make_group, subgroup_from_generators
from .errors import CapExceededError, ValidationError
from .rationals import format_rational, parse_rational

# bound on lattices * --verify-samples, the points many-relations checks
VERIFY_POINT_CAP = 10**5


@dataclass
class RunResult:
    subcommand: str
    params: dict
    result: dict
    exit_code: int
    csv_text: str | None = None
    pretty: bool = False

    def to_json(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "params": self.params,
            "result": self.result,
            "exit_code": self.exit_code,
        }


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit itself; raise instead
        raise ValidationError(message)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"malformed integer list {text!r}") from exc


def _parse_rational_list(text: str) -> list[Fraction]:
    return [parse_rational(v) for v in str(text).split(",") if v.strip() != ""]


def _decode_json(text: str, message: str):
    """json.loads, with malformed text and nesting too deep to decode both
    reported as invalid input."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(message) from exc


def _parse_element_list(text: str) -> list[tuple]:
    """A JSON list of lists; the group's check() validates the coordinates."""
    doc = _decode_json(text, f"malformed element list {text!r}")
    if not isinstance(doc, list) or not all(isinstance(e, list) for e in doc):
        raise ValidationError(f"malformed element list {text!r}")
    return [tuple(e) for e in doc]


def _parse_matrix(text: str) -> list[list[Fraction]]:
    doc = _decode_json(text, f"malformed matrix {text!r}")
    try:
        return [[parse_rational(v) for v in row] for row in doc]
    except TypeError as exc:
        raise ValidationError(f"malformed matrix {text!r}") from exc


def _load_json_arg(text: str):
    """Accept inline JSON or a path to a JSON file."""
    text = text.strip()
    message = f"not valid JSON or a readable file: {text[:60]!r}"
    if not text.startswith(("[", "{")) and os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return _decode_json(fh.read(), message)
    return _decode_json(text, message)


def _group_with_subgroups(args):
    G = make_group(_parse_int_list(args.orders))
    G1 = subgroup_from_generators(G, _parse_element_list(args.g1))
    G2 = subgroup_from_generators(G, _parse_element_list(args.g2))
    return G, G1, G2


def _pp_summary(f: pp1d.RationalPiecewisePoly, levels) -> dict:
    """The function, its mass and support, and its tiling level for each
    result of tiling_level_1d in levels (None where it does not tile)."""
    stats = pp1d.support_stats(f)
    return {
        "function": f.to_json(),
        "mass": format_rational(f.mass()),
        "support": {
            "measure": format_rational(stats.measure),
            "diameter": format_rational(stats.diameter),
            "hull": None if stats.hull is None else [format_rational(v) for v in stats.hull],
        },
        "levels": {
            format_rational(res.lam): (
                format_rational(res.level) if isinstance(res, pp1d.TilingLevel1D) else None)
            for res in levels},
    }


def _tiling_result_json(res) -> dict:
    if isinstance(res, group_tiling.TilingCertificate):
        return {"tiles": True, "level": format_rational(res.level),
                "normalized": res.normalized}
    return {"tiles": False,
            "witness_x": list(res.witness_x), "sum_x": format_rational(res.sum_x),
            "witness_y": list(res.witness_y), "sum_y": format_rational(res.sum_y)}


def _build_parser() -> _Parser:
    parser = _Parser(prog="steintile", description=__doc__)
    parser.add_argument("--pretty", action="store_true", help="indented JSON")
    parser.add_argument("--csv", action="store_true", help="CSV output where supported")
    sub = parser.add_subparsers(dest="command", required=True)

    cop = sub.add_parser("copula").add_subparsers(dest="action", required=True)
    p = cop.add_parser("min-support")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--cap", type=int, default=copula.DEFAULT_SEARCH_CAP)
    p = cop.add_parser("construct")
    p.add_argument("--family", choices=["lmr", "nw"], required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-k", type=int)
    p.add_argument("-n", type=int)
    p = cop.add_parser("table")
    p.add_argument("--max-m", type=int, default=7)
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--cap", type=int, default=copula.DEFAULT_SEARCH_CAP)

    grp = sub.add_parser("group").add_subparsers(dest="action", required=True)
    for name in ("min-support", "cfd"):
        p = grp.add_parser(name)
        p.add_argument("--orders", required=True)
        p.add_argument("--g1", required=True)
        p.add_argument("--g2", required=True)
        if name == "min-support":
            p.add_argument("--cap", type=int, default=copula.DEFAULT_SEARCH_CAP)
    p = grp.add_parser("tile-check")
    p.add_argument("--function", required=True, help="GroupFunction JSON or file")
    p.add_argument("--gens", required=True, help="subgroup generators, e.g. [[2,0]]")

    pp = sub.add_parser("pp1d").add_subparsers(dest="action", required=True)
    p = pp.add_parser("conv-tile")
    p.add_argument("--lambdas", required=True, help="comma-separated periods, e.g. 1,2/3")
    p.add_argument("--samples-per-unit", type=int, default=16)
    p = pp.add_parser("d2c")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-k", type=int)
    p.add_argument("-n", type=int)
    p.add_argument("--function", help="GroupFunction JSON or file (default: staircase build)")
    p.add_argument("--samples-per-unit", type=int, default=16)
    p = pp.add_parser("verify")
    p.add_argument("--function", required=True, help="piecewise-polynomial JSON or file")
    p.add_argument("--lam", required=True)
    p = pp.add_parser("bound")
    p.add_argument("--alpha", required=True)

    lt = sub.add_parser("lattice").add_subparsers(dest="action", required=True)
    p = lt.add_parser("many-relations")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--verify-samples", type=int, default=0)
    p = lt.add_parser("dual")
    p.add_argument("--basis", required=True)
    p = lt.add_parser("meet-join")
    p.add_argument("--basis1", required=True)
    p.add_argument("--basis2", required=True)

    dn = sub.add_parser("density").add_subparsers(dest="action", required=True)
    p = dn.add_parser("multiples")
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-X", type=int, default=10**6)
    p = dn.add_parser("union-window")
    p.add_argument("-N", type=int, required=True)

    rp = sub.add_parser("repro").add_subparsers(dest="action", required=True)
    p = rp.add_parser("all")
    p.add_argument("--out", default="repro_report")

    return parser


def _dispatch(args) -> tuple[dict, dict, str | None]:
    """Returns (params, result, csv_text)."""
    cmd, act = args.command, args.action

    if cmd == "copula" and act == "min-support":
        res = copula.min_support_exact(args.m, args.n, cap=args.cap)
        params = {"m": args.m, "n": args.n, "cap": args.cap}
        result = {
            "S": res.S,
            "pattern": res.pattern.to_json(),
            "witness": res.witness.to_json(),
            "lower_bound": copula.support_lower_bound(args.m, args.n),
            "nw_upper_bound": args.m + args.n - math.gcd(args.m, args.n),
        }
        return params, result, res.witness.to_csv() if args.csv else None

    if cmd == "copula" and act == "construct":
        if args.family == "lmr":
            if args.k is None:
                raise ValidationError("construct --family lmr needs -k")
            mat = copula.construct_lmr(args.m, args.k)
            params = {"family": "lmr", "m": args.m, "k": args.k}
        else:
            if args.n is None:
                raise ValidationError("construct --family nw needs -n")
            mat = copula.construct_nw_blocks(args.m, args.n)
            params = {"family": "nw", "m": args.m, "n": args.n}
        result = {"matrix": mat.to_json(), "support_size": mat.support_size}
        return params, result, mat.to_csv() if args.csv else None

    if cmd == "copula" and act == "table":
        grid = copula.min_support_grid(range(1, args.max_m + 1),
                                       range(1, args.max_n + 1), cap=args.cap)
        params = {"max_m": args.max_m, "max_n": args.max_n, "cap": args.cap}
        rows = [{"m": m, "values": [grid[(m, n)] for n in range(1, args.max_n + 1)]}
                for m in range(1, args.max_m + 1)]
        result = {"table": rows}
        if args.csv:
            header = "m\\n," + ",".join(str(n) for n in range(1, args.max_n + 1))
            lines = [header] + [
                f"{m}," + ",".join(str(grid[(m, n)]) for n in range(1, args.max_n + 1))
                for m in range(1, args.max_m + 1)]
            return params, result, "\n".join(lines)
        return params, result, None

    if cmd == "group" and act == "min-support":
        G, G1, G2 = _group_with_subgroups(args)
        res = group_tiling.min_support(G, G1, G2, copula_cap=args.cap)
        params = {"orders": list(G.orders), "g1": [list(g) for g in G1.generators],
                  "g2": [list(g) for g in G2.generators], "cap": args.cap}
        return params, {"S": res.S, "witness": res.witness.to_json()}, None

    if cmd == "group" and act == "tile-check":
        f = group_tiling.GroupFunction.from_json(_load_json_arg(args.function))
        H = subgroup_from_generators(f.group, _parse_element_list(args.gens))
        res = group_tiling.tiling_level(f, H)
        params = {"gens": [list(g) for g in H.generators],
                  "orders": list(f.group.orders)}
        return params, _tiling_result_json(res), None

    if cmd == "group" and act == "cfd":
        G, G1, G2 = _group_with_subgroups(args)
        domain = group_tiling.common_fundamental_domain(G, G1, G2)
        params = {"orders": list(G.orders), "g1": [list(g) for g in G1.generators],
                  "g2": [list(g) for g in G2.generators]}
        return params, {"domain": [list(x) for x in domain], "size": len(domain)}, None

    if cmd == "pp1d" and act == "conv-tile":
        lams = _parse_rational_list(args.lambdas)
        f, levels = pp1d.convolution_tile(lams)
        params = {"lambdas": [format_rational(v) for v in lams]}
        return params, _pp_summary(f, levels), (
            pp1d.sample_csv(f, args.samples_per_unit) if args.csv else None)

    if cmd == "pp1d" and act == "d2c":
        if args.function is not None:
            if args.n is None:
                raise ValidationError("d2c with --function needs -n")
            f = group_tiling.GroupFunction.from_json(_load_json_arg(args.function))
            m, n = args.m, args.n
            params = {"m": m, "n": n, "source": "function"}
        else:
            if args.k is None:
                raise ValidationError("d2c needs -k (staircase build) or --function")
            m, n = args.m, args.k * args.m + 1
            f = group_tiling.matrix_as_cyclic_tile(copula.construct_lmr(args.m, args.k))
            params = {"m": m, "k": args.k, "n": n, "source": "staircase"}
        F = group_tiling.discrete_to_continuous(f, m, n)
        out = _pp_summary(F, [pp1d.tiling_level_1d(F, m), pp1d.tiling_level_1d(F, n)])
        out["source_values"] = f.to_json()
        return params, out, (pp1d.sample_csv(F, args.samples_per_unit) if args.csv else None)

    if cmd == "pp1d" and act == "verify":
        f = pp1d.RationalPiecewisePoly.from_json(_load_json_arg(args.function))
        lam = parse_rational(args.lam)
        res = pp1d.tiling_level_1d(f, lam)
        params = {"lam": format_rational(lam)}
        if isinstance(res, pp1d.TilingLevel1D):
            return params, {"tiles": True, "level": format_rational(res.level)}, None
        return params, {"tiles": False,
                        "witness": [format_rational(v) for v in res.interval]}, None

    if cmd == "pp1d" and act == "bound":
        alpha = parse_rational(args.alpha)
        params = {"alpha": format_rational(alpha)}
        return params, {"lower_bound": format_rational(pp1d.steinhaus_lb(alpha))}, None

    if cmd == "lattice" and act == "many-relations":
        if args.verify_samples < 0:
            raise ValidationError(f"--verify-samples must be >= 0, got {args.verify_samples}")
        count = lattice.many_relations_count(args.p, args.d)
        if count * args.verify_samples > VERIFY_POINT_CAP:
            raise CapExceededError(
                f"{count} lattices x {args.verify_samples} samples exceed "
                f"verify-point cap {VERIFY_POINT_CAP}")
        fam = lattice.many_relations_family(args.p, args.d)
        params = {"p": args.p, "d": args.d, "verify_samples": args.verify_samples}
        result = {
            "count": fam.count,
            "volume": format_rational(fam.lattices[0].volume),
            "common_tile": fam.common_tile.to_json(),
            "lattices": [L.to_json() for L in fam.lattices],
            "scaled": {
                "count": fam.scaled.count,
                "volume": format_rational(fam.scaled.scaled_volume),
                "tile_diameter_squared": (
                    None if fam.scaled.tile_diameter_squared is None
                    else format_rational(fam.scaled.tile_diameter_squared)),
                "tile_diameter_squared_symbolic": list(
                    fam.scaled.tile_diameter_squared_symbolic),
            },
        }
        if args.verify_samples > 0:
            import random
            rng = random.Random(20240901)
            checked = 0
            for L in fam.lattices:
                for _ in range(args.verify_samples):
                    x = [Fraction(rng.randrange(-8 * args.p, 8 * args.p),
                                  rng.randrange(1, 7)) for _ in range(args.d)]
                    if lattice.box_tiling_multiplicity(L, fam.common_tile, x) != args.p:
                        raise ValidationError(f"multiplicity check failed at {x}")
                    checked += 1
            result["verified_multiplicity"] = args.p
            result["verified_points"] = checked
        return params, result, None

    if cmd == "lattice" and act == "dual":
        L = lattice.make_lattice(_parse_matrix(args.basis))
        D = lattice.dual(L)
        params = {"basis": L.to_json()["basis"]}
        return params, {"dual": D.to_json(), "volume": format_rational(D.volume)}, None

    if cmd == "lattice" and act == "meet-join":
        L1 = lattice.make_lattice(_parse_matrix(args.basis1))
        L2 = lattice.make_lattice(_parse_matrix(args.basis2))
        pair = lattice.sum_and_intersection(L1, L2)
        params = {"basis1": L1.to_json()["basis"], "basis2": L2.to_json()["basis"]}
        return params, {
            "sum": pair.sum.to_json(),
            "intersection": pair.intersection.to_json(),
            "volumes": {
                "sum": format_rational(pair.sum.volume),
                "intersection": format_rational(pair.intersection.volume),
                "product": format_rational(pair.sum.volume * pair.intersection.volume),
            },
        }, None

    if cmd == "density" and act == "multiples":
        rep = density.density_report(args.N, args.X)
        return {"N": args.N, "X": args.X}, rep.to_json(), None

    if cmd == "density" and act == "union-window":
        count = density.union_count_window(args.N)
        return {"N": args.N}, {"window": 2 * args.N * args.N, "count": count}, None

    if cmd == "repro" and act == "all":
        from . import repro  # deferred: repro drives the CLI for one criterion
        summary = repro.run_all(args.out)
        return {"out": args.out}, summary, None

    raise ValidationError(f"unknown subcommand {cmd} {act}")  # pragma: no cover


def run(argv) -> RunResult:
    """Parse argv, execute, and return the structured result (nothing printed)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        params, result, csv_text = _dispatch(args)
        return RunResult(f"{args.command} {args.action}", params, result, 0,
                         csv_text=csv_text, pretty=args.pretty)
    except ValidationError as exc:
        return RunResult("error", {}, {"error": str(exc), "kind": "validation"}, 2)
    except CapExceededError as exc:
        return RunResult("error", {}, {"error": str(exc), "kind": "cap"}, 3)


def render(rr: RunResult) -> str:
    if rr.csv_text is not None:
        return rr.csv_text
    if rr.pretty:
        return json.dumps(rr.to_json(), sort_keys=True, indent=2)
    return json.dumps(rr.to_json(), sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    rr = run(sys.argv[1:] if argv is None else argv)
    print(render(rr))
    return rr.exit_code


if __name__ == "__main__":
    sys.exit(main())
