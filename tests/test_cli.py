import hashlib
import json
import time

from steintile import cli


def run_json(argv):
    rr = cli.run(argv)
    return rr, rr.to_json()


def test_copula_min_support():
    rr, doc = run_json(["copula", "min-support", "-m", "3", "-n", "5"])
    assert rr.exit_code == 0
    assert doc["result"]["S"] == 7
    assert doc["result"]["lower_bound"] == 6
    assert doc["result"]["nw_upper_bound"] == 7
    assert "witness" in doc["result"]


def test_pp1d_bound():
    rr, doc = run_json(["pp1d", "bound", "--alpha", "2/3"])
    assert rr.exit_code == 0
    assert doc["result"] == {"lower_bound": "4/3"}


def test_lattice_many_relations():
    rr, doc = run_json(["lattice", "many-relations", "-p", "3", "-d", "2"])
    assert rr.exit_code == 0
    assert doc["result"]["count"] == 4
    assert doc["result"]["volume"] == "3"


def test_lattice_many_relations_with_verification():
    rr, doc = run_json(["lattice", "many-relations", "-p", "3", "-d", "2",
                        "--verify-samples", "5"])
    assert rr.exit_code == 0
    assert doc["result"]["verified_multiplicity"] == 3
    assert doc["result"]["verified_points"] == 20


def test_byte_identical_output():
    argv = ["copula", "min-support", "-m", "3", "-n", "5"]
    assert cli.render(cli.run(argv)) == cli.render(cli.run(argv))
    argv = ["density", "multiples", "-N", "5", "-X", "1000"]
    assert cli.render(cli.run(argv)) == cli.render(cli.run(argv))


def test_output_is_single_sorted_json_document():
    out = cli.render(cli.run(["pp1d", "bound", "--alpha", "1/2"]))
    doc = json.loads(out)
    assert set(doc) == {"subcommand", "params", "result", "exit_code"}
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_group_min_support_and_cfd():
    rr, doc = run_json(["group", "min-support", "--orders", "3,5",
                        "--g1", "[[1,0]]", "--g2", "[[0,1]]"])
    assert rr.exit_code == 0
    assert doc["result"]["S"] == 7
    rr, doc = run_json(["group", "cfd", "--orders", "2,2",
                        "--g1", "[[1,0]]", "--g2", "[[0,1]]"])
    assert doc["result"]["domain"] == [[0, 0], [1, 1]]


def test_group_tile_check():
    fn = json.dumps({"group": [6], "values": [{"at": [x], "v": "1"} for x in range(6)]})
    rr, doc = run_json(["group", "tile-check", "--function", fn, "--gens", "[[2]]"])
    assert rr.exit_code == 0
    assert doc["result"] == {"tiles": True, "level": "3", "normalized": True}
    fn = json.dumps({"group": [4], "values": [{"at": [0], "v": "1"}]})
    rr, doc = run_json(["group", "tile-check", "--function", fn, "--gens", "[[2]]"])
    assert doc["result"]["tiles"] is False
    assert doc["result"]["witness_x"] == [0]


def test_pp1d_conv_tile_and_verify():
    rr, doc = run_json(["pp1d", "conv-tile", "--lambdas", "1,2/3"])
    assert rr.exit_code == 0
    assert doc["result"]["levels"] == {"1": "2/3", "2/3": "1"}
    assert doc["result"]["support"]["measure"] == "5/3"
    fn = json.dumps(doc["result"]["function"])
    rr2, doc2 = run_json(["pp1d", "verify", "--function", fn, "--lam", "2/3"])
    assert doc2["result"] == {"tiles": True, "level": "1"}
    rr3, doc3 = run_json(["pp1d", "verify", "--function",
                          json.dumps([{"from": "0", "to": "1", "coeffs": ["1"]}]),
                          "--lam", "2/3"])
    assert doc3["result"] == {"tiles": False, "witness": ["1/3", "2/3"]}


def test_pp1d_d2c():
    rr, doc = run_json(["pp1d", "d2c", "-m", "2", "-k", "1"])
    assert rr.exit_code == 0
    assert doc["result"]["support"]["measure"] == "4"
    assert doc["result"]["levels"] == {"2": "3", "3": "2"}


def test_copula_construct_and_table():
    rr, doc = run_json(["copula", "construct", "--family", "lmr", "-m", "2", "-k", "1"])
    assert doc["result"]["matrix"]["entries"] == [["1", "2", "0"], ["1", "0", "2"]]
    rr, doc = run_json(["copula", "construct", "--family", "nw", "-m", "4", "-n", "6"])
    assert doc["result"]["support_size"] == 8
    rr = cli.run(["--csv", "copula", "table", "--max-m", "3", "--max-n", "3"])
    assert rr.exit_code == 0
    lines = cli.render(rr).splitlines()
    assert lines[0] == "m\\n,1,2,3"
    assert lines[1] == "1,1,2,3"
    assert lines[3] == "3,3,4,3"


def test_lattice_dual_and_meet_join():
    rr, doc = run_json(["lattice", "dual", "--basis", '[["2","0"],["0","1/2"]]'])
    assert doc["result"]["dual"]["basis"] == [["1/2", "0"], ["0", "2"]]
    rr, doc = run_json(["lattice", "meet-join", "--basis1", '[["2"]]', "--basis2", '[["3"]]'])
    assert doc["result"]["sum"]["basis"] == [["1"]]
    assert doc["result"]["intersection"]["basis"] == [["6"]]
    assert doc["result"]["volumes"]["product"] == "6"


def test_density_subcommands():
    rr, doc = run_json(["density", "multiples", "-N", "3", "-X", "60"])
    assert doc["result"]["sieve_count"] == 28
    assert doc["result"]["exact_density"] == "7/15"
    rr, doc = run_json(["density", "union-window", "-N", "5"])
    assert doc["result"] == {"window": 50, "count": 24}


def test_exit_codes():
    assert cli.run(["nonsense"]).exit_code == 2
    assert cli.run(["pp1d", "bound", "--alpha", "zz"]).exit_code == 2
    assert cli.run(["pp1d", "bound", "--alpha", "3/2"]).exit_code == 2
    assert cli.run(["copula", "min-support", "-m", "9", "-n", "9"]).exit_code == 3
    assert cli.run(["density", "multiples", "-N", "3", "-X", str(10**9)]).exit_code == 3
    assert cli.run(["group", "min-support", "--orders", "0", "--g1", "[]",
                    "--g2", "[]"]).exit_code == 2


def test_error_documents_are_json():
    rr = cli.run(["pp1d", "bound", "--alpha", "zz"])
    doc = json.loads(cli.render(rr))
    assert doc["result"]["kind"] == "validation"
    rr = cli.run(["copula", "min-support", "-m", "9", "-n", "9"])
    assert json.loads(cli.render(rr))["result"]["kind"] == "cap"


def test_removed_global_flags_are_rejected():
    for flags in (["--threads", "4"], ["--json"]):
        rr = cli.run(flags + ["pp1d", "bound", "--alpha", "2/3"])
        assert rr.exit_code == 2
        assert json.loads(cli.render(rr))["result"]["kind"] == "validation"


def test_malformed_group_function_is_a_validation_error():
    for function in ('{"group":"ab","values":[]}',
                     '{"group":[4],"values":[{"at":["x"],"v":"1"}]}'):
        rr = cli.run(["group", "tile-check", "--function", function, "--gens", "[[1]]"])
        assert rr.exit_code == 2
        assert json.loads(cli.render(rr))["result"]["kind"] == "validation"


def test_construction_cap():
    for argv in (["--family", "nw", "-m", "1000", "-n", "1001"],
                 ["--family", "lmr", "-m", "1000", "-k", "1"]):
        rr = cli.run(["copula", "construct"] + argv)
        assert rr.exit_code == 3
        assert json.loads(cli.render(rr))["result"]["kind"] == "cap"


def test_pretty_and_csv_modes():
    rr = cli.run(["--pretty", "pp1d", "bound", "--alpha", "2/3"])
    assert "\n" in cli.render(rr)
    rr = cli.run(["--csv", "pp1d", "conv-tile", "--lambdas", "1,1",
                  "--samples-per-unit", "1"])
    assert cli.render(rr).splitlines()[0] == "x,value"


def test_console_entry_point(capsys):
    code = cli.main(["pp1d", "bound", "--alpha", "2/3"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["lower_bound"] == "4/3"


def test_function_argument_accepts_file(tmp_path):
    doc = {"group": [6], "values": [{"at": [x], "v": "1"} for x in range(6)]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rr, out = run_json(["group", "tile-check", "--function", str(path),
                        "--gens", "[[3]]"])
    assert rr.exit_code == 0
    assert out["result"] == {"tiles": True, "level": "2", "normalized": True}


def test_group_min_support_with_trivial_subgroups():
    rr, doc = run_json(["group", "min-support", "--orders", "4",
                        "--g1", "[]", "--g2", "[]"])
    assert rr.exit_code == 0
    assert doc["result"]["S"] == 4


def timed_run(argv):
    start = time.perf_counter()
    rr = cli.run(argv)
    return rr, time.perf_counter() - start


_W12 = ('{"group":[12,2],"values":[{"at":[0,0],"v":"4"},{"at":[0,1],"v":"4"},'
        '{"at":[2,0],"v":"2"},{"at":[2,1],"v":"2"},{"at":[5,0],"v":"2"},'
        '{"at":[5,1],"v":"2"},{"at":[7,0],"v":"4"},{"at":[7,1],"v":"4"}]}')
_Z6 = '{"group":[6],"values":[{"at":[0],"v":"2"},{"at":[1],"v":"1"},{"at":[4],"v":"1"}]}'

# (argv, document) pairs pinned byte for byte: witnesses, both tile-check
# verdicts, a cap refusal and a validation refusal.
GROUP_GOLDEN = [
    (["group", "min-support", "--orders", "12,2", "--g1", "[[2,1]]", "--g2", "[[3,0]]"],
     '{"exit_code":0,"params":{"cap":8,"g1":[[2,1]],"g2":[[3,0]],"orders":[12,2]},'
     '"result":{"S":8,"witness":' + _W12 + '},"subcommand":"group min-support"}'),
    (["group", "min-support", "--orders", "6,4", "--g1", "[[1,2]]", "--g2", "[[2,1]]"],
     '{"exit_code":0,"params":{"cap":8,"g1":[[1,2]],"g2":[[2,1]],"orders":[6,4]},'
     '"result":{"S":4,"witness":{"group":[6,4],"values":[{"at":[0,0],"v":"6"},'
     '{"at":[0,1],"v":"6"},{"at":[1,0],"v":"6"},{"at":[1,1],"v":"6"}]}},'
     '"subcommand":"group min-support"}'),
    (["group", "min-support", "--orders", "6,4", "--g1", "[[1,2]]", "--g2", "[[2,1]]",
      "--cap", "3"],
     '{"exit_code":3,"params":{},"result":{"error":"reduced subgroup orders (2,4) exceed '
     'the margin-search cap 3","kind":"cap"},"subcommand":"error"}'),
    (["group", "cfd", "--orders", "6,6", "--g1", "[[1,1]]", "--g2", "[[1,5]]"],
     '{"exit_code":0,"params":{"g1":[[1,1]],"g2":[[1,5]],"orders":[6,6]},"result":'
     '{"domain":[[0,0],[0,1],[1,3],[1,4],[2,0],[2,1]],"size":6},"subcommand":"group cfd"}'),
    (["group", "cfd", "--orders", "4,2", "--g1", "[[1,0]]", "--g2", "[[0,1]]"],
     '{"exit_code":2,"params":{},"result":{"error":"indices differ: 2 != 4",'
     '"kind":"validation"},"subcommand":"error"}'),
    (["group", "tile-check", "--function", _W12, "--gens", "[[2,1]]"],
     '{"exit_code":0,"params":{"gens":[[2,1]],"orders":[12,2]},"result":{"level":"6",'
     '"normalized":true,"tiles":true},"subcommand":"group tile-check"}'),
    (["group", "tile-check", "--function", _W12, "--gens", "[[4,0]]"],
     '{"exit_code":0,"params":{"gens":[[4,0]],"orders":[12,2]},"result":{"sum_x":"4",'
     '"sum_y":"2","tiles":false,"witness_x":[0,0],"witness_y":[1,0]},'
     '"subcommand":"group tile-check"}'),
    (["group", "tile-check", "--function", _Z6, "--gens", "[[2]]"],
     '{"exit_code":0,"params":{"gens":[[2]],"orders":[6]},"result":{"sum_x":"3",'
     '"sum_y":"1","tiles":false,"witness_x":[0],"witness_y":[1]},'
     '"subcommand":"group tile-check"}'),
]


def test_group_documents_golden():
    for argv, expected in GROUP_GOLDEN:
        assert cli.render(cli.run(argv)) == expected


def test_non_integer_json_numbers_are_refused():
    cases = [
        ["group", "tile-check", "--gens", "[[1.7]]", "--function",
         '{"group":[4.5],"values":[{"at":[0.9],"v":"1"}]}'],
        ["group", "tile-check", "--gens", "[[1]]", "--function",
         '{"group":[4],"values":[{"at":[true],"v":"1"}]}'],
        ["group", "tile-check", "--gens", "[[1.0]]", "--function",
         '{"group":[4],"values":[{"at":[1],"v":"1"}]}'],
        ["group", "min-support", "--orders", "4,2", "--g1", "[[1.5,0]]", "--g2", "[]"],
        ["group", "cfd", "--orders", "4,2", "--g1", "[[false,1]]", "--g2", "[]"],
        ["group", "tile-check", "--gens", "[]", "--function",
         '{"group":"26","values":[{"at":[1,5],"v":"1"}]}'],
        ["group", "tile-check", "--gens", "[]", "--function",
         '{"group":[2,6],"values":[{"at":"15","v":"1"}]}'],
    ]
    for argv in cases:
        rr = cli.run(argv)
        assert rr.exit_code == 2, argv
        assert json.loads(cli.render(rr))["result"]["kind"] == "validation"
    # ints and decimal-integer strings keep working
    rr, doc = run_json(["group", "tile-check", "--gens", '[["2"]]', "--function",
                        '{"group":["4"],"values":[{"at":["1"],"v":"1"},{"at":[2],"v":"1"}]}'])
    assert rr.exit_code == 0
    assert doc["params"] == {"gens": [[2]], "orders": [4]}
    assert doc["result"] == {"level": "1", "normalized": False, "tiles": True}


def test_density_multiples_window_below_moduli():
    rr, seconds = timed_run(["density", "multiples", "-N", str(10**9), "-X", "10"])
    assert rr.exit_code == 0
    assert rr.result["sieve_count"] == 0
    assert seconds < 1


def test_many_relations_cap_comes_before_primality():
    # p = 10^14 + 31 is prime; p^2 is far above the cap, so no trial division runs
    for p, d in ((10**14 + 31, 2), (10**14, 2), (2, 10**9)):
        rr, seconds = timed_run(["lattice", "many-relations", "-p", str(p), "-d", str(d)])
        assert rr.exit_code == 3, (p, d)
        assert seconds < 1
    assert cli.run(["lattice", "many-relations", "-p", "4", "-d", "2"]).exit_code == 2
    assert cli.run(["lattice", "many-relations", "-p", "3", "-d", "1"]).exit_code == 2


def test_many_relations_entry_cap_exits_3():
    # count * d^2 > 10^6 although p^d is within the 10^6 enumeration cap
    for p, d in ((2, 13), (2, 19), (3, 10), (3, 12), (5, 8), (7, 7)):
        rr, seconds = timed_run(["lattice", "many-relations", "-p", str(p), "-d", str(d)])
        assert rr.exit_code == 3, (p, d)
        assert "entry cap" in rr.result["error"]
        assert seconds < 1
    assert cli.run(["lattice", "many-relations", "-p", "2", "-d", "12"]).exit_code == 0


def test_many_relations_verify_samples_validated(monkeypatch):
    rr = cli.run(["lattice", "many-relations", "-p", "3", "-d", "2", "--verify-samples", "-4"])
    assert rr.exit_code == 2
    assert rr.result["kind"] == "validation"

    def no_family(*args, **kwargs):
        raise AssertionError("a family was built before the verify-point cap")

    monkeypatch.setattr(cli.lattice, "many_relations_family", no_family)
    # 9507 lattices x 11 samples and 4095 x 25 are above the 10^5 point cap
    for p, d, samples in ((97, 3, 11), (2, 12, 25)):
        rr = cli.run(["lattice", "many-relations", "-p", str(p), "-d", str(d),
                      "--verify-samples", str(samples)])
        assert rr.exit_code == 3, (p, d, samples)
        assert "verify-point cap" in rr.result["error"]


# sha256 prefixes of documents rendered by the cyclic-subgroup route and the
# conv-tile that folded every period twice; the current routes must match them
MANY_RELATIONS_AND_CONV_TILE_GOLDEN = [
    (["lattice", "many-relations", "-p", "31", "-d", "3"], "6f925f37d7ac0b34"),
    (["lattice", "many-relations", "-p", "13", "-d", "3", "--verify-samples", "1"],
     "2db87d8279f33bb1"),
    (["pp1d", "conv-tile", "--lambdas", "3/2,7/5,12/7,1,13/11,5/3"], "5a47c2cf8eb62c65"),
]


def test_many_relations_and_conv_tile_golden():
    for argv, prefix in MANY_RELATIONS_AND_CONV_TILE_GOLDEN:
        text = cli.render(cli.run(argv))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == prefix, argv


def test_many_relations_large_family_is_fast():
    rr, seconds = timed_run(["lattice", "many-relations", "-p", "97", "-d", "3"])
    assert rr.exit_code == 0
    assert rr.result["count"] == 97 ** 2 + 97 + 1
    assert seconds < 2


def test_copula_table_closed_form_and_cell_cap():
    rr, seconds = timed_run(["copula", "table", "--max-m", "1", "--max-n", "2000"])
    assert rr.exit_code == 0
    assert rr.result["table"][0]["values"] == list(range(1, 2001))
    assert seconds < 1
    rr = cli.run(["copula", "table", "--max-m", "1", "--max-n", str(10**7)])
    assert rr.exit_code == 3
    assert json.loads(cli.render(rr))["result"]["kind"] == "cap"


def test_deeply_nested_json_exits_2(tmp_path):
    deep = "[" * 20000 + "]" * 20000
    path = tmp_path / "deep.json"
    path.write_text(deep, encoding="utf-8")
    group = ["--orders", "4", "--g1", "[[1]]", "--g2", "[[2]]"]
    cases = [
        ["group", "tile-check", "--function", deep, "--gens", "[[1]]"],
        ["group", "tile-check", "--function", str(path), "--gens", "[[1]]"],
        ["pp1d", "verify", "--function", deep, "--lam", "1"],
        ["group", "tile-check", "--function", '{"group":[4],"values":[]}', "--gens", deep],
        ["group", "min-support"] + group[:3] + [deep] + group[4:],
        ["group", "cfd"] + group[:5] + [deep],
        ["lattice", "dual", "--basis", deep],
        ["lattice", "meet-join", "--basis1", "[[1]]", "--basis2", deep],
    ]
    for argv in cases:
        rr = cli.run(argv)
        assert rr.exit_code == 2, argv[:2]
        assert rr.result["kind"] == "validation"


def test_malformed_json_file_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    rr = cli.run(["group", "tile-check", "--function", str(path), "--gens", "[[1]]"])
    assert rr.exit_code == 2 and rr.result["kind"] == "validation"


def test_conv_tile_period_cap(monkeypatch):
    from steintile import pp1d

    def refuse(*args):
        raise AssertionError("convolved before the cap check")

    monkeypatch.setattr(pp1d, "convolve", refuse)
    lams = ",".join(["1"] * (pp1d.CONV_PERIOD_CAP + 1))
    rr = cli.run(["pp1d", "conv-tile", "--lambdas", lams])
    assert rr.exit_code == 3 and rr.result["kind"] == "cap"
    assert "9 periods" in rr.result["error"]
    # an invalid period is still a validation error, whatever the count
    rr = cli.run(["pp1d", "conv-tile", "--lambdas", lams + ",-1"])
    assert rr.exit_code == 2


def test_csv_sample_row_cap(monkeypatch):
    from steintile import pp1d
    rr = cli.run(["--csv", "pp1d", "conv-tile", "--lambdas", "1,2/3",
                  "--samples-per-unit", "100000"])
    assert rr.exit_code == 3 and rr.result["kind"] == "cap"
    assert "166667 sample rows" in rr.result["error"]
    # the row count is exact: hull [0, 2] at 4 per unit has 9 rows
    monkeypatch.setattr(pp1d, "SAMPLE_ROW_CAP", 9)
    argv = ["--csv", "pp1d", "conv-tile", "--lambdas", "1,1", "--samples-per-unit", "4"]
    assert len(cli.render(cli.run(argv)).splitlines()) == 1 + 9
    monkeypatch.setattr(pp1d, "SAMPLE_ROW_CAP", 8)
    assert cli.run(argv).exit_code == 3
    rr = cli.run(["--csv", "pp1d", "d2c", "-m", "2", "-k", "1", "--samples-per-unit", "4"])
    assert rr.exit_code == 3 and rr.result["kind"] == "cap"
