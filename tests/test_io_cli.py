import hashlib
import json
import time
from fractions import Fraction as F

import pytest

from randomhorizon import cli
from randomhorizon.errors import InvalidProbabilities, InvalidScenario
from randomhorizon.io import (
    dump_json,
    format_fraction,
    load_builtin,
    parse_fraction,
    parse_scenario,
    serialize_scenario,
)
from randomhorizon.rational import Q


def _ex1_doc():
    return json.loads(
        dump_json(serialize_scenario(load_builtin("ex1")))
    )


def test_fraction_round_trip():
    assert format_fraction(F(-1)) == "-1"
    assert format_fraction(F(3, 4)) == "3/4"
    assert parse_fraction("3") == F(3)
    assert parse_fraction("3/1") == F(3)
    assert parse_fraction(-2) == F(-2)
    with pytest.raises(InvalidScenario):
        parse_fraction("x/y")


def test_scenario_round_trip():
    sc = load_builtin("ex1")
    doc = serialize_scenario(sc)
    again = parse_scenario(doc)
    assert serialize_scenario(again) == doc
    assert again.space == sc.space
    assert again.tau.values == sc.tau.values
    assert again.price.values == sc.price.values


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda d: d.pop("tau"), "schema"),
        (lambda d: d["probs"].__setitem__(0, "1/3"), "probabilities"),
        (lambda d: d["filtration"].__setitem__(2, [["a", "c"], ["b", "d"]]), "filtration"),
        (lambda d: d["S"]["values"]["a"].__setitem__(1, ["7"]), "adaptedness"),
        (lambda d: d["tau"].__setitem__("a", "soon"), "schema"),
        (lambda d: d["S"]["values"]["a"].__setitem__(0, ["1", "2"]), "schema"),
    ],
)
def test_scenario_error_codes(mutate, code):
    doc = _ex1_doc()
    mutate(doc)
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(doc)
    assert err.value.code == code
    assert err.value.location


@pytest.mark.parametrize(
    "mutate, code, location",
    [
        (lambda d: d["atoms"].__setitem__(1, "a"), "schema", "$.atoms"),
        (lambda d: d["probs"].append("1/4"), "probabilities", "$.probs"),
        (lambda d: d["probs"].__setitem__(0, "0"), "probabilities", "$.probs"),
        (lambda d: d["probs"].__setitem__(0, "-1/4"), "probabilities", "$.probs"),
        (lambda d: d["probs"].__setitem__(0, "1/3"), "probabilities", "$.probs"),
    ],
    ids=["duplicate-atom", "probability-count", "zero-probability", "negative-probability", "sum-not-one"],
)
def test_space_errors_map_to_codes_by_type(mutate, code, location, capsys, tmp_path):
    doc = _ex1_doc()
    mutate(doc)
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(doc)
    assert (err.value.code, err.value.location) == (code, location)
    assert isinstance(err.value.__cause__, ValueError)
    assert isinstance(err.value.__cause__, InvalidProbabilities) == (code == "probabilities")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, _, err_text = _run(["inspect", str(path)], capsys)
    assert rc == 1
    assert json.loads(err_text)["error"] == code


@pytest.mark.parametrize(
    "mutate, location",
    [
        (lambda d: d.__setitem__("probs", 5), "$.probs"),
        (lambda d: d.__setitem__("probs", None), "$.probs"),
        (lambda d: d["filtration"][1][0].__setitem__(0, ["a"]), "$.filtration[1][0]"),
        (lambda d: d["filtration"][2][3].__setitem__(0, {"d": 1}), "$.filtration[2][3]"),
    ],
    ids=["probs-int", "probs-null", "nested-list-in-block", "object-in-block"],
)
def test_malformed_containers_are_schema_errors(mutate, location, capsys, tmp_path):
    doc = _ex1_doc()
    mutate(doc)
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(doc)
    assert (err.value.code, err.value.location) == ("schema", location)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, _, err_text = _run(["inspect", str(path)], capsys)
    assert rc == 1
    assert json.loads(err_text)["error"] == "schema"


@pytest.mark.parametrize(
    "command, time_0",
    [("inspect", None), ("certify", None), ("inspect", []), ("inspect", [["a"]]), ("inspect", [["a", "b", "c"]])],
    ids=["inspect", "certify", "empty-time-0", "a-time-0", "abc-time-0"],
)
def test_filtration_must_cover_every_atom(command, time_0, capsys, tmp_path):
    # time_0 None drops atom d from every date; an empty or short F_0 alone
    # is reported the same way, not as an atom index of a later date
    doc = _ex1_doc()
    if time_0 is None:
        doc["filtration"] = [
            [[a for a in block if a != "d"] for block in blocks if block != ["d"]]
            for blocks in doc["filtration"]
        ]
    else:
        doc["filtration"][0] = time_0
    message = "the partition at time 0 does not cover every atom of the space"
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(doc)
    assert (err.value.code, err.value.location, err.value.reason) == (
        "filtration", "$.filtration", message
    )
    path = tmp_path / "uncovered.json"
    path.write_text(json.dumps(doc))
    rc, out, err_text = _run([command, str(path)], capsys)
    assert (rc, out) == (1, "")
    assert json.loads(err_text) == {
        "error": "filtration", "location": "$.filtration", "message": message
    }


def test_a_repeated_atom_reports_the_date_of_its_partition(capsys, tmp_path):
    # the parser reports a bad filtration at ``$.filtration`` alone, so the
    # message names the date; ["a", "a", "b"] lists atom a twice in one block
    doc = _ex1_doc()
    doc["filtration"][1] = [["a", "a", "b"], ["c", "d"]]
    message = "atom index 0 appears in two blocks of the partition at time 1"
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(doc)
    assert (err.value.code, err.value.location, err.value.reason) == (
        "filtration", "$.filtration", message
    )
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    rc, out, err_text = _run(["inspect", str(path)], capsys)
    assert (rc, out) == (1, "")
    assert json.loads(err_text) == {
        "error": "filtration", "location": "$.filtration", "message": message
    }


@pytest.mark.parametrize("cell", ["1e99999999", "-3e-4000000", "1e4000000", "2E+4300"])
def test_huge_exponents_are_rejected_quickly(cell, capsys, tmp_path):
    # Fraction("1e4000000") builds a 4-million-digit integer (seconds of
    # work for a 9-byte cell); an exponent whose power of ten exceeds the
    # digit limit int() applies to decimal strings is a schema error
    doc = _ex1_doc()
    doc["S"]["values"]["a"][2] = [cell]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(doc)
    rc, out, err_text = _run(["inspect", str(path)], capsys)
    assert time.perf_counter() - start < 0.5
    assert (err.value.code, err.value.location) == ("schema", "$.S.values.a[2]")
    assert (rc, out) == (1, "")
    assert json.loads(err_text)["error"] == "schema"


def test_exponents_within_the_digit_limit_still_parse():
    assert parse_fraction("1.5e3") == F(1500)
    assert parse_fraction("-3e-2") == F(-3, 100)
    assert parse_fraction("1e4299") == F(10**4299)
    assert parse_fraction("9e4298") == F(9 * 10**4298)


@pytest.mark.parametrize(
    "cell", ["99e4299", "-99e4299", "0." + "0" * 4299 + "1"], ids=["exponent", "negative", "decimal"]
)
def test_unprintable_rationals_are_schema_errors(cell, capsys, tmp_path):
    # within the exponent limit, but a numerator or denominator of 4301
    # digits cannot be printed back by str(), so it never reaches a report
    doc = _ex1_doc()
    doc["S"]["values"]["a"][2] = [cell]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    rc, out, err_text = _run(["certify", str(path)], capsys)
    assert (rc, out) == (1, "")
    err = json.loads(err_text)
    assert (err["error"], err["location"]) == ("schema", "$.S.values.a[2]")


def test_longest_printable_rational_is_certified(capsys, tmp_path):
    doc = _ex1_doc()
    doc["S"]["values"]["a"][2] = ["9e4298"]
    doc["S"]["values"]["b"][2] = ["9e4298"]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = _run(["certify", str(path)], capsys)
    assert rc == 0 and json.loads(out)


def _digits_value(text):
    # the int a decimal string names, read in chunks that int() accepts
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for k in range(0, len(digits), 1000):
        chunk = digits[k : k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_fractions_past_the_digit_limit_print_exactly():
    # str() refuses an int of more than 4300 digits; format_fraction prints
    # every digit, so a value grown by arithmetic past the limit still prints
    big = 10**9000 + 123456789 * 10**4500 + 7
    cases = [F(big), F(-big), F(big, 10**4400 + 3), F(1, big), F(-(10**4300), 1)]
    for x in cases:
        text = format_fraction(x)
        num, _, den = text.partition("/")
        assert F(_digits_value(num), _digits_value(den or "1")) == x
        assert not num.lstrip("-").startswith("0") and not den.startswith("0")
    assert len(format_fraction(F(big))) == 9001


def test_certificate_weights_past_the_digit_limit_are_printed(capsys, tmp_path):
    # every input rational is within the parser's limit, but the node
    # weights of the certificate grow past it
    A, B = 10**4000 + 7, 10**4000 + 13
    doc = {
        "atoms": ["a", "b", "c"],
        "probs": ["1/3", "1/3", "1/3"],
        "horizon": 1,
        "filtration": [[["a", "b", "c"]], [["a"], ["b"], ["c"]]],
        "tau": {"a": "inf", "b": "inf", "c": "inf"},
        "S": {
            "dim": 2,
            "values": {
                "a": [["0", "0"], [str(A), "1"]],
                "b": [["0", "0"], ["-1", str(B)]],
                "c": [["0", "0"], [str(-B), str(-A)]],
            },
        },
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    rc, out, err = _run(["certify", str(path)], capsys)
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert report["nupbr_F"] is True
    (node,) = report["witness_F"]["deflator_weights"]
    weights = [
        F(_digits_value(w.partition("/")[0]), _digits_value(w.partition("/")[2] or "1"))
        for w in node["weights"]
    ]
    assert sum(weights) == 1 and max(len(w) for w in node["weights"]) > 4300


def _run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def _scenario_path(name):
    from importlib import resources

    return str(resources.files("randomhorizon.scenarios").joinpath(f"{name}.json"))


def test_cli_certify_ex1(capsys):
    rc, out, _ = _run(["certify", _scenario_path("ex1")], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["nupbr_F"] is True
    assert doc["nupbr_G_stopped"] is False
    assert doc["arbitrage_node"] == {"time": 2, "block": ["b"], "theta": ["-1"]}


def test_cli_certify_ex2(capsys):
    rc, out, _ = _run(["certify", _scenario_path("ex2")], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["nupbr_F"] is True and doc["nupbr_G_stopped"] is True
    assert "arbitrage_node" not in doc


def test_cli_inspect(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    rc, out, _ = _run(
        ["inspect", _scenario_path("ex1"), "--out", str(out_dir)], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["Z"]["a"] == ["1", "1/2", "0"]
    assert doc["thin_set"] == [["a", 2], ["c", 2]]
    assert (out_dir / "inspect.json").exists()
    assert (out_dir / "inspect_table.csv").exists()


def test_cli_theorems(capsys):
    for name in ("ex1", "ex2"):
        rc, out, _ = _run(["theorems", _scenario_path(name), "--battery", "20"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["consistent"] is True


def test_cli_witness(capsys):
    rc, out, _ = _run(["witness", _scenario_path("ex1")], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["thin_set_empty"] is False
    assert doc["witness"]["time"] == 2
    assert doc["witness"]["stopped_satisfies_nupbr"] is False
    rc, out, _ = _run(["witness", _scenario_path("ex2")], capsys)
    assert rc == 0
    assert json.loads(out) == {"thin_set_empty": True, "witness": None}


def test_witness_and_theorems_agree_on_the_collapse_witness():
    from randomhorizon.generator import random_instance

    witnessed = 0
    for sc in [load_builtin("ex1")] + [random_instance(seed) for seed in range(100)]:
        witness = cli.witness_report(sc)["witness"]
        pres = cli.theorems_report(sc, battery=0)["preservation"]
        assert pres["thin_set_empty"] is (witness is None)
        if witness is not None:
            witnessed += 1
            assert witness["time"] == pres["witness_time"]
            assert witness["stopped_satisfies_nupbr"] is not pres["witness_fails_enlarged"]
    assert witnessed > 1


def test_cli_campaign_empty(capsys):
    rc, out, _ = _run(["campaign", "--instances", "0", "--seed", "1"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["per_instance"] == [] and doc["violations_total"] == 0


def test_cli_campaign_deterministic(capsys, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        rc, _, _ = _run(
            [
                "campaign",
                "--instances",
                "3",
                "--seed",
                "11",
                "--battery",
                "10",
                "--out",
                str(d),
            ],
            capsys,
        )
        assert rc == 0
    assert (d1 / "campaign.json").read_bytes() == (d2 / "campaign.json").read_bytes()
    assert (d1 / "campaign_instances.csv").read_bytes() == (
        d2 / "campaign_instances.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["theorems", "ex2", "--battery", "-3"],
        ["campaign", "--instances", "2", "--battery", "-2"],
    ],
)
def test_negative_battery_exits_1_before_any_work(argv, capsys, monkeypatch):
    called = []
    monkeypatch.setattr(cli, "theorem_suite", lambda *a, **k: called.append(a))
    monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: called.append(a))
    argv = [_scenario_path(a) if a == "ex2" else a for a in argv]
    rc, out, err = _run(argv, capsys)
    assert (rc, out, called) == (1, "", [])
    doc = json.loads(err)
    assert (doc["error"], doc["location"]) == ("schema", "--battery")


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", "9" * 5000])
def test_bad_jobs_variable_exits_1(value, capsys, monkeypatch):
    monkeypatch.setenv("RANDOMHORIZON_JOBS", value)
    rc, out, err = _run(["campaign", "--instances", "2", "--battery", "1"], capsys)
    assert (rc, out) == (1, "")
    doc = json.loads(err)
    assert (doc["error"], doc["location"]) == ("schema", "RANDOMHORIZON_JOBS")


def test_inspect_builds_no_enlargement(monkeypatch):
    from randomhorizon import enlargement

    def refuse(*args):
        raise RuntimeError("inspect must not build the enlargement")

    monkeypatch.setattr(enlargement, "enlarge", refuse)
    doc = cli.inspect_report(load_builtin("ex1"))
    assert doc["thin_set"] == [["a", 2], ["c", 2]]


def test_cli_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"atoms": ["a"]}')
    rc, _, err = _run(["certify", str(bad)], capsys)
    assert rc == 1
    doc = json.loads(err)
    assert doc["error"] == "schema"
    rc, _, err = _run(["certify", str(tmp_path / "missing.json")], capsys)
    assert rc == 1


def _unreadable(tmp_path, kind):
    if kind == "directory":
        return tmp_path
    path = tmp_path / "scenario.json"
    if kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{\x00}\x00")
    else:  # an integer literal past the digit limit of int()
        path.write_text('{"horizon": ' + "1" * 5000 + "}")
    return path


@pytest.mark.parametrize(
    "kind, code", [("directory", "io"), ("not-utf8", "schema"), ("huge-integer", "schema")]
)
@pytest.mark.parametrize("command", ["inspect", "certify"])
def test_unreadable_scenario_files_exit_1(kind, code, command, capsys, tmp_path):
    rc, out, err = _run([command, str(_unreadable(tmp_path, kind))], capsys)
    assert (rc, out) == (1, "")
    doc = json.loads(err)
    assert doc["error"] == code
    assert "traceback" not in doc


def test_cli_mc_smoke(capsys, tmp_path):
    out_dir = tmp_path / "mc"
    rc, out, _ = _run(
        [
            "mc",
            "--model",
            "CAT-0",
            "--paths",
            "2000",
            "--dt",
            "0.005",
            "--seed",
            "3",
            "--out",
            str(out_dir),
        ],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["estimates"]) == 3
    assert (out_dir / "mc_checkpoints.csv").exists()


def test_cli_theorems_precondition_branch(capsys, tmp_path):
    # a drifting price violates the base-NUPBR precondition of the
    # masked-increment theorem; the report flags it instead of guessing
    doc = _ex1_doc()
    doc["S"]["values"] = {
        "a": [["0"], ["1"], ["2"]],
        "b": [["0"], ["1"], ["2"]],
        "c": [["0"], ["1"], ["2"]],
        "d": [["0"], ["1"], ["2"]],
    }
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = _run(["theorems", str(path), "--battery", "5"], capsys)
    report = json.loads(out)
    assert report["masked_criterion"] == {"precondition_failed": True}
    # the G-martingale part needs an F-martingale price: not applicable here,
    # and an input outside a theorem's hypotheses is no violation
    assert report["projection_identities"]["martingale_part"] is None
    assert report["consistent"] is True
    assert rc == 0


def test_cli_theorems_deflator_check_needs_a_martingale_price(capsys, tmp_path):
    # ex2 with a's last price raised to 3: NUPBR holds in F and stopped in G,
    # but the price drifts, and the deflator is built for F-martingales, so
    # its check on the stopped price is not applicable
    doc = json.loads(dump_json(serialize_scenario(load_builtin("ex2"))))
    doc["S"]["values"]["a"] = [["0"], ["1"], ["3"]]
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = _run(["certify", str(path)], capsys)
    assert rc == 0 and json.loads(out)["nupbr_G_stopped"] is True
    rc, out, _ = _run(["theorems", str(path), "--battery", "5"], capsys)
    report = json.loads(out)
    assert report["preservation"]["thin_set_empty"] is True
    assert report["deflator"]["deflates_stopped_price"] is None
    assert report["consistent"] is True
    assert rc == 0


def test_cli_theorems_violation_exits_2(capsys, monkeypatch):
    suite = cli.theorem_suite

    def violated(sc, battery, seed):
        bundle, sections, _ = suite(sc, battery, seed)
        return bundle, sections, ["preservation"]

    monkeypatch.setattr(cli, "theorem_suite", violated)
    rc, out, _ = _run(["theorems", _scenario_path("ex2"), "--battery", "5"], capsys)
    assert rc == 2
    assert json.loads(out)["consistent"] is False


@pytest.mark.parametrize(
    "mutate, location",
    [
        (lambda d: d["tau"].__setitem__("a", True), "$.tau.a"),
        (lambda d: d["probs"].__setitem__(0, True), "$.probs[0]"),
        (lambda d: d.__setitem__("horizon", True), "$.horizon"),
    ],
)
def test_json_booleans_are_not_integers(mutate, location, capsys, tmp_path):
    doc = _ex1_doc()
    mutate(doc)
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(doc)
    assert (err.value.code, err.value.location) == ("schema", location)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    rc, _, err_text = _run(["inspect", str(path)], capsys)
    assert rc == 1
    assert json.loads(err_text)["error"] == "schema"


def test_cli_internal_error_exits_3(capsys, monkeypatch):
    def broken(sc):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "inspect_report", broken)
    rc, out, err = _run(["inspect", _scenario_path("ex1")], capsys)
    assert rc == 3
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "internal"
    assert "KeyError" in doc["message"]
    assert "broken" in doc["traceback"]


# sha256 of stdout for each command on the shipped fixtures; the reports
# are byte-identical across engine rewrites
CLI_STDOUT_SHA256 = {
    ("inspect", "ex1"): "a92ea13c6edf34b3178d0727f2e74620fcc866b6dcca59366fb5e3e588a29b5a",
    ("inspect", "ex2"): "55a77f6d74b9d4b890d29cde4e045115d1fecc07ba2cfc99334a53e032e99213",
    ("certify", "ex1"): "0b29ad0c035dc5aaa69839d3fb9303ad190cb0d78995b8359070a81bb2f4b121",
    ("certify", "ex2"): "e93cd8e90b1fedfcd99dd3e44b67e950aab60187760bea8e4157b1f5b39286d5",
    ("theorems", "ex1"): "cf4f8d7cea6ea35e60014f2372c07208aacc33f199f5a15577decf81372a08ac",
    ("theorems", "ex2"): "2496d15751d8e4c66b53d1bab5642d502ca0c9e1bc55c4109206841de4933eff",
    ("witness", "ex1"): "245500ee98d7d021e208d82e9238d640c37a687a2448c4f8585495ce485e399d",
    ("witness", "ex2"): "e2575a85259fac883571f3b6af420163aca03c1d3f955301986db06168db7d85",
}


@pytest.mark.parametrize("command, name", sorted(CLI_STDOUT_SHA256))
def test_cli_stdout_bytes_pinned(command, name, capsys):
    rc, out, _ = _run([command, _scenario_path(name)], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_STDOUT_SHA256[(command, name)]


# sha256 of every --out file for each command on the shipped fixtures; the
# CSV tables are built from the printed report alone
CLI_OUT_FILES_SHA256 = {
    ("certify", "ex1"): {
        "certify.json": "0b29ad0c035dc5aaa69839d3fb9303ad190cb0d78995b8359070a81bb2f4b121",
        "certify_nodes.csv": "d8daf9bf600a015923ce5d0bfa24845158934bbecade61a8da05d33cc178dee7",
    },
    ("certify", "ex2"): {
        "certify.json": "e93cd8e90b1fedfcd99dd3e44b67e950aab60187760bea8e4157b1f5b39286d5",
        "certify_nodes.csv": "c64de5d0ebda2674171f4718c4ba357aa964ae97158477a7067a56347d61d2b1",
    },
    ("inspect", "ex1"): {
        "inspect.json": "a92ea13c6edf34b3178d0727f2e74620fcc866b6dcca59366fb5e3e588a29b5a",
        "inspect_table.csv": "a46a6478ac2df0c2ec90f72ad92402edc890f29b36e02b3f25902643c3f649d2",
    },
    ("inspect", "ex2"): {
        "inspect.json": "55a77f6d74b9d4b890d29cde4e045115d1fecc07ba2cfc99334a53e032e99213",
        "inspect_table.csv": "04cb7f64e5888ab18f04bad4e96e6620f4ae3aae93bbc1f9d5cadf8873e06c21",
    },
    ("theorems", "ex1"): {
        "theorems.json": "cf4f8d7cea6ea35e60014f2372c07208aacc33f199f5a15577decf81372a08ac",
        "theorems_summary.csv": "2f6c5282b26954eb0c7ae9592f9cbe3fe9dcd63f2e7a7ca5c4354f3a3c0ce6e1",
    },
    ("theorems", "ex2"): {
        "theorems.json": "2496d15751d8e4c66b53d1bab5642d502ca0c9e1bc55c4109206841de4933eff",
        "theorems_summary.csv": "2f6c5282b26954eb0c7ae9592f9cbe3fe9dcd63f2e7a7ca5c4354f3a3c0ce6e1",
    },
    ("witness", "ex1"): {
        "witness.json": "245500ee98d7d021e208d82e9238d640c37a687a2448c4f8585495ce485e399d",
    },
    ("witness", "ex2"): {
        "witness.json": "e2575a85259fac883571f3b6af420163aca03c1d3f955301986db06168db7d85",
    },
}


@pytest.mark.parametrize("command, name", sorted(CLI_OUT_FILES_SHA256))
def test_cli_out_files_pinned(command, name, capsys, tmp_path):
    rc, _, _ = _run([command, _scenario_path(name), "--out", str(tmp_path)], capsys)
    assert rc == 0
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()
    }
    assert digests == CLI_OUT_FILES_SHA256[(command, name)]


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--paths", "0"], "--paths"),
        (["--dt", "0"], "--dt"),
        (["--dt", "0.3"], "--dt"),
        (["--model", "CAT-9"], "--model"),
        (["--subpaths", "0", "--validate-z"], "--subpaths"),
        (["--seed", "-1"], "--seed"),
        (["--seed", str(2**64)], "--seed"),
        (["--dt", "0.25", "--validate-z"], "--dt"),
        (["--paths", "1"], "--paths"),  # one path has no standard error
        (["--model", "CAT-0", "--validate-z"], "--validate-z"),  # no survival formula
    ],
)
def test_cli_mc_argument_errors_exit_1(args, flag, capsys, monkeypatch):
    from randomhorizon import mc

    simulated = []
    monkeypatch.setattr(mc, "simulate", lambda model: simulated.append(model))
    rc, out, err = _run(["mc", *args], capsys)
    assert (rc, out, simulated) == (1, "", [])
    doc = json.loads(err)
    assert (doc["error"], doc["location"]) == ("schema", flag)


def test_cli_mc_non_finite_report_exits_3(capsys, monkeypatch):
    # JSON has no NaN: a report holding one is a runtime failure, not output
    from randomhorizon import mc

    def simulate(model):
        nan = float("nan")
        cp = (0.25,)
        return mc.PathEstimate("CAT-1", 2, model.dt, 0, cp, (1.0,), (nan,), (1.0,), (nan,), 0, 0)

    monkeypatch.setattr(mc, "simulate", simulate)
    rc, out, err = _run(["mc", "--paths", "2", "--dt", "0.05"], capsys)
    assert (rc, out, json.loads(err)["error"]) == (3, "", "runtime")


def test_theorems_replays_campaign_instances():
    from randomhorizon.campaign import instance_report
    from randomhorizon.generator import random_instance

    shared = (
        "projection_identities",
        "deflator",
        "single_jump",
        "martingale_transfer",
        "masked_criterion",
        "preservation",
    )
    for seed in range(50):
        sc = parse_scenario(serialize_scenario(random_instance(seed)))
        report = cli.theorems_report(sc, battery=10, seed=seed)
        expected = instance_report(seed, 10)
        assert {k: report[k] for k in shared} == {k: expected[k] for k in shared}
        assert report["consistent"] == (expected["violations"] == [])


@pytest.mark.parametrize(
    "argv",
    [
        ["certify"],  # no scenario file
        ["nosuch"],  # unknown subcommand
        ["theorems", "f.json", "--battery", "abc"],
        ["mc", "--paths", "1e3"],
        [],
    ],
)
def test_usage_errors_exit_1_not_2(argv, capsys):
    # argparse's own exit code 2 would read as "equivalence violated"
    rc, out, err = _run(argv, capsys)
    assert (rc, out) == (1, "")
    doc = json.loads(err)
    assert doc["error"] == "usage" and doc["message"]


def test_a_usage_error_leaves_the_next_command_intact(capsys):
    # the parser is built once per process: a rejected command line must
    # leave no parse state behind for the next call
    rc, out, err = _run(["certify", "--out"], capsys)
    assert (rc, out, json.loads(err)["error"]) == (1, "", "usage")
    rc, out, _ = _run(["certify", _scenario_path("ex1")], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_STDOUT_SHA256[("certify", "ex1")]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def _ex1_with_cells(cells):
    """The ex1 document with ``cells`` written at (atom, t)."""
    doc = _ex1_doc()
    for (a, t), cell in cells.items():
        doc["S"]["values"][a][t] = cell
    return doc


def test_a_repeated_bad_rational_reports_its_first_location():
    # rows are read time by time, atoms in order: b at t = 1 comes first
    doc = _ex1_with_cells({("a", 2): ["1/0"], ("b", 1): ["1/0"], ("c", 2): ["1/0"]})
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(doc)
    assert (err.value.code, err.value.location) == ("schema", "$.S.values.b[1]")


@pytest.mark.parametrize("bad", [True, 1.0])
def test_parsed_strings_do_not_admit_equal_non_strings(bad, capsys, tmp_path):
    # True == 1 and hash(1.0) == hash(1): the parsed "1" must not serve them
    doc = _ex1_with_cells({("a", 2): ["1"], ("b", 2): [1], ("c", 2): [bad], ("d", 2): ["1"]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = _run(["inspect", str(path)], capsys)
    assert (rc, out) == (1, "")
    got = json.loads(err)
    assert (got["error"], got["location"]) == ("schema", "$.S.values.c[2]")


@pytest.mark.parametrize(
    "cell, message",
    [
        (None, "need one rational per component"),
        ([["1"]], "not a rational: ['1']"),
        ([None], "not a rational: None"),
    ],
)
def test_malformed_cells_keep_their_errors(cell, message):
    doc = _ex1_with_cells({("a", 1): ["1"], ("b", 1): ["1"], ("c", 1): cell})
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(doc)
    assert (err.value.code, err.value.location) == ("schema", "$.S.values.c[1]")
    assert err.value.reason == message


def test_parsed_price_shares_one_cell_per_block():
    sc = parse_scenario(_ex1_doc())
    for row, blocks in zip(sc.price.values, sc.filtration.parts):
        for block in blocks:
            assert len({id(row[i]) for i in block}) == 1
    assert sc.price.values == load_builtin("ex1").price.values
    assert all(type(c) is Q for row in sc.price.values for cell in row for c in cell)


def test_cli_mc_validation_reports_the_4se_verdict(capsys, tmp_path, monkeypatch):
    from randomhorizon import mc

    argv = ["mc", "--paths", "200", "--dt", "0.05", "--subpaths", "2000", "--validate-z"]
    rc, out, _ = _run([*argv, "--out", str(tmp_path)], capsys)
    points = json.loads(out)["validation"]
    assert rc == 0 and len(points) == 5
    for p in points:
        bound = abs(p["estimate"] - p["closed_form"]) <= 4.0 * p["standard_error"]
        assert p["within_4se"] is bound
    header = (tmp_path / "mc_validation.csv").read_text().splitlines()[0]
    assert header.endswith(",within_4se")
    # a miss is reported, and the exit code stays 0: 4 SE misses by chance,
    # and exit 2 means an exact equivalence failed
    monkeypatch.setattr(mc, "survival_closed_form", lambda t, x: 2.0)
    rc, out, _ = _run(argv, capsys)
    assert rc == 0
    assert [p["within_4se"] for p in json.loads(out)["validation"]] == [False] * 5
