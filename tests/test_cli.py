import json
import random
import subprocess
import sys
import time

import pytest

from hipm.cli import _config, _load_inputs, main, parse_args
from hipm.exactlin import DEFAULT_BUDGET, GF2, QQ
from hipm.fixtures import grid_example
from hipm.serde import (
    load_height,
    load_module,
    load_poset,
    module_to_json,
    parse_field,
    poset_to_json,
)


@pytest.fixture
def chain_files(tmp_path):
    files = {}
    files["poset"] = tmp_path / "poset.json"
    files["poset"].write_text(json.dumps(
        {"elements": ["a", "b", "c", "d"],
         "covers": [["a", "b"], ["b", "c"], ["c", "d"]]}))
    files["phi"] = tmp_path / "phi.json"
    files["phi"].write_text(json.dumps(
        {"phi": {"a": "0", "b": "1", "c": "3", "d": "5"}}))
    files["M"] = tmp_path / "M.json"
    files["M"].write_text(json.dumps(
        {"field": {"kind": "gfp", "p": 2},
         "dims": {"a": 1, "b": 1, "c": 1, "d": 1},
         "maps": {"a|b": [[1]], "b|c": [[1]], "c|d": [[1]]}}))
    files["N"] = tmp_path / "N.json"
    files["N"].write_text(json.dumps(
        {"field": {"kind": "gfp", "p": 2},
         "dims": {"a": 1, "b": 1},
         "maps": {"a|b": [[1]]}}))
    return files


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_parse_field_variants():
    assert parse_field("gf2") == GF2
    assert parse_field("gfp:5").p == 5
    assert parse_field("rational").kind == "rational"
    assert parse_field({"kind": "gfp", "p": 3}).p == 3
    for spec in ("gf2", "gfp:2", {"kind": "gfp", "p": 2}):
        assert parse_field(spec) is GF2
    for spec in ("rational", {"kind": "rational"}):
        assert parse_field(spec) is QQ


@pytest.mark.parametrize("flag,doc_field", [("gf2", {"kind": "gfp", "p": 2}),
                                            ("gf3", {"kind": "gfp", "p": 3}),
                                            ("gfp:5", "gfp:5"), ("rational", "rational")])
def test_loaded_distance_pair_shares_one_field(chain_files, tmp_path, flag, doc_field):
    """The two modules of a distance run carry the --field object itself, so
    their matrices compare fields by identity."""
    files = {}
    for key in ("M", "N"):
        doc = json.loads(chain_files[key].read_text())
        files[key] = tmp_path / f"{key}-{flag}.json"
        files[key].write_text(json.dumps(dict(doc, field=doc_field)))
    args = parse_args(
        ["--field", flag, "distance", "--poset", str(chain_files["poset"]),
         "--height", str(chain_files["phi"]), "--module", str(files["M"]),
         "--module2", str(files["N"])])
    cfg = _config(args)
    _, _, m, n = _load_inputs(args, cfg)
    assert m.field is cfg.field and n.field is cfg.field
    assert all(f.field is cfg.field for mod in (m, n) for f in mod.maps.values())


def test_module_round_trip(rng):
    ge = grid_example()
    doc = module_to_json(ge.module)
    back = load_module(json.loads(json.dumps(doc)), ge.poset)
    assert back.dims == ge.module.dims
    assert all(back.maps[c] == ge.module.maps[c] for c in back.maps)
    pd = poset_to_json(ge.poset)
    assert load_poset(json.loads(json.dumps(pd))).key() == ge.poset.key()


def test_an_element_id_with_a_bar_is_rejected():
    """A module's map keys join two ids as "lower|upper", so "a|b|c" would
    name no cover and a written module would not load back."""
    from hipm.serde import SchemaError

    with pytest.raises(SchemaError, match=r"^\$\.elements\[0\]: element id 'a\|b' contains '\|'"):
        load_poset({"elements": ["a|b", "c"], "covers": [["a|b", "c"]]})


def test_a_written_module_loads_back_whatever_its_ids():
    from hipm.randgen import random_module

    ids = ["a b", "x:1", "é", "[c]", "d/e"]
    poset = load_poset({"elements": ids, "covers": [[ids[0], ids[1]], [ids[1], ids[2]],
                                                    [ids[0], ids[3]], [ids[3], ids[4]]]})
    m = random_module(random.Random(7), poset, GF2, max_dim=2)  # every space and map nonzero
    back = load_module(json.loads(json.dumps(module_to_json(m))), poset)
    assert back.dims == m.dims and all(back.maps[c] == m.maps[c] for c in poset.covers)


def test_grid_shorthand_and_diag():
    p = load_poset({"grid": [3, 2]})
    assert len(p) == 6 and p.coords is not None
    rho = load_height({"diag": True}, p)
    assert rho.value_idx(p.idx("v_0_0"), p.idx("v_2_1")) == 1


def test_rho_table_document(chain_files):
    p = load_poset(json.loads(chain_files["poset"].read_text()))
    doc = {"rho": [["a", "b", "1"], ["b", "c", "2"], ["c", "d", "2"],
                   ["a", "c", "3"], ["b", "d", "4"], ["a", "d", "5"]]}
    rho = load_height(doc, p)
    assert rho.value_idx(p.idx("a"), p.idx("d")) == 5


def test_decimal_strings_parse_exactly(chain_files):
    from fractions import Fraction

    p = load_poset(json.loads(chain_files["poset"].read_text()))
    rho = load_height({"phi": {"a": "0", "b": "0.5", "c": "1.25", "d": "2"}}, p)
    assert rho.value_idx(p.idx("a"), p.idx("b")) == Fraction(1, 2)
    assert rho.value_idx(p.idx("b"), p.idx("c")) == Fraction(3, 4)  # never a float
    doc = {"rho": [["a", "b", "0.5"], ["b", "c", "1"], ["c", "d", "inf"],
                   ["a", "c", "1.5"], ["b", "d", "inf"], ["a", "d", "inf"]]}
    rho2 = load_height(doc, p)
    assert rho2.value_idx(p.idx("a"), p.idx("b")) == Fraction(1, 2)
    from hipm.height import INF

    assert rho2.value_idx(p.idx("a"), p.idx("d")) is INF


def test_cli_distance(capsys, chain_files):
    code, rep = _run(capsys, [
        "distance", "--poset", str(chain_files["poset"]),
        "--height", str(chain_files["phi"]),
        "--module", str(chain_files["M"]), "--module2", str(chain_files["N"]),
    ])
    assert code == 0
    assert rep["distance"] == "2"
    assert rep["attained"] is False
    verdicts = {tuple(s["interval"]): s["verdict"] for s in rep["strata"]}
    assert verdicts[("1", "2")] == "no"
    assert verdicts[("2", "3")] == "yes"


def test_cli_determinism(capsys, chain_files):
    argv = ["distance", "--poset", str(chain_files["poset"]),
            "--height", str(chain_files["phi"]),
            "--module", str(chain_files["M"]), "--module2", str(chain_files["N"])]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv)
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_cli_validate_cycle(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"elements": ["a", "b"],
                               "covers": [["a", "b"], ["b", "a"]]}))
    code, rep = _run(capsys, ["validate", "--poset", str(bad)])
    assert code == 1
    assert not rep["poset"]["valid"]
    assert "cycle" in rep["poset"]["error"]


def test_cli_validate_ok(capsys, chain_files):
    code, rep = _run(capsys, [
        "validate", "--poset", str(chain_files["poset"]),
        "--height", str(chain_files["phi"]), "--module", str(chain_files["M"]),
    ])
    assert code == 0
    assert rep["poset"]["valid"] and rep["height"]["valid"] and rep["module"]["valid"]


def test_cli_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, rep = _run(capsys, ["validate", "--poset", str(bad)])
    assert code == 1
    assert "line" in rep["poset"]["error"]  # location-annotated parse error
    # outside validate, schema errors land on stderr
    code = main(["distance", "--poset", str(bad), "--height", str(bad),
                 "--module", str(bad), "--module2", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "line" in json.loads(captured.err)["error"]


def test_cli_functor_and_nat(capsys, chain_files):
    code, rep = _run(capsys, [
        "functor", "--poset", str(chain_files["poset"]),
        "--height", str(chain_files["phi"]), "--module", str(chain_files["M"]),
        "--kind", "L", "--r", "1",
    ])
    assert code == 0
    assert rep["module"]["dims"] == {"b": 1, "c": 1, "d": 1}
    assert "legs" in rep
    code, rep = _run(capsys, [
        "nat", "--poset", str(chain_files["poset"]),
        "--height", str(chain_files["phi"]), "--module", str(chain_files["M"]),
        "--name", "e", "--r", "2",
    ])
    assert code == 0


def test_cli_interleave_exit_codes(capsys, chain_files):
    code, rep = _run(capsys, [
        "interleave", "--poset", str(chain_files["poset"]),
        "--height", str(chain_files["phi"]),
        "--module", str(chain_files["M"]), "--module2", str(chain_files["N"]),
        "--r", "2",
    ])
    assert code == 0 and rep["verdict"] == "no"
    # M against itself at scale 1 has a 2-candidate search; cap removes the witness
    code, rep = _run(capsys, [
        "--budget", "1", "interleave", "--poset", str(chain_files["poset"]),
        "--height", str(chain_files["phi"]),
        "--module", str(chain_files["M"]), "--module2", str(chain_files["M"]),
        "--r", "1",
    ])
    assert code == 2 and rep["verdict"] == "unknown"


@pytest.mark.parametrize("r", ["-1", "abc"])
def test_cli_interleave_rejects_bad_scale(capsys, chain_files, r):
    code = main([
        "interleave", "--poset", str(chain_files["poset"]),
        "--height", str(chain_files["phi"]),
        "--module", str(chain_files["M"]), "--module2", str(chain_files["N"]),
        "--r", r,
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"].startswith("--r: ")


def test_cli_budget_caps_the_search(capsys, chain_files):
    code, rep = _run(capsys, [
        "--budget", "1", "interleave", "--poset", str(chain_files["poset"]),
        "--height", str(chain_files["phi"]),
        "--module", str(chain_files["M"]), "--module2", str(chain_files["M"]),
        "--r", "1",
    ])
    assert code == 2


def test_cli_cip_ivc_crho(capsys, chain_files):
    code, rep = _run(capsys, ["cip", "--poset", str(chain_files["poset"]),
                              "--height", str(chain_files["phi"])])
    assert code == 0 and rep["holds"] is True
    code, rep = _run(capsys, ["ivc", "--poset", str(chain_files["poset"]),
                              "--height", str(chain_files["phi"]), "--c", "1"])
    assert code == 0 and rep["holds"] is False and "witness" in rep
    code, rep = _run(capsys, ["c-rho", "--poset", str(chain_files["poset"]),
                              "--height", str(chain_files["phi"])])
    assert code == 0 and rep["c"] == "2" and rep["attained"]


def test_cli_distortion_pullback_galois(capsys, tmp_path, chain_files):
    phi2 = tmp_path / "phi2.json"
    phi2.write_text(json.dumps({"phi": {"a": "0", "b": "3/2", "c": "3", "d": "5"}}))
    code, rep = _run(capsys, ["distortion", "--poset", str(chain_files["poset"]),
                              "--height", str(chain_files["phi"]),
                              "--height2", str(phi2)])
    assert code == 0 and rep["distortion"] == "1/2"

    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"elements": ["a", "c"], "covers": [["a", "c"]]}))
    fmap = tmp_path / "map.json"
    fmap.write_text(json.dumps({"map": {"a": "a", "c": "c"}}))
    code, rep = _run(capsys, ["pullback", "--poset", str(chain_files["poset"]),
                              "--poset2", str(sub), "--map", str(fmap),
                              "--height", str(chain_files["phi"]),
                              "--module", str(chain_files["M"])])
    assert code == 0 and rep["valid"]
    assert ["a", "c", "3"] in rep["rho"]

    p2 = tmp_path / "p2.json"
    p2.write_text(json.dumps({"elements": ["0", "h", "1"],
                              "covers": [["0", "h"], ["h", "1"]]}))
    p1 = tmp_path / "p1.json"
    p1.write_text(json.dumps({"elements": ["0", "1"], "covers": [["0", "1"]]}))
    iota = tmp_path / "iota.json"
    iota.write_text(json.dumps({"map": {"0": "0", "1": "1"}}))
    pi = tmp_path / "pi.json"
    pi.write_text(json.dumps({"map": {"0": "0", "h": "0", "1": "1"}}))
    code, rep = _run(capsys, ["galois", "--poset", str(p1), "--poset2", str(p2),
                              "--iota", str(iota), "--pi", str(pi)])
    assert code == 0 and rep["valid"]


def test_cli_oracle_grid(capsys, tmp_path):
    poset = tmp_path / "grid.json"
    poset.write_text(json.dumps({"grid": [3, 3]}))
    m = tmp_path / "m.json"
    m.write_text(json.dumps({
        "field": "gf2",
        "dims": {f"v_{i}_{j}": 1 for i in range(3) for j in range(3)},
        "maps": {f"v_{i}_{j}|v_{i+1}_{j}": [[1]] for i in range(2) for j in range(3)}
                | {f"v_{i}_{j}|v_{i}_{j+1}": [[1]] for i in range(3) for j in range(2)},
    }))
    z = tmp_path / "z.json"
    z.write_text(json.dumps({"field": "gf2", "dims": {}, "maps": {}}))
    code, rep = _run(capsys, ["oracle-grid", "--poset", str(poset),
                              "--module", str(m), "--module2", str(z)])
    assert code == 0
    assert rep["agree"] and rep["distance"] == "1"


def test_cli_oracle_grid_exits_1_when_both_decide_and_disagree(capsys, tmp_path, monkeypatch):
    from fractions import Fraction

    import hipm.cli

    poset = tmp_path / "grid.json"
    poset.write_text(json.dumps({"grid": [2]}))
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"field": "gf2", "dims": {"v_0": 1, "v_1": 1},
                             "maps": {"v_0|v_1": [[1]]}}))
    monkeypatch.setattr(hipm.cli, "shift_oracle_distance", lambda m, n, budget: Fraction(100))
    code, rep = _run(capsys, ["oracle-grid", "--poset", str(poset),
                              "--module", str(m), "--module2", str(m)])
    assert code == 1
    assert rep == {"distance": "0", "oracle_distance": "100", "agree": False}


def test_certificate_round_trip(capsys, chain_files):
    from fractions import Fraction

    from hipm.functors import apply_R
    from hipm.interleave import check_certificate
    from hipm.serde import load_morphism

    code, rep = _run(capsys, [
        "distance", "--poset", str(chain_files["poset"]),
        "--height", str(chain_files["phi"]),
        "--module", str(chain_files["M"]), "--module2", str(chain_files["N"]),
    ])
    assert code == 0 and "certificate" in rep
    poset = load_poset(json.loads(chain_files["poset"].read_text()))
    rho = load_height(json.loads(chain_files["phi"].read_text()), poset)
    m = load_module(json.loads(chain_files["M"].read_text()), poset)
    n = load_module(json.loads(chain_files["N"].read_text()), poset)
    r = Fraction(rep["certificate"]["r"])
    p = load_morphism(rep["certificate"]["p"], m, apply_R(rho, r, n).module)
    q = load_morphism(rep["certificate"]["q"], n, apply_R(rho, r, m).module)
    assert check_certificate(rho, r, m, n, p, q)


def test_cli_en_distance(capsys, chain_files):
    code, rep = _run(capsys, [
        "en-distance", "--poset", str(chain_files["poset"]),
        "--height", str(chain_files["phi"]),
        "--module", str(chain_files["M"]), "--module2", str(chain_files["N"]),
    ])
    assert code == 0
    assert rep["distance"] == "2"
    assert "witness" in rep


def test_cli_repro_commands(capsys):
    code, rep = _run(capsys, ["repro", "chain", "--C", "2"])
    assert code == 0
    assert rep["d_M_N"]["distance"] == "2"
    assert rep["triangle_inequality_fails"]
    code, rep = _run(capsys, ["repro", "grid"])
    assert code == 0
    assert rep["L1_matches_printed"] and rep["R1_matches_printed"]
    assert rep["L1_at_v22_is_zero"]


def test_cli_repro_exits_2_when_what_it_judges_is_undecided(capsys):
    """An undecided verdict is exit 2, as for every other command; exit 1 is a
    decided value that contradicts the paper."""
    code, rep = _run(capsys, ["--budget", "2", "--field", "gf3", "repro", "grid"])
    assert code == 2
    assert rep["L1_decomposition_iso"] == "unknown" and rep["L1_matches_printed"]
    code, rep = _run(capsys, ["--budget", "1", "--field", "gf3", "repro", "chain"])
    assert code == 2
    assert not rep["d_M_X"]["decided"] and rep["d_M_N"]["distance"] == "2"


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "hipm.cli", "repro", "chain", "--C", "3"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["d_M_N"]["distance"] == "3"
    assert rep["c_rho"] == "3"


def _error(capsys, argv):
    """Exit code and the JSON error of a call that must fail cleanly."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, json.loads(captured.err)["error"]


def _distance_argv(files, module="M"):
    return ["distance", "--poset", str(files["poset"]), "--height", str(files["phi"]),
            "--module", str(files[module]), "--module2", str(files["N"])]


def test_cli_rejects_a_composite_modulus(capsys, chain_files):
    code, err = _error(capsys, ["--field", "gfp:4"] + _distance_argv(chain_files))
    assert code == 1 and "prime" in err


@pytest.mark.parametrize("entry", ["1/2", 0.5])  # a float would be truncated to 0
def test_cli_rejects_a_non_integer_entry_over_gfp(capsys, chain_files, tmp_path, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": "gf2", "dims": {"a": 1, "b": 1},
                               "maps": {"a|b": [[entry]]}}))
    chain_files["bad"] = bad
    code, err = _error(capsys, _distance_argv(chain_files, "bad"))
    assert code == 1 and "a|b" in err and json.dumps(entry) in err  # the entry as written in JSON


@pytest.mark.parametrize("rows", [5, [1]], ids=["not-a-list", "row-not-a-list"])
def test_cli_rejects_a_map_that_is_not_a_matrix(capsys, chain_files, tmp_path, rows):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": "gf2", "dims": {"a": 1, "b": 1}, "maps": {"a|b": rows}}))
    chain_files["bad"] = bad
    code, err = _error(capsys, _distance_argv(chain_files, "bad"))
    assert code == 1 and "maps['a|b']: matrix must be 1x1" in err


@pytest.mark.parametrize("dim", [-1, 1.5])
def test_cli_rejects_a_bad_dimension(capsys, chain_files, tmp_path, dim):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": "gf2", "dims": {"a": dim}, "maps": {}}))
    chain_files["bad"] = bad
    code, err = _error(capsys, _distance_argv(chain_files, "bad"))
    assert code == 1 and "dims['a']" in err


@pytest.mark.parametrize("elements, dims, command", [
    (["x", "a", "y"], {"x": 1, "a": 4097, "y": 1}, ["nat", "--name", "e", "--r", "2"]),
    (["a", "b"], {"a": 4_000_000_000, "b": 4_000_000_000}, ["functor", "--kind", "L", "--r", "1"]),
])
def test_cli_rejects_a_dimension_over_the_product_bound(capsys, tmp_path, monkeypatch,
                                                        elements, dims, command):
    """A dimension past exactlin's bound on inner products is an input error,
    raised before any matrix or module of that size is built."""
    from hipm import serde

    def build(*args):
        raise AssertionError("module built before the dimension check")

    monkeypatch.setattr(serde, "PersistenceModule", build)
    files = {}
    for key, doc in (("poset", {"elements": elements,
                                "covers": [list(c) for c in zip(elements, elements[1:])]}),
                     ("height", {"phi": {e: i for i, e in enumerate(elements)}}),
                     ("module", {"field": "gf2", "dims": dims})):
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    code, err = _error(capsys, [command[0], "--poset", str(files["poset"]),
                                "--height", str(files["height"]),
                                "--module", str(files["module"]), *command[1:]])
    assert code == 1 and err == "$.dims['a']: dimension exceeds the supported bound 4096"


def test_a_dimension_at_the_product_bound_loads():
    from hipm.poset import FinitePoset
    from hipm.serde import SchemaError

    point = FinitePoset.chain(["a"])
    assert load_module({"field": "gf2", "dims": {"a": 4096}}, point).dims == (4096,)
    for dim in ("4097", "0" * 5000 + "4097", "9" * 5000):  # int() refuses over 4300 digits
        with pytest.raises(SchemaError, match="exceeds the supported bound"):
            load_module({"field": "gf2", "dims": {"a": dim}}, point)
    assert load_module({"field": "gf2", "dims": {"a": "0" * 5000 + "7"}}, point).dims == (7,)


def test_cli_rejects_a_number_too_long_to_convert(capsys, chain_files):
    chain_files["M"].write_text('{"field": "gf2", "dims": {"a": ' + "9" * 5000 + "}}")
    code, err = _error(capsys, _distance_argv(chain_files))
    assert code == 1 and err.startswith(f"{chain_files['M']}: malformed JSON: Exceeds the limit")


@pytest.mark.parametrize("command", [
    ["c-rho", "--height", "{diag}"],
    ["--field", "gf2", "oracle-grid", "--module", "{module}", "--module2", "{module}"],
])
def test_cli_rejects_an_empty_grid(capsys, tmp_path, command):
    files = {}
    for key, doc in (("poset", {"grid": []}), ("diag", {"diag": True}),
                     ("module", {"field": "gf2"})):
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    argv = [a.format(**files) for a in command] + ["--poset", str(files["poset"])]
    code, err = _error(capsys, argv)
    assert code == 1 and err.startswith("grid shape must be a non-empty list")


def test_cli_xi_needs_poset2_and_map(capsys, chain_files):
    code, err = _error(capsys, [
        "nat", "--poset", str(chain_files["poset"]), "--height", str(chain_files["phi"]),
        "--module", str(chain_files["M"]), "--name", "xi", "--r", "1"])
    assert code == 1 and "--poset2" in err


def test_cli_xi_keys_its_dims_by_the_elements_of_poset2(capsys, chain_files, tmp_path):
    """xi pulls back along f: P2 -> P, so its source and target live on P2 and
    its dimensions are keyed by P2's elements, as its components are."""
    poset2, fmap = tmp_path / "sub.json", tmp_path / "incl.json"
    poset2.write_text(json.dumps({"elements": ["y", "x"], "covers": [["y", "x"]]}))
    fmap.write_text(json.dumps({"map": {"y": "b", "x": "d"}}))
    code, out = _run(capsys, [
        "nat", "--poset", str(chain_files["poset"]), "--height", str(chain_files["phi"]),
        "--module", str(chain_files["M"]), "--name", "xi", "--r", "1",
        "--poset2", str(poset2), "--map", str(fmap)])
    assert code == 0
    assert list(out["source_dims"]) == list(out["target_dims"]) == ["x", "y"]  # sorted keys
    assert set(out["morphism"]["components"]) <= set(out["source_dims"])


@pytest.mark.parametrize("name, direction, needle", [
    ("theta", "L", "intermediate-value"),  # IV_c fails on the grid at c = 0
    ("sigma", "L", "iterated-colimit comparison not invertible"),
    ("sigma", "R", "iterated-limit comparison not invertible"),
])
def test_cli_nat_precondition_failures(capsys, tmp_path, name, direction, needle):
    ex = grid_example()
    files = {}
    for key, doc in (("poset", poset_to_json(ex.poset)), ("module", module_to_json(ex.module)),
                     ("height", {"phi": {e: str(v) for e, v in ex.phi.phi.items()}})):
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    c = "0" if name == "theta" else "1"
    code, err = _error(capsys, [
        "nat", "--poset", str(files["poset"]), "--height", str(files["height"]),
        "--module", str(files["module"]), "--name", name, "--s", "1/2", "--r", "1",
        "--c", c, "--direction", direction])
    assert code == 1 and needle in err


@pytest.mark.parametrize("name", ["theta", "sigma"])
def test_cli_nat_ivc_failure_writes_t_as_a_fraction(capsys, tmp_path, name):
    """On the chain a < b < c with phi 0, 1, 2 the gap at c = 0 is t = 1/2."""
    docs = {"poset": {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]},
            "height": {"phi": {"a": 0, "b": 1, "c": 2}},
            "module": {"field": "gf2", "dims": {"a": 1, "b": 1, "c": 1},
                       "maps": {"a|b": [[1]], "b|c": [[1]]}}}
    for key, doc in docs.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
    code, err = _error(capsys, [
        "nat", "--poset", str(tmp_path / "poset.json"), "--height", str(tmp_path / "height.json"),
        "--module", str(tmp_path / "module.json"), "--name", name, "--r", "1", "--s", "1",
        "--c", "0"])
    assert code == 1
    assert err == ("intermediate-value property fails at tolerance 0: "
                   "witness a='a', b='b', t=1/2")


def test_cli_rejects_a_non_functorial_module(capsys, tmp_path):
    poset = tmp_path / "diamond.json"
    poset.write_text(json.dumps({"elements": ["a", "b", "c", "d"],
                                 "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"phi": {"a": "0", "b": "1", "c": "1", "d": "2"}}))
    bad = tmp_path / "bad.json"  # a -> b -> d is the identity, a -> c -> d is zero
    bad.write_text(json.dumps({"field": "gf2", "dims": {"a": 1, "b": 1, "c": 1, "d": 1},
                               "maps": {"a|b": [[1]], "a|c": [[1]], "b|d": [[1]],
                                        "c|d": [[0]]}}))
    files = ["--poset", str(poset), "--height", str(phi), "--module", str(bad),
             "--module2", str(bad)]
    for argv in (["interleave"] + files + ["--r", "2"], ["distance"] + files,
                 ["functor"] + files[:6] + ["--kind", "L", "--r", "1"]):
        code, err = _error(capsys, argv)
        assert code == 1 and "not a functor" in err


def test_cli_oracle_grid_undecided_within_budget(capsys, tmp_path):
    # 4 copies of [v_1, v_4] against 4 copies of [v_2, v_5] on an 8-chain over GF(3):
    # neither search decides the shift-1 stratum within 5000 candidates
    def copies(lo):
        elements = [f"v_{i}" for i in range(lo, lo + 4)]
        eye = [[int(i == j) for j in range(4)] for i in range(4)]
        return {"field": "gf3", "dims": {e: 4 for e in elements},
                "maps": {f"{a}|{b}": eye for a, b in zip(elements, elements[1:])}}

    files = {"poset": {"grid": [8]}, "m": copies(1), "n": copies(2)}
    for key, doc in files.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    code, rep = _run(capsys, ["--field", "gf3", "--budget", "5000", "oracle-grid",
                              "--poset", str(files["poset"]), "--module", str(files["m"]),
                              "--module2", str(files["n"])])
    assert code == 2
    assert "within budget 5000" in rep["oracle_undecided"]
    assert (rep["oracle_distance_lo"], rep["oracle_distance_hi"]) == ("0", "1")
    # a budget past int64 range: both searches skip blocks to the witness at 551 881,
    # so the first yes is the stratum (0, 1] and the distance 0 is not attained
    code, rep = _run(capsys, ["--field", "gf3", "--budget", str(10 ** 20), "oracle-grid",
                              "--poset", str(files["poset"]), "--module", str(files["m"]),
                              "--module2", str(files["n"])])
    assert code == 0
    assert (rep["distance"], rep["oracle_distance"], rep["agree"]) == ("0", "0", True)


def test_cli_en_distance_over_the_rationals_is_undecided(capsys, tmp_path):
    # erosion neighborhoods are enumerated only over GF(p): over Q such a stratum is unknown.
    # On the chain a < b, M(a <= b) = 1 and N(a <= b) = 0 have equal dimensions, so the
    # rank obstruction does not decide the zero stratum.
    files = {"poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
             "height": {"phi": {"a": "0", "b": "1"}}}
    for name, entry in (("M", "1"), ("N", "0")):
        files[name] = {"field": {"kind": "rational"}, "dims": {"a": 1, "b": 1},
                       "maps": {"a|b": [[entry]]}}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code = main(["--field", "rational", "en-distance",
                 "--poset", str(tmp_path / "poset.json"),
                 "--height", str(tmp_path / "height.json"),
                 "--module", str(tmp_path / "M.json"),
                 "--module2", str(tmp_path / "N.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    rep = json.loads(captured.out)
    assert not rep["decided"]
    assert [(sv["verdict"], sv.get("via")) for sv in rep["strata"]] == [
        ("unknown", "enumeration"), ("yes", "erosion-iso"), ("implied-yes", None)]


@pytest.mark.parametrize("height", [
    {"phi": {"a": 0, "b": 0.1, "c": 1, "d": 2}},  # 0.1 would become a binary fraction
    {"rho": [["a", "b", 0.5], ["b", "c", 1], ["c", "d", 1],
             ["a", "c", "3/2"], ["b", "d", 2], ["a", "d", "5/2"]]},
])
def test_cli_rejects_a_float_height(capsys, chain_files, tmp_path, height):
    chain_files["phi"] = tmp_path / "height.json"
    chain_files["phi"].write_text(json.dumps(height))
    code, err = _error(capsys, _distance_argv(chain_files))
    assert code == 1 and "not an exact number" in err
    assert ("$.phi['b']" if "phi" in height else "$.rho[0]") in err


@pytest.mark.parametrize("entry, named", [
    (["b", "a", "1"], "not comparable=[('b', 'a')]"),  # the reversed pair
    (["a", "a", "1"], "nonzero diagonal=['a']"),
    (["a", "b", "-1"], "negative=[('a', 'b')]"),
])
def test_cli_rho_error_names_the_violation(capsys, chain_files, tmp_path, entry, named):
    """The height of the chain fixture as a rho table, with one bad entry."""
    table = {("a", "b"): "1", ("b", "c"): "2", ("c", "d"): "2",
             ("a", "c"): "3", ("b", "d"): "4", ("a", "d"): "5"}
    table[tuple(entry[:2])] = entry[2]
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"rho": [[a, b, v] for (a, b), v in table.items()]}))
    code, err = _error(capsys, ["c-rho", "--poset", str(chain_files["poset"]),
                                "--height", str(rho)])
    assert code == 1 and err.startswith("$.rho:") and named in err


@pytest.mark.parametrize("key, doc, location", [
    ("poset", 5, "$"),
    ("poset", {"elements": ["a", "b"], "covers": [[["a"], "b"]]}, "$.covers[0]"),
    ("phi", [1, 2], "$"),
    ("phi", {"rho": 5}, "$.rho"),
    ("phi", {"rho": [[["a"], "b", "1"]]}, "$.rho[0]"),
    ("M", [1], "$"),
    ("M", {"field": "gf2", "dims": [1, 1]}, "$.dims"),
    ("M", {"field": "gf2", "dims": {"a": 1, "b": 1}, "maps": [[1]]}, "$.maps"),
    ("map", [1], "$"),
    ("map", {"map": {"a": ["x"], "c": "c"}}, "$.map['a']"),
    ("poset", {"grid": [True, 3]}, "$.grid"),
    ("M", {"field": "gf2", "dims": {"a": 1, "b": 1, "bb": 3}, "maps": {"a|b": [[1]]}},
     "$.dims['bb']"),
    ("phi", {"phi": {"a": "0", "b": "1", "c": "3", "d": "5", "zz": "7"}},
     "$.phi['zz']"),
    ("map", {"map": {"a": "a", "c": "c", "ghost": "a"}}, "$.map['ghost']"),
    ("poset", {"elements": ["a", "b", "c", "d"], "covers": [], "cover": [["a", "b"]]},
     "$.cover"),
    ("phi", {"phi": {"a": "0", "b": "1", "c": "3", "d": "5"}, "phis": {}}, "$.phis"),
    ("phi", {"phi": {"a": "0", "b": "1", "c": "3", "d": "5"}, "diag": "no"}, "$.diag"),
    ("M", {"field": "gf2", "dimz": {"a": 1, "b": 1}}, "$.dimz"),
    ("map", {"map": {"a": "a", "c": "c"}, "maps": {}}, "$.maps"),
], ids=["poset-not-an-object", "cover-id-a-list", "height-not-an-object", "rho-not-a-list",
        "rho-id-a-list", "module-not-an-object", "dims-a-list", "maps-a-list",
        "order-map-not-an-object", "order-map-value-a-list", "grid-side-a-bool",
        "dims-unknown-id", "phi-unknown-id", "order-map-unknown-id", "poset-unknown-key",
        "height-unknown-key", "diag-not-a-bool", "module-unknown-key", "order-map-unknown-key"])
def test_cli_rejects_a_document_of_the_wrong_shape(capsys, chain_files, tmp_path, key, doc,
                                                   location):
    """A JSON document of the wrong shape, with an element id that names no
    element, or with a top-level key the document does not have, is a schema
    error at its JSON path, never a Python traceback or a verdict."""
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"elements": ["a", "c"], "covers": [["a", "c"]]}))
    chain_files["map"] = tmp_path / "map.json"
    chain_files["map"].write_text(json.dumps({"map": {"a": "a", "c": "c"}}))
    chain_files[key] = tmp_path / "bad.json"
    chain_files[key].write_text(json.dumps(doc))
    argv = (["pullback", "--poset", str(chain_files["poset"]), "--poset2", str(sub),
             "--map", str(chain_files["map"])] if key == "map" else _distance_argv(chain_files))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    assert json.loads(captured.err)["error"].startswith(location + ": ")


@pytest.mark.parametrize("argv", [
    ["distance", "--poset", "p.json"],  # required flags missing
    ["--budget", "x", "c-rho", "--poset", "p.json", "--height", "h.json"],
    [],  # no command
])
def test_cli_usage_errors_are_invalid_input(capsys, argv):
    code, err = _error(capsys, argv)
    assert code == 1 and err.startswith("hipm")


def test_reused_parsers_give_each_call_its_own_namespace():
    """The parsers are built once per process; no call's flags leak into the next."""
    from hipm.serde import SchemaError

    base = ["functor", "--poset", "p.json", "--height", "h.json", "--module", "m.json",
            "--kind", "L", "--r", "1"]
    first = parse_args(["--budget", "7"] + base + ["--direction", "R", "--s", "2"])
    second = parse_args(base)
    assert (first.direction, first.s, first.budget) == ("R", "2", 7)
    assert (second.direction, second.s, second.budget) == ("L", None, DEFAULT_BUDGET)
    assert first is not second and first.fn is second.fn
    with pytest.raises(SchemaError, match="^hipm functor"):
        parse_args(base + ["--direction", "X"])
    with pytest.raises(SchemaError, match="^hipm"):
        parse_args(["no-such-command"])
    assert parse_args(base).direction == "L"


@pytest.mark.parametrize("c, needle", [("-1", "scale must be >= 0"), ("abc", "not an exact number"),
                                       ("1/0", "not an exact number")])
def test_cli_ivc_rejects_a_bad_tolerance(capsys, chain_files, c, needle):
    code, err = _error(capsys, ["ivc", "--poset", str(chain_files["poset"]),
                                "--height", str(chain_files["phi"]), "--c", c])
    assert code == 1 and err.startswith("--c:") and needle in err


def test_cli_ivc_and_interleave_report_the_exact_scale(capsys, chain_files):
    """`ivc --c` and `interleave --r` are written as the exact value read, not
    as the text typed: "2/1" as "2", "2/4" and "0.5" as "1/2"."""
    on_height = ["--poset", str(chain_files["poset"]), "--height", str(chain_files["phi"])]
    pair = ["--module", str(chain_files["M"]), "--module2", str(chain_files["N"])]
    for typed, exact in (("2/1", "2"), ("2/4", "1/2"), ("0.5", "1/2"), ("+1", "1"), ("01", "1")):
        code, rep = _run(capsys, ["ivc", *on_height, "--c", typed])
        assert code == 0 and rep["c"] == exact
        code, rep = _run(capsys, ["interleave", *on_height, *pair, "--r", typed])
        assert code == 0 and rep["r"] == exact


@pytest.mark.parametrize("C, needle", [("x", "not an exact number"), ("1", "needs C > 1"),
                                       ("-2", "scale must be >= 0")])
def test_cli_repro_chain_rejects_a_bad_C(capsys, C, needle):
    code, err = _error(capsys, ["repro", "chain", "--C", C])
    assert code == 1 and err.startswith("--C:") and needle in err


def test_cli_repro_bipath_rejects_a_small_G(capsys):
    code, err = _error(capsys, ["repro", "bipath", "--G", "2"])
    assert code == 1 and err.startswith("--G:") and "G > 4" in err


def test_cli_repro_bipath_rejects_a_huge_G_before_listing_it(capsys):
    """The element cap is checked on 2G, before 2G element names are built."""
    start = time.perf_counter()
    code = main(["repro", "bipath", "--G", "1000000000000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == "poset has 2000000000000 elements, configured cap is 512"
    assert elapsed < 1


def test_cli_help_exits_zero(capsys):
    for argv in (["--help"], ["c-rho", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--height" in capsys.readouterr().out


def test_cli_rejects_an_output_in_a_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, err = _error(capsys, ["--output", str(target), "repro", "chain"])
    assert code == 1 and err.startswith("--output:") and "no such directory" in err
    assert not target.parent.exists()


def test_cli_reports_an_unwritable_output_as_an_error(capsys, tmp_path):
    # the parent exists, but the path is a directory: open() fails after the work
    code, err = _error(capsys, ["--output", str(tmp_path), "repro", "chain"])
    assert code == 1 and err.startswith(f"{tmp_path}:") and "cannot write the report" in err


@pytest.mark.parametrize("command", ["distance", "en-distance", "interleave", "oracle-grid"])
def test_cli_rejects_modules_over_different_fields(capsys, tmp_path, command):
    """M over GF(3) and N over GF(2): a JSON error naming --module2, not a
    traceback from the Hom or isomorphism code."""
    files = {"poset": {"grid": [3]}, "phi": {"diag": True}}
    for key, p in (("M", 3), ("N", 2)):
        files[key] = {"field": {"kind": "gfp", "p": p}, "dims": {"v_1": 1, "v_2": 1},
                      "maps": {"v_1|v_2": [[1]]}}
    for key, doc in files.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    argv = [command, "--poset", str(files["poset"]), "--module", str(files["M"]),
            "--module2", str(files["N"])]
    if command != "oracle-grid":
        argv += ["--height", str(files["phi"])]
    if command == "interleave":
        argv += ["--r", "1"]
    code, err = _error(capsys, argv)
    assert code == 1 and err.startswith("--module2:") and "GF(2)" in err and "GF(3)" in err


@pytest.mark.parametrize("budget,code,verdict,via", [(3, 2, "unknown", "enumeration"),
                                                     (7, 0, "yes", "erosion-iso")])
def test_cli_en_distance_keeps_an_undecided_isomorphism_undecided(capsys, tmp_path, budget,
                                                                  code, verdict, via):
    """M = id and N = the swap on a < b over GF(2) are isomorphic.  At budget 3
    the erosion iso test and the cross test of the neighborhoods are all
    unknown, so stratum [0, 0] is unknown, not a "no" from an exhausted
    enumeration; at budget 7 the erosions are found isomorphic."""
    docs = {"poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
            "phi": {"phi": {"a": "0", "b": "1"}}}
    for key, swap in (("M", [[1, 0], [0, 1]]), ("N", [[0, 1], [1, 0]])):
        docs[key] = {"field": {"kind": "gfp", "p": 2}, "dims": {"a": 2, "b": 2},
                     "maps": {"a|b": swap}}
    files = {}
    for key, doc in docs.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    got, rep = _run(capsys, ["--field", "gf2", "--budget", str(budget), "en-distance",
                             "--poset", str(files["poset"]), "--height", str(files["phi"]),
                             "--module", str(files["M"]), "--module2", str(files["N"])])
    assert got == code and rep["decided"] == (code == 0)
    assert rep["strata"][0] == {"interval": ["0", "0"], "verdict": verdict, "via": via}
    assert rep["distance"] == "0"


def test_a_morphism_with_an_unknown_component_id_is_rejected(chain_files):
    """No command reads a morphism file, so the loader is called directly, on
    the module of a CLI input file."""
    from hipm.serde import SchemaError, load_morphism

    poset = load_poset(json.loads(chain_files["poset"].read_text()))
    m = load_module(json.loads(chain_files["M"].read_text()), poset)
    with pytest.raises(SchemaError, match=r"^\$\.components\['ghost'\]: unknown element id"):
        load_morphism({"components": {"a": [[1]], "ghost": [[1]]}}, m, m)


def test_a_morphism_with_an_unknown_key_is_rejected(chain_files):
    """A misspelt top-level key is an error, not zero components."""
    from hipm.serde import SchemaError, load_morphism

    poset = load_poset(json.loads(chain_files["poset"].read_text()))
    m = load_module(json.loads(chain_files["M"].read_text()), poset)
    with pytest.raises(SchemaError, match=r"^\$\.component: unknown key in morphism document"):
        load_morphism({"component": {"a": [[1]]}}, m, m)


def test_cli_rejects_an_input_it_cannot_read(capsys, chain_files, tmp_path):
    """A directory, or bytes that are not UTF-8, is an error on that path."""
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    for path, needle in ((tmp_path, "cannot read the file"), (utf16, "not UTF-8 text")):
        chain_files["poset"] = path
        code, err = _error(capsys, _distance_argv(chain_files))
        assert code == 1 and err.startswith(f"{path}: {needle}")


def test_cli_rejects_a_grid_over_the_size_cap_at_once(capsys, chain_files, tmp_path,
                                                      monkeypatch):
    """The cap is applied before any of the 10^10 grid points is listed (a
    listing fails the test at once instead of filling the memory)."""
    import time
    from types import SimpleNamespace

    from hipm import poset

    def listing(*args):
        raise AssertionError("grid points listed before the size check")

    monkeypatch.setattr(poset, "itertools", SimpleNamespace(product=listing))
    chain_files["poset"] = tmp_path / "grid.json"
    chain_files["poset"].write_text(json.dumps({"grid": [100000, 100000]}))
    start = time.perf_counter()
    code, err = _error(capsys, ["c-rho", "--poset", str(chain_files["poset"]),
                                "--height", str(chain_files["phi"])])
    assert time.perf_counter() - start < 1
    assert code == 1 and err == "grid has 10000000000 elements, configured cap is 512"
