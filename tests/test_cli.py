import json
import subprocess
import sys

import pytest

from hipm.cli import main
from hipm.exactlin import GF2
from hipm.fixtures import chain_example, grid_example
from hipm.poset import FinitePoset
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


def test_module_round_trip(rng):
    ge = grid_example()
    doc = module_to_json(ge.module)
    back = load_module(json.loads(json.dumps(doc)), ge.poset)
    assert back.dims == ge.module.dims
    assert all(back.maps[c] == ge.module.maps[c] for c in back.maps)
    pd = poset_to_json(ge.poset)
    assert load_poset(json.loads(json.dumps(pd))).key() == ge.poset.key()


def test_grid_shorthand_and_diag():
    p = load_poset({"grid": [3, 2]})
    assert len(p) == 6 and p.coords is not None
    rho = load_height({"diag": True}, p)
    assert rho.value("v_0_0", "v_2_1") == 1


def test_rho_table_document(chain_files):
    p = load_poset(json.loads(chain_files["poset"].read_text()))
    doc = {"rho": [["a", "b", "1"], ["b", "c", "2"], ["c", "d", "2"],
                   ["a", "c", "3"], ["b", "d", "4"], ["a", "d", "5"]]}
    rho = load_height(doc, p)
    assert rho.value("a", "d") == 5


def test_decimal_strings_parse_exactly(chain_files):
    from fractions import Fraction

    p = load_poset(json.loads(chain_files["poset"].read_text()))
    rho = load_height({"phi": {"a": "0", "b": "0.5", "c": "1.25", "d": "2"}}, p)
    assert rho.value("a", "b") == Fraction(1, 2)
    assert rho.value("b", "c") == Fraction(3, 4)  # never a float
    doc = {"rho": [["a", "b", "0.5"], ["b", "c", "1"], ["c", "d", "inf"],
                   ["a", "c", "1.5"], ["b", "d", "inf"], ["a", "d", "inf"]]}
    rho2 = load_height(doc, p)
    assert rho2.value("a", "b") == Fraction(1, 2)
    from hipm.height import INF

    assert rho2.value("a", "d") is INF


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


def test_cli_budget_env_override(capsys, chain_files, monkeypatch):
    monkeypatch.setenv("HINT_BUDGET", "1")
    code, rep = _run(capsys, [
        "interleave", "--poset", str(chain_files["poset"]),
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


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "hipm.cli", "repro", "chain", "--C", "3"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["d_M_N"]["distance"] == "3"
    assert rep["c_rho"] == "3"
