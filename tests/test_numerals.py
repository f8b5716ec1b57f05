"""Numbers in input are ASCII numerals (`serde.NUMERAL`) or JSON integers.

Python's `int()` and `Fraction()` also take other digit scripts, "_", padding
spaces and (`Fraction`) exponents, and an exponent can build a value whose
digits take seconds to write or that `str()` refuses.  Each string below goes
into every numeric slot of an `interleave` run on a two-element chain: a
dimension, a GF(3) entry, a Q entry, a phi value, a rho value, `--r`,
`--budget` and the modulus of `--field gfp:P`.  `cli.main` runs in process.
It must raise nothing and exit 0, 1 or 2; exit 1 is one JSON line with
"error" on stderr, and a string the run accepts is a numeral.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from hipm.cli import main
from hipm.serde import NUMERAL

SLOTS = ("dim", "gf3", "rational", "phi", "rho", "--r", "--budget", "--field")
DIGITS = [chr(c) for block in (0x0660, 0x0966, 0xFF10) for c in range(block, block + 10)]
numerals = st.text(st.sampled_from([*"0123456789+-/._ eE", *DIGITS]), max_size=6)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("numerals")


def files(folder, slot, text):
    """The poset, height and module files with `text` in `slot`, if it is one
    of theirs, and valid values elsewhere."""
    field = {"gf3": "gf3", "rational": "rational", "--field": None}.get(slot, "gf2")
    docs = {
        "poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
        "height": ({"rho": [["a", "a", "0"], ["b", "b", "0"], ["a", "b", text]]} if slot == "rho"
                   else {"phi": {"a": 0, "b": text if slot == "phi" else 1}}),
        "M": {"dims": {"a": text, "b": 1}} if slot == "dim" else
             {"dims": {"a": 1, "b": 1}, "maps": {"a|b": [[text if slot == field else 1]]}},
        "N": {"dims": {"a": 1, "b": 1}, "maps": {"a|b": [[1]]}},
    }
    paths = {}
    for key, doc in docs.items():
        if key in ("M", "N") and field is not None:
            doc["field"] = field
        paths[key] = folder / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    return paths


def argv(folder, slot, text):
    """An `interleave` run with `text` in `slot` and valid values elsewhere."""
    paths = files(folder, slot, text)
    return ["--budget", text if slot == "--budget" else "64",
            "--field", f"gfp:{text}" if slot == "--field" else "gf2",
            "interleave", "--poset", str(paths["poset"]), "--height", str(paths["height"]),
            "--module", str(paths["M"]), "--module2", str(paths["N"]),
            "--r", text if slot == "--r" else "1"]


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@given(numerals)
@example("1e5000")
@example("9" * 5000)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_numeric_slot_takes_only_ascii_numerals(folder, text):
    for slot in SLOTS:
        code, out, err = run(argv(folder, slot, text))
        assert code in (0, 1, 2), (slot, text)
        if code == 1:
            lines = err.splitlines()
            assert out == "" and len(lines) == 1 and "error" in json.loads(lines[0]), (slot, text)
        else:
            assert NUMERAL.fullmatch(text), (slot, text)


@pytest.mark.parametrize("slot, text", [
    ("dim", "٣"), ("gf3", "1_0"), ("gf3", " 2 "), ("gf3", "١"),
    ("--r", "١"), ("--r", "1_0"), ("--budget", "١٠"), ("--budget", "1_000"),
    ("--field", "٧"), ("phi", "1e5000"), ("--r", "1e10000000"),
])
def test_a_number_that_is_no_numeral_is_an_input_error(folder, slot, text):
    start = time.perf_counter()
    code, out, err = run(argv(folder, slot, text))
    assert time.perf_counter() - start < 1  # Fraction("1e10000000") alone takes seconds
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize("command", ["c-rho", "distance"])
def test_an_exponent_in_a_height_is_an_input_error(folder, command):
    """Loaded as 10**5000, it made the report's str() raise."""
    paths = files(folder, "phi", "1e5000")
    modules = ["--module", str(paths["M"]), "--module2", str(paths["N"])]
    code, out, err = run([command, "--poset", str(paths["poset"]), "--height", str(paths["height"]),
                          *(modules if command == "distance" else [])])
    assert code == 1 and out == "" and json.loads(err)["error"].startswith("$.phi['b']: ")


@pytest.mark.parametrize("command", ["c-rho", "validate", "distance"])
def test_a_value_summed_past_the_digit_limit_is_an_input_error(folder, command):
    """Each phi value is under int()'s 4300-digit limit, but the chain's
    rho(b, c) and c(rho) have about 6000 digits; writing one raised from str()."""
    paths = files(folder, "phi", "0")
    paths["height"].write_text(json.dumps({"phi": {"a": 0, "b": "1/" + "7" * 3000,
                                                   "c": "1/" + "3" * 2999}}))
    paths["poset"].write_text(json.dumps({"elements": ["a", "b", "c"],
                                          "covers": [["a", "b"], ["b", "c"]]}))
    modules = ["--module", str(paths["N"]), "--module2", str(paths["N"])]
    for doc in ("M", "N"):
        paths[doc].write_text(json.dumps({"field": "gf2", "dims": {"a": 1, "b": 1, "c": 0},
                                          "maps": {"a|b": [[1]]}}))
    code, out, err = run([command, "--poset", str(paths["poset"]), "--height", str(paths["height"]),
                          *(modules if command == "distance" else [])])
    assert code == 1
    if command == "validate":  # the report names the height as invalid
        assert err == "" and json.loads(out)["height"] == {
            "valid": False, "error": "an exact value has more digits than can be written"}
    else:
        assert out == "" and json.loads(err) == {
            "error": "an exact value has more digits than can be written"}


@pytest.mark.parametrize("command", [["functor", "--kind", "R", "--r", "0"],
                                     ["nat", "--name", "e", "--r", "1"]])
def test_a_matrix_entry_multiplied_past_the_digit_limit_is_an_input_error(folder, command):
    """Over Q each map of the chain a < b < c is 1/7...7 with 3000 sevens, so
    M(a <= c), which the reported legs and maps hold, has about 6000 digits."""
    paths = files(folder, "phi", "1")
    paths["poset"].write_text(json.dumps({"elements": ["a", "b", "c"],
                                          "covers": [["a", "b"], ["b", "c"]]}))
    paths["height"].write_text(json.dumps({"phi": {"a": 0, "b": 1, "c": 2}}))
    entry = [["1/" + "7" * 3000]]
    paths["M"].write_text(json.dumps({"field": "rational", "dims": {"a": 1, "b": 1, "c": 1},
                                      "maps": {"a|b": entry, "b|c": entry}}))
    code, out, err = run(["--field", "rational", command[0], "--poset", str(paths["poset"]),
                          "--height", str(paths["height"]), "--module", str(paths["M"]),
                          *command[1:]])
    assert code == 1 and out == "" and json.loads(err) == {
        "error": "an exact value has more digits than can be written"}


def test_a_modulus_in_a_field_object_must_be_a_numeral():
    from hipm.serde import SchemaError, parse_field

    assert parse_field({"kind": "gfp", "p": "11"}).p == 11
    with pytest.raises(SchemaError, match=r'^\$\.field\.p: bad modulus "1_1": not a numeral$'):
        parse_field({"kind": "gfp", "p": "1_1"})


@pytest.mark.parametrize("p", [7.9, 2.5, 7.0, True])
def test_a_float_or_boolean_modulus_is_rejected(tmp_path, p):
    """A JSON float or boolean modulus is not cut to an integer."""
    from hipm.serde import SchemaError, parse_field

    text = json.dumps(p)  # written as JSON: true, not True
    with pytest.raises(SchemaError,
                       match=rf"^\$\.field\.p: bad modulus {text}: {text} is not an integer$"):
        parse_field({"kind": "gfp", "p": p})
    poset, module = tmp_path / "poset.json", tmp_path / "module.json"
    poset.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"]]}))
    module.write_text(json.dumps({"field": {"kind": "gfp", "p": p}, "dims": {"a": 1, "b": 1},
                                  "maps": {"a|b": [[1]]}}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", "--poset", str(poset), "--module", str(module)])
    assert code == 1 and err.getvalue() == ""
    report = json.loads(out.getvalue())["module"]
    assert not report["valid"] and report["error"].startswith("$.field.p: bad modulus ")
