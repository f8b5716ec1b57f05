"""An in-process argv sweep over the golden inputs, and what it leaves memoized.

Every `nat --name` in both directions and every `functor --kind`, at scales
below, equal to and above one another, `nat --name xi` along an identity and
an order-reversing map, and `oracle-grid` over GF(2) and over Q: each command
must end in exit code 0, 1 or 2 with nothing escaping `cli.main`, and exit 1
must write exactly one JSON object with an `error` to stderr.

The same sweep, with `distance` and `en-distance` on each input, records the
key of every memo request a module gets.  Values that no command reads back
(e_r, eta, mu, im_r, ker_r, the erosion subquotient, eta's components) are
built directly, so none of their families may appear.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hipm import cli
from hipm.pmod import PersistenceModule
from hipm.poset import Memo

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
NAMES = ["e", "etaL", "etaR", "muL", "muR", "kappa", "tau", "theta", "sigma", "xi"]
KINDS = ["L", "R", "T", "E", "Im", "Ker"]
SCALES = [("1", "2", None), ("2", "1", None), ("0", "0", None), ("1/2", "3", "1"),
          ("1", "1", "0")]
DROPPED = {"e", "eta-id", "im", "ker", "erosion-sq", "etaL", "etaR", "muL", "muR"}


def _inputs(tmp_path):
    """{name: (poset, height, M, N)}: chainMN and grid3, and grid2's M over Q
    as both modules (grid2's N is no functor over Q)."""
    rational = json.loads((INPUTS / "grid2_M.json").read_text())
    rational["field"] = "rational"
    q = tmp_path / "grid2_Q.json"
    q.write_text(json.dumps(rational))
    out = {name: tuple(str(INPUTS / f"{name}_{part}.json")
                       for part in ("poset", "height", "M", "N"))
           for name in ("chainMN", "grid3")}
    out["grid2Q"] = (str(INPUTS / "grid2_poset.json"), str(INPUTS / "grid2_height.json"),
                     str(q), str(q))
    return out


def _maps(tmp_path, name, poset):
    """The identity and the order-reversing map of a poset onto itself."""
    elements = json.loads(Path(poset).read_text())["elements"]
    out = []
    for label, image in (("id", elements), ("rev", elements[::-1])):
        path = tmp_path / f"{name}_{label}.json"
        path.write_text(json.dumps({"map": dict(zip(elements, image))}))
        out.append(str(path))
    return out


def _sweep(tmp_path):
    for name, (poset, height, m, n) in _inputs(tmp_path).items():
        common = ["--poset", poset, "--height", height, "--module", m]
        for r, s, c in SCALES:
            scales = ["--r", r, "--s", s]
            for kind in KINDS:
                for direction in ("L", "R"):
                    yield ["functor", *common, "--kind", kind, *scales, "--direction", direction]
            for nat in NAMES:
                for direction in ("L", "R"):
                    yield ["nat", *common, "--name", nat, *scales, *(["--c", c] if c else []),
                           "--direction", direction]
        for f in _maps(tmp_path, name, poset):
            yield ["nat", *common, "--name", "xi", "--r", "1", "--poset2", poset, "--map", f]
        for command in ("distance", "en-distance"):
            yield [command, *common, "--module2", n]
    grid = str(INPUTS / "grid2_grid.json")
    yield ["oracle-grid", "--poset", grid, "--module", str(INPUTS / "grid2_M.json"),
           "--module2", str(INPUTS / "grid2_N.json")]
    q = str(tmp_path / "grid2_Q.json")
    yield ["oracle-grid", "--poset", grid, "--module", q, "--module2", q]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(argv, exit code or escaped exception, stderr) of every command, and
    the first element of every memo key a module was asked for."""
    tmp_path = tmp_path_factory.mktemp("sweep")
    families = set()
    cached = Memo.cached

    def recording(self, key, build):
        if isinstance(self, PersistenceModule):
            families.add(key[0])
        return cached(self, key, build)

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Memo, "cached", recording)
        for argv in _sweep(tmp_path):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except (Exception, SystemExit) as e:  # what escaped is the finding
                    code = e
            runs.append((argv, code, err.getvalue()))
    return runs, families


def test_every_command_exits_with_a_code_and_a_json_error(sweep):
    runs, _ = sweep
    assert len(runs) > 400
    for argv, code, err in runs:
        assert code in (0, 1, 2), (" ".join(argv), code)
        if code == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and "error" in json.loads(lines[0]), (" ".join(argv), err)


def test_the_sweep_reaches_each_rejection(sweep):
    errors = [err for _, code, err in sweep[0] if code == 1]
    for needle in ("--s: etaL needs s >= r", "--s: etaR needs s >= r",
                   "--map: not order-preserving", "--module: the shift oracle"):
        assert any(needle in err for err in errors), needle


def test_no_module_memoizes_a_value_nothing_reads_back(sweep):
    _, families = sweep
    assert {"R", "L", "TL", "TR", "lim", "colim", "induced", "etaL-id",
            "etaR-id"} <= families
    assert not families & DROPPED, families & DROPPED
