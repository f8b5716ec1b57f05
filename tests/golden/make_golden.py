"""Write the golden CLI corpus: input files plus the expected report of every command.

    PYTHONPATH=src python tests/golden/make_golden.py

Each command runs in process through `hipm.cli.main`.  It loads its own modules,
and every functor value is memoized on the module it was applied to, so each
command starts from nothing, as a fresh `hipm` process would.  Commands that
exit 0 (computed) or 2 (undecided) are kept with their exact stdout; the rest
are dropped, since their output is an error message rather than a report,
except the few that `rejection_commands` lists on purpose, which are kept with
exit 1 and their stderr too.  `tests/test_golden.py` replays the corpus and
requires byte-identical reports, so rerun this script only when a change of
report is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from hipm.cli import main  # noqa: E402
from hipm.exactlin import FieldSpec  # noqa: E402
from hipm.fixtures import bipath_example, chain_example, grid_example  # noqa: E402
from hipm.pmod import direct_sum, interval_module  # noqa: E402
from hipm.poset import FinitePoset  # noqa: E402
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset  # noqa: E402
from hipm.serde import module_to_json, poset_to_json  # noqa: E402

INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected.json"

SCALES = ["0", "1/2", "1", "2"]
FIELD_NAMES = {2: "gf2", 3: "gf3"}


def field_arg(f: FieldSpec) -> str:
    return FIELD_NAMES.get(f.p, f"gfp:{f.p}") if f.is_prime_field else "rational"


def write_input(name, doc):
    """Write inputs/NAME.json and return its "@inputs/NAME.json" argument."""
    path = INPUTS / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return f"@inputs/{path.name}"


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call, or None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a traceback at this commit: not a report
        return None
    return code, out.getvalue(), err.getvalue()


def resolve(argv):
    """Input arguments are stored as "@inputs/NAME.json", relative to this directory."""
    return [str(HERE / a[1:]) if a.startswith("@") else a for a in argv]


class Instance:
    """One poset, height and module pair, written under inputs/ as NAME_*.json."""

    def __init__(self, name, poset, height_doc, m, n, field, grid=None):
        self.name, self.poset, self.field = name, poset, field
        self.files = {}
        self._write("poset", poset_to_json(poset))
        if grid is not None:  # poset_to_json drops coordinates: oracle-grid loads the grid itself
            self._write("grid", {"grid": list(grid)})
        self._write("height", height_doc)
        self._write("M", module_to_json(m))
        self._write("N", module_to_json(n))
        # xi: the pullback along the inclusion of every other element
        sub = poset.elements[::2]
        pairs = [[a, b] for a in sub for b in sub
                 if a != b and poset.leq[poset.idx(a), poset.idx(b)]]
        self._write("sub", {"elements": list(sub), "covers": pairs})
        self._write("incl", {"map": {e: e for e in sub}})

    def _write(self, key, doc):
        self.files[key] = write_input(f"{self.name}_{key}", doc)

    def on_height(self, cmd):
        f = self.files
        return ["--field", field_arg(self.field), cmd, "--poset", f["poset"], "--height", f["height"]]

    def base(self, cmd, module="M"):
        return self.on_height(cmd) + ["--module", self.files[module]]

    def commands(self):
        out = []
        for mod in ("M", "N"):
            for kind in ("L", "R", "E", "Im", "Ker"):
                for r in SCALES:
                    out.append(self.base("functor", mod) + ["--kind", kind, "--r", r])
        for d in ("L", "R"):
            for s, r in (("1/2", "1"), ("1", "1"), ("0", "2")):
                out.append(self.base("functor") + ["--kind", "T", "--s", s, "--r", r,
                                                   "--direction", d])
        for r in SCALES:
            out.append(self.base("nat") + ["--name", "e", "--r", r])
        for s, r in (("1", "1/2"), ("2", "1"), ("2", "0")):
            out.append(self.base("nat") + ["--name", "etaL", "--s", s, "--r", r])
            out.append(self.base("nat") + ["--name", "etaR", "--s", s, "--r", r])
        for s, r in (("1/2", "1/2"), ("1", "1")):
            out.append(self.base("nat") + ["--name", "muL", "--s", s, "--r", r])
            out.append(self.base("nat") + ["--name", "muR", "--s", s, "--r", r])
        for d in ("L", "R"):
            for s, r in (("1/2", "1"), ("1", "1")):
                for name in ("kappa", "tau"):
                    out.append(self.base("nat") + ["--name", name, "--s", s, "--r", r,
                                                   "--direction", d])
                for name in ("theta", "sigma"):
                    for c in ("0", "1"):
                        out.append(self.base("nat") + ["--name", name, "--s", s, "--r", r,
                                                       "--c", c, "--direction", d])
            for r in ("1/2", "1"):
                out.append(self.base("nat") + ["--name", "xi", "--r", r, "--direction", d,
                                               "--poset2", self.files["sub"],
                                               "--map", self.files["incl"]])
        pair = ["--module2", self.files["N"]]
        out.append(self.base("distance") + pair)
        out.append(self.base("en-distance") + pair)
        out.append(["--budget", "20"] + self.base("en-distance") + pair)
        for r in SCALES:
            out.append(self.base("interleave") + pair + ["--r", r])
        out.append(["--budget", "2"] + self.base("distance") + pair)
        out.append(self.on_height("cip"))
        out.append(self.on_height("c-rho"))
        for c in ("0", "1"):
            out.append(self.on_height("ivc") + ["--c", c])
        out.append(self.base("validate"))
        out.append(self.base("pullback") + ["--poset2", self.files["sub"],
                                            "--map", self.files["incl"]])
        if "grid" in self.files:
            out.append(["--field", field_arg(self.field), "oracle-grid",
                        "--poset", self.files["grid"], "--module", self.files["M"]] + pair)
        return out


def instances():
    GF2, GF3, QQ = FieldSpec("gfp", 2), FieldSpec("gfp", 3), FieldSpec("rational")
    out = []
    for f in (GF2, GF3):
        ex = grid_example(f)
        other = random_module(random.Random(f.p), ex.poset, f, max_dim=2)
        phi = {e: str(v) for e, v in ex.phi.phi.items()}
        out.append(Instance(f"grid{f.p}", ex.poset, {"phi": phi}, ex.module, other, f,
                            grid=[4, 3]))
    ch = chain_example(2)
    phi = {e: str(v) for e, v in ch.phi.phi.items()}
    out.append(Instance("chainMN", ch.poset, {"phi": phi}, ch.M, ch.N, GF2))
    out.append(Instance("chainMX", ch.poset, {"phi": phi}, ch.M, ch.X, GF2))
    bp = bipath_example(6)
    rng = random.Random(6)
    phi = {e: str(v) for e, v in bp.phi.phi.items()}
    out.append(Instance("bipath", bp.poset, {"phi": phi},
                        random_module(rng, bp.poset, GF2, max_dim=2),
                        random_module(rng, bp.poset, GF2, max_dim=2), GF2))
    for seed in range(6):
        rng = random.Random(1000 + seed)
        f = GF2 if seed < 3 else GF3
        if seed % 2 == 0:
            P = random_poset(rng, rng.randint(5, 7))
        else:
            P = random_forest_poset(rng, rng.randint(5, 7))
        phi = random_phi(rng, P, max_step=2, denominator=2)
        doc = {"phi": {e: str(v) for e, v in phi.phi.items()}}
        m = random_module(rng, P, f, max_dim=2)
        n = random_module(rng, P, f, max_dim=2)
        out.append(Instance(f"rand{seed}", P, doc, m, n, f))
    rng = random.Random(2000)
    P = random_poset(rng, 5)
    phi = random_phi(rng, P, max_step=2)
    doc = {"phi": {e: str(v) for e, v in phi.phi.items()}}
    out.append(Instance("ratdag", P, doc, random_module(rng, P, QQ, max_dim=2),
                        random_module(rng, P, QQ, max_dim=2), QQ))
    return out


def repro_commands():
    out = []
    for f in ("gf2", "gf3"):
        out.append(["--field", f, "repro", "grid"])
        for C in ("2", "3", "5/2"):
            out.append(["--field", f, "repro", "chain", "--C", C])
        for G in ("6", "8"):
            out.append(["--field", f, "repro", "bipath", "--G", G])
    return out


def stress_commands():
    """The GF(3) stress pair of `tests/test_bilinear.py`: four copies of the
    interval [c1, c4] on the 8-chain against the same shifted up by 1, with the
    diagonal height.  Its 1-interleaving sits past half a million candidates,
    so at `--budget 2` the distance stays undecided."""
    GF3 = FieldSpec("gfp", 3)
    g = FinitePoset.grid([8])

    def copies(lo, hi):
        one = interval_module(g, list(g.elements[lo:hi + 1]), GF3)
        out = one
        for _ in range(3):
            out = direct_sum(out, one)
        return out

    files = {key: write_input(f"stress_{key}", doc)
             for key, doc in (("poset", {"grid": [8]}), ("height", {"diag": True}),
                              ("M", module_to_json(copies(1, 4))),
                              ("N", module_to_json(copies(2, 5))))}
    return [["--budget", "2", "--field", "gf3", "distance", "--poset", files["poset"],
             "--height", files["height"], "--module", files["M"], "--module2", files["N"]]]


def extra_commands(inst):
    """Paths the instances never take: `distortion` between inst's height and a
    second one on its poset, `galois` for a chain and its refinement (once a
Galois insertion, once with an iota that is neither an embedding nor a left
adjoint), an
    `en-distance` whose strata reach the enumeration stage's cross test (the
    instance of `tests/test_en_buckets.py` at seed 1: a 3-element forest and a
    twin module), two whose enumeration decides a stratum (seed 1068: one "yes";
    seed 276: a "no" and a "yes"), and a height with infinite values (the chain
    a < b < c plus a < d, with rho(b, c) = rho(a, c) = inf)."""
    sys.path.insert(0, str(HERE.parent))
    from test_en_buckets import instance

    phi2 = random_phi(random.Random(3000), inst.poset, max_step=3, denominator=2)
    height2 = write_input(f"{inst.name}_height2", {"phi": {e: str(v) for e, v in phi2.phi.items()}})
    out = [inst.on_height("distortion") + ["--height2", height2]]

    p1 = write_input("galois_P", {"elements": ["0", "1"], "covers": [["0", "1"]]})
    p2 = write_input("galois_P2", {"elements": ["0", "h", "1"],
                                   "covers": [["0", "h"], ["h", "1"]]})
    iota = write_input("galois_iota", {"map": {"0": "0", "1": "1"}})
    pi = write_input("galois_pi", {"map": {"0": "0", "h": "0", "1": "1"}})
    out.append(["galois", "--poset", p1, "--poset2", p2, "--iota", iota, "--pi", pi])
    # iota collapses the chain, so it is neither an embedding nor left adjoint to pi
    collapse = write_input("galois_collapse", {"map": {"0": "0", "1": "0"}})
    out.append(["galois", "--poset", p1, "--poset2", p2, "--iota", collapse, "--pi", pi])

    rho, m, n, budget = instance(1, 3, True, FieldSpec("gfp", 2), True, 65536)
    els = rho.poset.elements
    files = [write_input("enbucket_poset", poset_to_json(rho.poset)),
             write_input("enbucket_height", {"rho": [[els[i], els[j], str(v)]
                                                     for (i, j), v in sorted(rho.values.items())]}),
             write_input("enbucket_M", module_to_json(m)),
             write_input("enbucket_N", module_to_json(n))]
    out.append(["--budget", str(budget), "--field", "gf2", "en-distance",
                *[x for flag, f in zip(("--poset", "--height", "--module", "--module2"), files)
                  for x in (flag, f)]])

    GF2 = FieldSpec("gfp", 2)
    for seed in (1068, 276):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        P = random_poset(rng, n, 0.4)
        phi = random_phi(rng, P)
        m, m2 = (random_module(rng, P, GF2, max_dim=2, summands=2 * n) for _ in range(2))
        enum = Instance(f"enum{seed}", P, {"phi": {e: str(v) for e, v in phi.phi.items()}},
                        m, m2, GF2)
        out.append(enum.base("en-distance") + ["--module2", enum.files["N"]])

    P = FinitePoset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "d")])
    rng = random.Random(4000)
    inf = Instance("infchain", P, {"rho": [["a", "b", "1"], ["b", "c", "inf"], ["a", "c", "inf"],
                                           ["a", "d", "2"]]},
                   random_module(rng, P, GF2, max_dim=2), random_module(rng, P, GF2, max_dim=2), GF2)
    pair = ["--module2", inf.files["N"]]
    out += [inf.base("validate"), inf.on_height("cip"), inf.on_height("c-rho"),
            inf.on_height("ivc") + ["--c", "0"], inf.on_height("ivc") + ["--c", "1"],
            inf.base("distance") + pair, inf.base("en-distance") + pair]
    return out


def escaped_id_commands():
    """A poset whose ids hold non-ASCII characters, quotes and backslashes, so
    the reports write them as escaped JSON strings: `validate`, `c-rho`, `cip`
    and `distance`."""
    GF2 = FieldSpec("gfp", 2)
    els = ["café", 'q"t', "b\\s", "日本", "zü\"\\"]
    P = FinitePoset.from_covers(els, [(els[0], els[1]), (els[0], els[2]), (els[1], els[3]),
                                      (els[2], els[3]), (els[2], els[4])])
    rng = random.Random(5000)
    phi = random_phi(rng, P, max_step=2, denominator=2)
    inst = Instance("escaped", P, {"phi": {e: str(v) for e, v in phi.phi.items()}},
                    random_module(rng, P, GF2, max_dim=2), random_module(rng, P, GF2, max_dim=2),
                    GF2)
    return [inst.base("validate"), inst.on_height("c-rho"), inst.on_height("cip"),
            inst.base("distance") + ["--module2", inst.files["N"]]]


def empty_poset_commands():
    """The empty poset: `cip`, `c-rho`, `ivc`, `distance` and `en-distance`."""
    files = {key: write_input(f"empty_{key}", doc)
             for key, doc in (("poset", {"elements": [], "covers": []}), ("height", {"phi": {}}),
                              ("M", {"field": {"kind": "gfp", "p": 2}, "dims": {}, "maps": {}}))}
    on_height = ["--poset", files["poset"], "--height", files["height"]]
    pair = ["--module", files["M"], "--module2", files["M"]]
    return [["cip"] + on_height, ["c-rho"] + on_height, ["ivc"] + on_height + ["--c", "1"],
            ["distance"] + on_height + pair, ["en-distance"] + on_height + pair]


def budget_and_big_value_commands(insts):
    """`cip` runs that stop at the budget and a `c-rho` on big numbers: on
    grid2, whose witness is test 681, budgets 1 and 680 stop short of it
    (exit 2) and 681 finds it exactly at the budget (exit 0); bipath stops at
    budget 5.  The `c-rho` height is a diamond whose values, written over their
    common denominator 21, pass 2**63."""
    by_name = {i.name: i for i in insts}
    out = [["--budget", str(b)] + by_name["grid2"].on_height("cip") for b in (1, 680, 681)]
    out.append(["--budget", "5"] + by_name["bipath"].on_height("cip"))
    poset = write_input("bigvalue_poset", {"elements": ["a", "b", "c", "d"],
                                           "covers": [["a", "b"], ["a", "c"], ["b", "d"],
                                                      ["c", "d"]]})
    table = [["a", "b", 2**64], ["b", "d", 2**63 + Fraction(1, 3)], ["a", "c", 3 * 2**62],
             ["c", "d", 2**62 + Fraction(2, 7)], ["a", "d", 2**65 + 5]]
    height = write_input("bigvalue_height", {"rho": [[a, b, str(v)] for a, b, v in table]})
    out.append(["c-rho", "--poset", poset, "--height", height])
    return out


def rejection_commands(insts):
    """Commands that exit 1 on purpose, on a map that reverses grid2's order
    (the chain lo < hi sent to its top and bottom): `pullback` reports the
    violation, and `nat --name xi` refuses to pull back along it."""
    grid = next(i for i in insts if i.name == "grid2")
    chain = write_input("reverse_P", {"elements": ["lo", "hi"], "covers": [["lo", "hi"]]})
    f = write_input("reverse_map", {"map": {"lo": "v_3_2", "hi": "v_0_0"}})
    along = ["--poset2", chain, "--map", f]
    return [grid.base("pullback") + along,
            grid.base("nat") + ["--name", "xi", "--r", "1", "--direction", "L"] + along]


def build():
    INPUTS.mkdir(exist_ok=True)
    for old in INPUTS.glob("*.json"):
        old.unlink()
    insts = instances()
    commands = ([c for inst in insts for c in inst.commands()] + repro_commands()
                + stress_commands()
                + extra_commands(next(i for i in insts if i.name == "rand0"))
                + escaped_id_commands() + empty_poset_commands()
                + budget_and_big_value_commands(insts))
    corpus, dropped = [], []
    for argv in commands:
        res = run(resolve(argv))
        if res is None or res[0] not in (0, 2):
            dropped.append(argv)
            continue
        corpus.append({"argv": argv, "exit": res[0], "stdout": res[1]})
    for argv in rejection_commands(insts):
        code, out, err = run(resolve(argv))
        assert code == 1, (argv, code)
        corpus.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    EXPECTED.write_text(json.dumps(corpus, indent=0, sort_keys=True) + "\n")
    print(f"{len(corpus)} of {len(commands)} commands kept")
    for argv in dropped:
        print("dropped:", " ".join(argv))


if __name__ == "__main__":
    build()
