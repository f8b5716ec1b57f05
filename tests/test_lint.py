"""Every name a source or test file imports is used in that file, and no
source module keeps mutable state at module level.

An AST scan: a name bound by `import` or `from ... import` must be read
somewhere in the same file, or be listed in its `__all__`.  Package
`__init__.py` files re-export what they import and are skipped, and so are
`from __future__` imports.

A top-level name in `src/hipm` bound to an empty `{}`, `[]`, `dict()`,
`list()`, `set()` or `defaultdict(...)` has the shape of a cache or a
registry that fills at run time.  So does an attribute that an `__init__`
binds to None or to an empty container, to be filled later: a lazy slot or a
private memo beside the shared one, and so does a plain assignment of None or
an empty container in a class body, a slot shared by every instance
(annotated dataclass fields are per instance and pass).  Values derived from a
height-difference function or a module are memoized on their owner through
`Memo.cached` instead, and its `memo` dict is the one attribute exempt.
Non-empty constant tables and `functools.lru_cache` on pure functions pass.

No module in `src/hipm` but `randgen.py` imports `random` or reaches
`numpy.random`: every search is deterministic and exhaustive or budgeted, and
random draws belong to the seeded instance generators.

Only `pmod` and `exactlin` reach the bilinear search's internals: the search
`_bilinear_search`, the witness's solve `solve_candidate`, and the
compressed candidate family `compressed_family` and its batched consistency
test `batch_consistent` that the search runs on.  Every other module calls
`pmod.search_pair`, which builds the tensor, searches it and solves for the
certificate.

Every field of a dataclass in `src/hipm` is read as an attribute somewhere in
`src/hipm` or `perfbench`: a field that nothing reads, or that only tests
read, is computed and carried for no command.

`src/hipm` holds only what a command runs.  Every function and method is
read by code reachable from the modules' top level or from `cli.main`, or is
on the allow-list: `KEPT_BY_HAND`, each entry with its reason, and what
`perfbench` traces, reads off a traced result or imports, derived from its
files.  An export of `hipm/__init__.py` is not a root: every exported
function must be reached the same way.  A bare name counts as a read only
where the scope reading it does not bind it, so a local variable named like a
module-level function does not keep that function.  A hand-typed entry must
exist and have no caller in that reachable code.  Every `__all__` entry is
bound in its module, and every function of `tests/paper_statements.py`, the
oracles that check the paper's statements against the engine, is called by a
test.
"""

import ast
import symtable
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hipm").rglob("*.py"))
FILES = sorted(
    p for p in [*SOURCES, *(ROOT / "tests").rglob("*.py")] if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict:
    """{bound name: line} for every import in the file."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """Names read anywhere, in quoted annotations, and in `__all__`."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.update(m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                            if isinstance(m, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_scanner_sees_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport numpy as np\nfrom typing import List, Dict\n"
                   "__all__ = ['Dict']\n\ndef f(x: 'List[int]'):\n    return np.zeros(1)\n")
    assert unused_imports(src) == [(1, "os")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def _is_empty_container(node: ast.expr) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "defaultdict":
            return True
        return name in ("dict", "list", "set") and not node.args and not node.keywords
    return False


def module_level_state(path: Path) -> list:
    """(line, name) of every top-level name bound to an empty mutable container."""
    out = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_empty_container(value):
            out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return out


def test_scanner_sees_module_level_state(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from collections import defaultdict\nfrom functools import lru_cache\n"
                   "from typing import Dict\n_CACHE: Dict[tuple, object] = {}\nSEEN = set()\n"
                   "_BY = defaultdict(list)\nQUEUE = []\nTABLE = {'a': 1}\nNAMES = ['x']\n"
                   "EMPTY = ()\n\n@lru_cache(maxsize=None)\ndef f(p):\n    cache = {}\n"
                   "    return p\n")
    assert module_level_state(src) == [(4, "_CACHE"), (5, "SEEN"), (6, "_BY"), (7, "QUEUE")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_level_state(path):
    assert module_level_state(path) == []


def _unfilled(node: ast.expr) -> bool:
    """None or an empty container: a slot that is filled later."""
    return _is_empty_container(node) or isinstance(node, ast.Constant) and node.value is None


def class_level_state(path: Path) -> list:
    """(line, "Class.attr") of every plain assignment of None or an empty
    container in a class body."""
    return [(node.lineno, f"{cls.name}.{t.id}")
            for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.Assign) and _unfilled(node.value)
            for t in node.targets if isinstance(t, ast.Name)]


def test_scanner_sees_class_level_state(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from dataclasses import dataclass, field\n\nclass A:\n    _instance = None\n"
                   "    _seen = {}\n    NAMES = ('x',)\n    LIMIT = 4\n\n    def f(self):\n"
                   "        cache = []\n\n@dataclass\nclass B:\n"
                   "    x: list = field(default_factory=list)\n"
                   "    y: object = None\n    _by = _all = set()\n")
    assert class_level_state(src) == [(4, "A._instance"), (5, "A._seen"), (16, "B._by"),
                                      (16, "B._all")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_class_level_state(path):
    assert class_level_state(path) == []


def init_state(path: Path) -> list:
    """(line, "Class.attr") of every `self.attr` that an `__init__` binds to None
    or an empty container, other than the `memo` of `Memo`."""
    out = []
    for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if not _unfilled(value):
                    continue
                out += [(node.lineno, f"{cls.name}.{t.attr}") for t in targets
                        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                        and t.value.id == "self" and t.attr != "memo"]
    return out


def test_scanner_sees_init_state(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from typing import Dict\n\nclass A:\n    def __init__(self, x):\n"
                   "        self.x = x\n        self.memo = {}\n        self._key = None\n"
                   "        self._seen: Dict[int, int] = {}\n        self.names = ['a']\n"
                   "        cache = []\n\n    def reset(self):\n        self._key = None\n\n"
                   "class B(A):\n    def __init__(self):\n        self._crit = self._all = set()\n")
    assert init_state(src) == [(7, "A._key"), (8, "A._seen"), (17, "B._crit"), (17, "B._all")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_init_state(path):
    assert init_state(path) == []


def random_uses(path: Path) -> list:
    """(line, name) of every import of `random` or `numpy.random`, and of every
    `.random` read on a name bound to numpy."""
    tree = ast.parse(path.read_text(), filename=str(path))
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name.split(".")[0] == "numpy"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names
                    if a.name == "random" or a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "random" or module.startswith("numpy.random"):
                out.append((node.lineno, module))
            elif module == "numpy" and any(a.name == "random" for a in node.names):
                out.append((node.lineno, "numpy.random"))
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            out.append((node.lineno, f"{node.value.id}.random"))
    return sorted(out)


def test_scanner_sees_random_uses(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import random\nimport numpy as np\nfrom numpy import random as npr\n"
                   "from random import Random\nx = np.random.default_rng(0)\n"
                   "y = rng.random()\nimport numpy.random\nz = np.zeros(1)\n")
    assert random_uses(src) == [(1, "random"), (3, "numpy.random"), (4, "random"),
                                (5, "np.random"), (7, "numpy.random")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "randgen.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_randomness_outside_randgen(path):
    assert random_uses(path) == []


def _dataclass_fields(tree: ast.Module):
    """(line, class, field) for every annotated field of a `@dataclass` class."""
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list)):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield node.lineno, cls.name, node.target.id


def readers(root: Path) -> list:
    """The files whose attribute reads count as reads of a field: the package
    and the benchmark under `root`, never its tests."""
    return sorted(p for d in ("src/hipm", "perfbench") for p in (root / d).rglob("*.py")
                  if "_work" not in p.parts)


def unread_fields(sources, readers) -> list:
    """(file, line, "Class.field") of every dataclass field in `sources` that no
    file in `readers` reads as an attribute (`x.field` in a load context).
    Reads are matched by name only, so a read of the same name on another
    type also counts."""
    read = {n.attr for path in readers for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [(path.name, line, f"{cls}.{name}") for path in sources
            for line, cls, name in _dataclass_fields(ast.parse(path.read_text()))
            if name not in read]


def test_scanner_sees_unread_fields(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n"
                   "    x: int\n    y: int\n    z: list = field(default_factory=list)\n\n"
                   "@dataclass(frozen=True)\nclass B:\n    w: int\n\nclass C:\n    v: int\n\n"
                   "def f(a, b):\n    a.y = 1\n    return a.x + A(1, 2).z[0]\n")
    assert unread_fields([src], [src]) == [("mod.py", 6, "A.y"), ("mod.py", 11, "B.w")]


def test_scanner_does_not_count_a_read_in_the_tests(tmp_path):
    for d in ("src/hipm", "tests", "perfbench"):
        (tmp_path / d).mkdir(parents=True)
    src = tmp_path / "src" / "hipm" / "mod.py"
    src.write_text("from dataclasses import dataclass\n\n@dataclass\nclass A:\n    x: int\n"
                   "    y: int\n    z: int\n\n\ndef f(a):\n    return a.x\n")
    (tmp_path / "tests" / "test_mod.py").write_text("def test_y(a):\n    assert a.y == 1\n")
    (tmp_path / "perfbench" / "run.py").write_text("def g(a):\n    return a.z\n")
    assert unread_fields([src], readers(tmp_path)) == [("mod.py", 6, "A.y")]


def test_no_unread_dataclass_fields():
    assert unread_fields(SOURCES, readers(ROOT)) == []


BILINEAR_INTERNALS = ("_bilinear_search", "solve_candidate", "compressed_family",
                      "batch_consistent")


def bilinear_internals(path: Path) -> list:
    """(line, name) of every import or attribute read of a name in
    BILINEAR_INTERNALS."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, a.name) for a in node.names if a.name in BILINEAR_INTERNALS]
        elif isinstance(node, ast.Attribute) and node.attr in BILINEAR_INTERNALS:
            out.append((node.lineno, node.attr))
    return sorted(out)


def test_scanner_sees_bilinear_internals(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .exactlin import DEFAULT_BUDGET, _bilinear_search, solve_candidate\n"
                   "from .exactlin import (hom_basis,\n    compressed_family, search_pair)\n"
                   "from . import exactlin\n\ndef f(t, b):\n"
                   "    return exactlin._bilinear_search(t, b), search_pair, hom_basis\n\n"
                   "def g(s, p):\n    return exactlin.batch_consistent(s, p)\n")
    assert bilinear_internals(src) == [(1, "_bilinear_search"), (1, "solve_candidate"),
                                       (2, "compressed_family"), (7, "_bilinear_search"),
                                       (10, "batch_consistent")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ("pmod.py", "exactlin.py")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_pmod_and_exactlin_reach_the_bilinear_internals(path):
    assert bilinear_internals(path) == []


def _defs(path: Path):
    """(line, qualified name, bare name, node) of every top-level function and
    every method in the module, qualified as `module.f` or `module.Class.m`."""
    mod = path.stem
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.lineno, f"{mod}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub.lineno, f"{mod}.{node.name}.{sub.name}", sub.name, sub


def _refs(*nodes: ast.AST) -> set:
    """Every name read in the nodes, as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _top_refs(path: Path) -> set:
    """Names read by the module's top-level code, decorators and class bodies
    included, but not by any function or method body."""
    out = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ClassDef):
            out |= _refs(*node.bases, *node.decorator_list)
            body = node.body
        else:
            body = [node]
        for sub in body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out |= _refs(*sub.decorator_list)
            else:
                out |= _refs(sub)
    return out


def _tables(table: symtable.SymbolTable):
    """The symbol table and every table nested in it."""
    yield table
    for child in table.get_children():
        yield from _tables(child)


def _scopes(path: Path) -> dict:
    """{(name, line): symbol table} of every scope in the module."""
    return {(t.get_name(), t.get_lineno()): t
            for t in _tables(symtable.symtable(path.read_text(), str(path), "exec"))}


def _body_reads(node: ast.AST, table: symtable.SymbolTable) -> set:
    """What a function reads: every attribute name, and every bare name that
    the function, or a scope nested in it, reads without binding it.  A local
    variable that shares a module-level function's name is not a read of it."""
    return ({n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {s.get_name() for t in _tables(table) for s in t.get_symbols()
               if s.is_referenced() and s.is_global()})


def exported(package: Path) -> set:
    """`module.name` for every name the package's `__init__.py` imports from a module."""
    tree = ast.parse((package / "__init__.py").read_text())
    return {f"{node.module}.{a.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for a in node.names}


def uncalled(package: Path, roots) -> list:
    """(file, line, name) of every function and method of `package` that no
    code reachable from `roots` reads.  Reachable is a fixed point: the
    modules' top-level code, the roots and every dunder method, then each
    function whose name a reachable body reads (`_body_reads`).  Attribute
    names are matched bare, so a read of a method's name on any object counts.
    An export is not a root."""
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    defs = [(p, *d) for p in modules for d in _defs(p)]
    scopes = {p: _scopes(p) for p in modules}
    live, read = set(), set().union(*(_top_refs(p) for p in modules))
    grew = True
    while grew:
        grew = False
        for p, _, q, name, node in defs:
            if q not in live and (q in roots or name in read
                                  or name.startswith("__") and name.endswith("__")):
                live.add(q)
                read |= _body_reads(node, scopes[p][name, node.lineno]) - {name}
                grew = True
    return [(p.name, line, q) for p, line, q, _, _ in defs if q not in live]


def unreached_exports(package: Path, roots) -> list:
    """Every function the package's `__init__.py` exports that no code
    reachable from `roots` reads."""
    return [q for _, _, q in uncalled(package, roots) if q in exported(package)]


PACKAGE = ROOT / "src" / "hipm"
BENCH = ROOT / "perfbench"
# what every command runs through
COMMAND = "cli.main"
# kept although nothing a command runs calls them, each for the reason given
KEPT_BY_HAND = {
    "cli._Parser.error": "argparse calls it on every usage error",
}


def kept_for_perfbench(bench: Path) -> dict:
    """{`module.name`: reason} for what the benchmark names: every target of
    the span tracer, every method or property its metrics read off a traced
    result, and every name `perfbench/*.py` imports from hipm.  Derived from
    the benchmark's files, never typed."""
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import spans

    methods = {}
    for path in SOURCES:
        for _, q, name, _ in _defs(path):
            methods.setdefault(name, []).append(q)
    out = {}
    for _, modname, attr, extra in spans.TARGETS:
        out[f"{modname.split('.', 1)[1]}.{attr}"] = "traced by perfbench/spans.py"
        for read in (extra.__code__.co_names if extra is not None else ()):
            out.update(dict.fromkeys(methods.get(read, []), "read by a perfbench/spans.py metric"))
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hipm."):
                mod = node.module.split(".", 1)[1]
                out.update({f"{mod}.{a.name}": f"imported by perfbench/{path.name}"
                            for a in node.names})
    return out


def kept() -> dict:
    """The allow-list: the hand-typed entries, and the benchmark's names that
    nothing a command runs reaches."""
    unreached = {q for _, _, q in uncalled(PACKAGE, {COMMAND, *KEPT_BY_HAND})}
    return {**KEPT_BY_HAND, **{q: why for q, why in kept_for_perfbench(BENCH).items()
                               if q in unreached}}


def test_scanner_sees_an_uncalled_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import helper\n\n\ndef run(x):\n    return helper(x) + Box(x).size()\n\n\n"
        "def planted(x):\n    return _only_planted(x)\n\n\ndef _only_planted(x):\n    return x\n\n\n"
        "class Box:\n    def __init__(self, x):\n        self.x = x\n\n    def size(self):\n"
        "        return self.x\n\n    def unused(self):\n        return self.size()\n")
    (tmp_path / "b.py").write_text("def helper(x):\n    return x\n\n\ndef kept_one(x):\n"
                                   "    return _under_kept(x)\n\n\ndef _under_kept(x):\n    return x\n")
    assert uncalled(tmp_path, {"a.run", "b.kept_one"}) == [
        ("a.py", 8, "a.planted"), ("a.py", 12, "a._only_planted"), ("a.py", 23, "a.Box.unused")]
    assert uncalled(tmp_path, {"a.run"})[-2:] == [("b.py", 5, "b.kept_one"),
                                                  ("b.py", 9, "b._under_kept")]


def test_scanner_does_not_count_a_local_of_the_same_name(tmp_path):
    """A parameter, a local variable, a loop target or a nested function named
    like a module-level function is not a read of it; a nested scope's read of
    the module-level name is."""
    (tmp_path / "cli.py").write_text(
        "def main(xs, shape):\n    flat = [x for x in xs]\n    for part in flat:\n        pass\n"
        "    def stack(y):\n        return y\n    return stack(flat), shape, lambda: wrap(xs)\n\n\n"
        "def flat(m):\n    return m\n\n\ndef part(m):\n    return m\n\n\ndef stack(m):\n"
        "    return m\n\n\ndef shape(m):\n    return m\n\n\ndef wrap(m):\n    return m\n")
    assert uncalled(tmp_path, {COMMAND}) == [("cli.py", 10, "cli.flat"), ("cli.py", 14, "cli.part"),
                                             ("cli.py", 18, "cli.stack"),
                                             ("cli.py", 22, "cli.shape")]


def test_scanner_sees_an_export_no_command_reaches(tmp_path):
    (tmp_path / "__init__.py").write_text("from .cli import main\nfrom .a import oracle, used\n")
    (tmp_path / "cli.py").write_text("from .a import used\n\n\ndef main():\n    return used()\n")
    (tmp_path / "a.py").write_text("def used():\n    return 1\n\n\ndef oracle():\n    return 2\n")
    assert unreached_exports(tmp_path, {COMMAND}) == ["a.oracle"]
    assert unreached_exports(tmp_path, {COMMAND, "a.oracle"}) == []


def test_every_function_in_src_is_reached_from_a_command_or_kept():
    assert uncalled(PACKAGE, {COMMAND, *kept()}) == []


def test_every_exported_function_is_reached_from_a_command_or_kept():
    assert unreached_exports(PACKAGE, {COMMAND, *kept()}) == []


def test_every_hand_kept_entry_exists_and_has_no_caller():
    """An entry that is gone, or that code a command runs now calls, is stale."""
    defined = {q for p in SOURCES for _, q, _, _ in _defs(p)}
    unreached = {q for _, _, q in uncalled(PACKAGE, {COMMAND})}
    assert set(KEPT_BY_HAND) <= defined & unreached


def _bound(tree: ast.Module) -> set:
    """Every name the module's top level binds: definitions, assignments, imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target]):
                out |= {n.id for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
    return out


def test_every_name_the_benchmark_imports_exists():
    bound = {f"{p.stem}.{name}" for p in SOURCES for name in _bound(ast.parse(p.read_text()))}
    assert [q for q, why in kept_for_perfbench(BENCH).items()
            if why.startswith("imported") and q not in bound] == []


def stale_all(path: Path) -> list:
    """Every `__all__` entry that the module does not bind."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [n for node in tree.body if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
             for n in ast.literal_eval(node.value)]
    return [n for n in names if n not in _bound(tree)]


def test_scanner_sees_a_stale_all_entry(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from x import y\n__all__ = ['f', 'C', 'K', 'y', 'gone']\nK = 1\n\n"
                   "def f():\n    pass\n\nclass C:\n    pass\n")
    assert stale_all(src) == ["gone"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_all_entry_is_bound(path):
    assert stale_all(path) == []


def test_every_paper_statement_is_called_by_a_test():
    """`tests/paper_statements.py` holds oracles for the tests only: each
    function is read by a test module, or by a function there that is."""
    here = ROOT / "tests"
    defs = {name: node for _, _, name, node in _defs(here / "paper_statements.py")}
    read = _refs(*(ast.parse(p.read_text()) for p in here.glob("test_*.py")))
    live = set()
    while new := {name for name in defs if name in read} - live:
        live |= new
        read |= _refs(*(defs[name] for name in new))
    assert sorted(set(defs) - live) == []
