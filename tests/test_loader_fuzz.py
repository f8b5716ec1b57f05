"""A small loader fuzzer: mutations of small golden inputs, in process.

A mutation drops a key, renames a key to an id that names no element, or puts
a float, a bool, a string, a list, an unknown element id or a negative number
where a value was.  `cli.main` runs a command on the mutated inputs with a
small budget.  It must raise nothing and exit 0, 1 or 2, and exit 1 must be
one JSON object with "error" on stderr (for `validate`, which reports each
document, a report on stdout with an invalid entry).  No mutation grows a
dimension, so every run stays small.

Every single mutation is run once, under `validate`, `distance` or `c-rho`.
Then a seeded sample of multi-mutation cases puts 2 or 3 mutations in
different documents of one case (poset, height and modules) and runs
`validate`, `distance`, `en-distance` or `c-rho` on them.

A seeded argv fuzzer holds every command to the same property.  Each case
takes a command of `cli._COMMANDS` and a random subset of its flags, and
sometimes an unknown or a repeated flag.  A value is a golden input file, a
value the golden corpus passes to that flag, or a hostile numeral; `--budget`
is never above 64.
"""

import copy
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from hipm.cli import _COMMANDS, main

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
CASES = ["chainMN", "rand0", "bipath"]
ROLES = ("poset", "height", "M", "N")
GHOST = "ghost"
VALUES = {"float": 0.5, "bool": True, "string": "x", "list": [1]}


def paths(doc, at=()):
    """Every path below the root of a JSON document: dict keys and list indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from paths(value, at + (key,))


def mutations(doc):
    """(path, mutation, mutated copy) for every path and every mutation that applies there."""
    def mutated(path, change):
        out = copy.deepcopy(doc)
        change(reduce(getitem, path[:-1], out), path[-1])
        return out

    def put(new):
        return lambda parent, key: parent.__setitem__(key, new)

    for path in paths(doc):
        parent, value = reduce(getitem, path[:-1], doc), reduce(getitem, path, doc)
        if isinstance(parent, dict):
            yield path, "drop", mutated(path, lambda p, k: p.pop(k))
            yield path, "unknown key", mutated(path, lambda p, k: p.__setitem__(GHOST, p.pop(k)))
        for name, new in VALUES.items():
            yield path, name, mutated(path, put(new))
        if isinstance(value, str):
            yield path, "unknown id", mutated(path, put(GHOST))
        if type(value) is int:
            yield path, "negative", mutated(path, put(-value - 1))


# the documents each command loads, by role
LOADS = {"validate": ("poset", "height", "M"), "c-rho": ("poset", "height"),
         "distance": ROLES, "en-distance": ROLES}


def commands(role):
    """The single-mutation commands that load a document of this role."""
    return [cmd for cmd in ("validate", "distance", "c-rho") if role in LOADS[cmd]]


def runs():
    """Every (case, role, command, path, mutation, document), the commands
    taken in turn for the documents that more than one command loads."""
    out = []
    for case in CASES:
        for role in ROLES:
            doc = json.loads((INPUTS / f"{case}_{role}.json").read_text())
            cmds = commands(role)
            out += [(case, role, cmds[i % len(cmds)], path, name, bad)
                    for i, (path, name, bad) in enumerate(mutations(doc))]
    return out


def argv(command, files):
    flags = {"poset": "--poset", "height": "--height", "M": "--module", "N": "--module2"}
    return ["--budget", "64", command] + [x for role in LOADS[command]
                                          for x in (flags[role], str(files[role]))]


# the commands whose exit 1 may instead be a report on stdout of a failed
# check, and what that report must show
FAILED_CHECK = {
    "validate": lambda report: not all(part.get("valid", True) for part in report.values()),
    "pullback": lambda report: report["valid"] is False,
    "repro": lambda report: isinstance(report, dict),
}


def failure(command, args):
    """Why running the argv `args` of `command` breaks the property, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    except BaseException as e:  # any exception that escapes is the finding
        return f"raised {e!r}"
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 1 and command in FAILED_CHECK and out.getvalue():
        if err.getvalue() or not FAILED_CHECK[command](json.loads(out.getvalue())):
            return f"exit 1 with report {out.getvalue()[:200]!r} and stderr {err.getvalue()[:200]!r}"
    elif code == 1:
        lines = err.getvalue().splitlines()
        if out.getvalue() or len(lines) != 1 or "error" not in json.loads(lines[0]):
            return f"exit 1 with stderr {err.getvalue()[:200]!r}"
    return None


def test_the_runs_cover_every_mutation_role_and_command():
    every = runs()
    assert {name for *_, name, _ in every} == {*VALUES, "drop", "unknown key", "unknown id",
                                               "negative"}
    assert {(role, cmd) for _, role, cmd, *_ in every} == {
        (role, cmd) for role in ROLES for cmd in commands(role)}


@pytest.mark.parametrize("case", CASES)
def test_a_mutated_input_exits_cleanly(tmp_path, case):
    failures = []
    for _, role, command, path, name, bad in (run for run in runs() if run[0] == case):
        files = {key: INPUTS / f"{case}_{key}.json" for key in ROLES}
        files[role] = tmp_path / "mutated.json"
        files[role].write_text(json.dumps(bad))
        why = failure(command, argv(command, files))
        if why is not None:
            failures.append((case, role, command, path, name, why))
    assert not failures, failures


def multi_runs(count, seed):
    """`count` (case, command, {role: (path, mutation, document)}) draws: one
    mutation in each of 2 or 3 distinct documents that the command loads."""
    rng = random.Random(seed)
    choices = {(case, role): list(mutations(json.loads((INPUTS / f"{case}_{role}.json").read_text())))
               for case in CASES for role in ROLES}
    out = []
    for _ in range(count):
        case, command = rng.choice(CASES), rng.choice(sorted(LOADS))
        roles = rng.sample(LOADS[command], rng.randint(2, min(3, len(LOADS[command]))))
        out.append((case, command, {role: rng.choice(choices[(case, role)]) for role in roles}))
    return out


MULTI_CASES = 1000


def test_the_multi_runs_mutate_two_or_three_documents_under_every_command():
    every = multi_runs(MULTI_CASES, 0)
    assert {len(picks) for *_, picks in every} == {2, 3}
    assert {command for _, command, _ in every} == set(LOADS)
    assert {role for *_, picks in every for role in picks} == set(ROLES)


def test_several_mutated_documents_exit_cleanly(tmp_path):
    failures = []
    for case, command, picks in multi_runs(MULTI_CASES, 0):
        files = {key: INPUTS / f"{case}_{key}.json" for key in ROLES}
        for role, (_, _, bad) in picks.items():
            files[role] = tmp_path / f"mutated_{role}.json"
            files[role].write_text(json.dumps(bad))
        why = failure(command, argv(command, files))
        if why is not None:
            failures.append((case, command, {role: pick[:2] for role, pick in picks.items()}, why))
    assert not failures, failures


EXPECTED = INPUTS.parent / "expected.json"
# numerals no loader should trust: negative, a zero denominator, an exponent,
# a non-ASCII digit, more digits than int() converts, and far past every cap
HOSTILE = ["-1", "1/0", "1e9", "\u0663", "9" * 5000, str(10 ** 12)]
BUDGETS = ["2", "20", "64"]  # no search runs on a budget above 64
BAD_BUDGETS = ["0", "-1", "1/0", "1e9", "\u0663"]
UNKNOWN = "--ghost"
ARGV_CASES = 400
# its draws include `repro bipath --G 10**12`, which listed 2 * 10**12 element
# names before the element cap was checked; the draws take their values from
# the golden corpus, so a corpus that grows can need the next such seed
ARGV_SEED = 2


def golden_values():
    """{flag: sorted values} that the golden corpus passes, global options
    and the repro example included; input files as paths."""
    out = {}
    for case in json.loads(EXPECTED.read_text()):
        args = case["argv"]
        for flag, value in zip(args, args[1:]):
            if flag.startswith("--"):
                out.setdefault(flag, set()).add(value.replace("@inputs/", f"{INPUTS}/"))
        if "repro" in args:
            out.setdefault("example", set()).add(args[args.index("repro") + 1])
    return {flag: sorted(values) for flag, values in out.items()}


def argv_cases(count, seed):
    """`count` seeded (command, argv) draws over every command of the CLI.

    Each draw takes the input files of one golden case where it can, so that
    most runs get past loading; 3 times in 20 a file flag gets any input file
    instead.  A flag the corpus passes numerals to gets a hostile numeral 3
    times in 10, and `--budget` one 1 time in 5."""
    rng = random.Random(seed)
    golden = golden_values()
    files = sorted(str(p) for p in INPUTS.glob("*.json"))

    def value(flag, case):
        known = golden[flag]
        if known[0].startswith(str(INPUTS)):
            same = [f for f in known if Path(f).name.startswith(f"{case}_")]
            return rng.choice(files if rng.random() < 0.15 else same or known)
        if known[0][:1].isdigit() and rng.random() < 0.3:
            return rng.choice(HOSTILE)
        return rng.choice(known)

    out = []
    for _ in range(count):
        command = rng.choice(sorted(_COMMANDS))
        flags = _COMMANDS[command][1]
        first = next((golden[f] for f in flags
                      if golden.get(f, [""])[0].startswith(str(INPUTS))), [])
        case = Path(rng.choice(first)).name.split("_")[0] if first else None
        budget = rng.choice(BAD_BUDGETS if rng.random() < 0.2 else BUDGETS)
        args = ["--budget", budget, "--field", rng.choice(golden["--field"]), command]
        picked = [flag for flag, kw in flags.items()
                  if rng.random() < (0.5 if "default" in kw else 0.9)]
        for flag in picked:
            args += [flag, value(flag, case)] if flag.startswith("--") else [value(flag, case)]
        if rng.random() < 0.1:
            args += [UNKNOWN, rng.choice(HOSTILE)]
        named = [flag for flag in picked if flag.startswith("--")]
        if named and rng.random() < 0.1:
            flag = rng.choice(named)
            args += [flag, value(flag, case)]
        out.append((command, args))
    return out


def test_the_argv_cases_reach_every_command_and_the_huge_bipath():
    every = argv_cases(ARGV_CASES, ARGV_SEED)
    assert {command for command, _ in every} == set(_COMMANDS)
    assert any(UNKNOWN in args for _, args in every)
    assert any(len(flags) > len(set(flags)) for flags in (
        [a for a in args if a.startswith("--")] for _, args in every))  # a repeated flag
    assert any("bipath" in args and any(pair == ("--G", str(10 ** 12)) for pair in zip(args, args[1:]))
               for command, args in every if command == "repro")


def test_random_argv_exits_cleanly():
    failures = []
    for command, args in argv_cases(ARGV_CASES, ARGV_SEED):
        why = failure(command, args)
        if why is not None:
            failures.append((args, why))
    assert not failures, failures
