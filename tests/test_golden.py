"""Replay the golden CLI corpus (`tests/golden/`) and require byte-identical reports.
A case stored with its stderr (a command rejected on purpose) must write the same
error; every other case must write nothing to stderr.

Every command loads its own modules, and functor values are memoized on the
module they were applied to, so a report cannot lean on values a previous
command left behind.  A failure names every differing case, with its exit
code before and after, and shows the first one's diff.  Regenerate with
`tests/golden/make_golden.py` only when a change of report is intended.
"""

import difflib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from make_golden import EXPECTED, resolve, run  # noqa: E402


def test_golden_reports_are_byte_identical():
    corpus = json.loads(EXPECTED.read_text())
    assert len(corpus) > 900
    bad = []
    for case in corpus:
        got = run(resolve(case["argv"]))
        if got != (case["exit"], case["stdout"], case.get("stderr", "")):
            bad.append((case, got))
    if bad:
        cases = "".join(f"  {' '.join(case['argv'])}: exit {case['exit']} -> "
                        f"{None if got is None else got[0]}\n" for case, got in bad)
        case, got = bad[0]
        diff = "" if got is None else "".join(difflib.unified_diff(
            case["stdout"].splitlines(True), got[1].splitlines(True), "expected", "got", n=2))
        raise AssertionError(
            f"{len(bad)} of {len(corpus)} golden reports differ:\n{cases}"
            f"first diff:\n{diff[:4000]}")
