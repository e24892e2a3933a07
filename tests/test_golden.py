"""The golden hashes of scripts/golden.py match scripts/golden.txt.

Both the in-process path (threads 1) and the worker pool (threads 2) must
give them, on every supported Python. A change that moves a reported
number fails here: it rewrites golden.txt
(python3 scripts/golden.py > scripts/golden.txt) and lists the moved
hashes in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPTS / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("threads", [1, 2])
def test_golden_hashes_match_the_committed_file(threads):
    golden = load_golden()
    header, *lines = (SCRIPTS / "golden.txt").read_text().splitlines()
    assert header == golden.HEADER
    expected = dict(line.split() for line in lines)
    got = {name: golden.digest(payload) for name, payload in golden.reports(threads)}
    assert sorted(got) == sorted(expected)
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, f"reports whose hash moved: {', '.join(moved)}"
