"""Every name the package exports has a caller in the package or in the
benchmark, so the library surface is what ``horofano <command>`` and
``perfbench/`` run."""

import tokenize
from pathlib import Path

import horofano

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [
    p for p in sorted((ROOT / "src" / "horofano").glob("*.py")) if p.name != "__init__.py"
] + sorted((ROOT / "perfbench").glob("*.py"))
# the tests build problems from bare polytope data and arbitrary density forms
# through it; no command does, as every input comes with root data
EXEMPT = {"synthetic_problem"}


def _used_names(path):
    """The identifiers of a file's code, not counting the name a ``def`` or
    ``class`` statement defines; comments and strings are not code."""
    used, previous = set(), None
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                used.add(tok.string)
            previous = tok.string if tok.type == tokenize.NAME else None
    return used


def test_every_exported_name_has_a_caller():
    used = set().union(*(_used_names(p) for p in SOURCES))
    unused = [name for name in horofano.__all__ if name not in used and name not in EXEMPT]
    assert not unused
