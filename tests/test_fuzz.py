"""The exit-code and stderr contract of every command under a seeded fuzzer.

Valid inputs of every kind (1-D toric and B1 intervals, 2-D inputs given by
``Q`` with and without a lattice override, a facet-given polygon, 3-D boxes
and a torus-rank-3 simplex) are mutated at one or two leaves of their JSON:
a rational of 1 to 300 digits, a sign flip, zero, a string where a list
belongs and a list where a scalar belongs.  Each mutated input runs one
command, the commands in turn, through ``cli.main`` in process, with
warnings as errors, and must exit 0, 2, 3 or 4 with at most one stderr
line on a non-zero exit.  The seed and the run count are fixed, so the
runs are the same on every platform; together they take a few seconds.
"""

import copy
import json
import random
import warnings

import pytest

from horofano.cli import COMMANDS, main

SEED = 27
RUNS = 300


def _box(factors, levi, lo, hi):
    return {
        "root_system": {"factors": factors, "torus_rank": 0},
        "levi_subset": levi,
        "polytope": {"moment": {"vertices": [
            [x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])
        ]}},
    }


SQUARE = [["-1", "-1"], ["1", "-1"], ["-1", "1"], ["1", "1"]]

BASES = [
    {"root_system": {"factors": [], "torus_rank": 1}, "levi_subset": [],
     "polytope": {"moment": {"vertices": [["-1"], ["2"]]}}, "options": {"grid": 101}},
    {"root_system": {"factors": [["B", 1]], "torus_rank": 0}, "levi_subset": [],
     "polytope": {"moment": {"vertices": [["1/2"], ["3"]]}},
     "options": {"grid": 101, "t0": 0.2}},
    {"root_system": {"factors": [["A", 1]], "torus_rank": 0}, "levi_subset": [],
     "polytope": {"Q": {"vertices": SQUARE}}},
    {"root_system": {"factors": [], "torus_rank": 2}, "levi_subset": [],
     "polytope": {"Q": {"vertices": SQUARE}},
     "lattice_override": {"coweight_basis": [["1", "0"], ["0", "1"]],
                          "character_basis": [["1", "0"], ["0", "1"]]}},
    {"root_system": {"factors": [["A", 1]], "torus_rank": 0}, "levi_subset": [],
     "polytope": {"moment": {"facets": [
         {"normal": ["1/2", "-1/2"], "offset": "2"}, {"normal": ["-1", "1"], "offset": "0"},
         {"normal": ["2/3", "2/3"], "offset": "4/3"}, {"normal": ["-1", "-1"], "offset": "3/2"},
     ]}}},
    _box([["A", 2]], [1], ["1/2", "5/8", "-21/8"], ["3/2", "11/8", "-11/8"]),
    _box([["B", 3]], [1, 2], ["21/8", "5/2", "11/4"], ["27/8", "7/2", "13/4"]),
    {"root_system": {"factors": [], "torus_rank": 3}, "levi_subset": [],
     "polytope": {"moment": {"facets": [
         {"normal": ["1", "0", "0"], "offset": "1"}, {"normal": ["0", "1", "0"], "offset": "1"},
         {"normal": ["0", "0", "1"], "offset": "1"}, {"normal": ["-1", "-1", "-1"], "offset": "1"},
     ]}}},
]


def _leaves(node, path=()):
    """Paths of every scalar and every list in a JSON tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
        return
    yield path
    if isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))


def _rational(rng):
    digits = rng.choice([1, 2, 3, rng.randint(4, 300)])
    num = rng.randrange(10 ** (digits - 1), 10**digits)
    sign = rng.choice(["", "-"])
    if rng.random() < 0.5:
        return f"{sign}{num}"
    return f"{sign}{num}/{rng.randrange(1, 10 ** rng.randint(1, digits))}"


def _mutant(rng, value):
    """A string for a list; for a scalar mostly a value of the right kind
    (a rational, the sign flipped, zero), sometimes a list or a stray type."""
    if isinstance(value, list):
        return rng.choice([_rational(rng), "[1, 2]", ""])
    kind = rng.choices(range(5), weights=[9, 4, 3, 2, 2])[0]
    if kind == 0:
        text = _rational(rng)
        return int(text.split("/")[0]) if isinstance(value, int) and rng.random() < 0.7 else text
    if kind == 1:
        if isinstance(value, str):
            return value[1:] if value.startswith("-") else "-" + value
        return -value if isinstance(value, (int, float)) else value
    if kind == 2:
        return rng.choice([0, "0", "-0", 0.0])
    if kind == 3:
        return [value]
    return rng.choice([True, None, 1.5, {}, "x"])


def _get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _set(tree, path, value):
    _get(tree, path[:-1])[path[-1]] = value


def _cases():
    rng = random.Random(SEED)
    for i in range(RUNS):
        spec = copy.deepcopy(rng.choice(BASES))
        for _ in range(rng.choice([1, 1, 2])):
            paths = [p for p in _leaves(spec) if p]
            scalars = [p for p in paths if not isinstance(_get(spec, p), list)]
            path = rng.choice(scalars if rng.random() < 0.85 else paths)
            _set(spec, path, _mutant(rng, _get(spec, path)))
        yield COMMANDS[i % len(COMMANDS)], spec


def test_every_command_keeps_the_exit_contract_under_mutation(tmp_path, capsys):
    src, out = tmp_path / "problem.json", tmp_path / "report.json"
    codes = set()
    for command, spec in _cases():
        src.write_text(json.dumps(spec), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main([command, "--input", str(src), "--out", str(out)])
            except Exception as exc:  # an escaping exception is exit 1
                pytest.fail(f"{command} raised {exc!r} on {json.dumps(spec)}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (command, spec)
        assert code == 0 or len(err.splitlines()) <= 1, (command, spec, err)
        codes.add(code)
    # the mutations reach past the schema checks
    assert {0, 2, 3, 4} <= codes
