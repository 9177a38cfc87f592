"""Pinned exact reports of non-toric inputs.

The ``validate``, ``invariants`` and ``ricci-bound`` reports hold only exact
rationals, strings and booleans (no floats), so their bytes are the same on
every platform.  Each digest below is the sha256 of the report file, whose
bytes include the package version; the readable asserts next to them say
what the pinned values are.  The reflective inputs give ``Q`` and so
produce the scaled-coroot membership witnesses of the reflectivity report.
"""

import hashlib
import json
from fractions import Fraction as Q

import pytest

from horofano.cli import main

SQUARE = [["-1", "-1"], ["1", "-1"], ["-1", "1"], ["1", "1"]]


def _box(kappa, widths):
    corners = [(k - Q(w), k + Q(w)) for k, w in zip(kappa, widths)]
    return [
        [str(a), str(b), str(c)]
        for a in corners[0] for b in corners[1] for c in corners[2]
    ]


INPUTS = {
    "b1-q": {
        "root_system": {"factors": [["B", 1]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {"Q": {"vertices": [["-1"], ["1"]]}},
    },
    "a1-square": {
        "root_system": {"factors": [["A", 1]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {"Q": {"vertices": SQUARE}},
    },
    "b2-square": {
        "root_system": {"factors": [["B", 2]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {"Q": {"vertices": SQUARE}},
    },
    # a rotated box around kappa = (1, -1), given by rational halfspaces
    "a1-facets": {
        "root_system": {"factors": [["A", 1]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {"moment": {"facets": [
            {"normal": ["1/2", "-1/2"], "offset": "2"},
            {"normal": ["-1", "1"], "offset": "0"},
            {"normal": ["2/3", "2/3"], "offset": "4/3"},
            {"normal": ["-1", "-1"], "offset": "3/2"},
        ]}},
    },
    "a2-levi1-box": {
        "root_system": {"factors": [["A", 2]], "torus_rank": 0},
        "levi_subset": [1],
        "polytope": {"moment": {"vertices": _box((1, 1, -2), ("1/2", "3/8", "5/8"))}},
    },
    "b3-levi12-box": {
        "root_system": {"factors": [["B", 3]], "torus_rank": 0},
        "levi_subset": [1, 2],
        "polytope": {"moment": {"vertices": _box((3, 3, 3), ("3/8", "1/2", "1/4"))}},
    },
}

# sha256 of the report bytes, per input and command
DIGESTS = {
    "a1-facets": {
        "validate": "23fe0f35dd08fd06d6ad319be9ad12e3e29b54156b143dc0a36aa62538a31e63",
        "invariants": "ba3141e7cbf8c0c310634de96e98491031982216c56677facbea1e1f29f99b40",
        "ricci-bound": "9df383c04ec4a78ee428bed44db665a5d4e5054d2b0482e009696ca882aa40ff",
    },
    "a1-square": {
        "validate": "66de9d3eeeae645767a0e6065595e327bb07b2d20b17c29d0856d6b8859372ef",
        "invariants": "d20dac82baa327a53c74aa4bad5160e515d8428730aa3e1b8566100da993acbd",
        "ricci-bound": "258f52b3338ea98b3aa0d444370a6ab4c4559a0d9f451f27b2369507e51f5bca",
    },
    "a2-levi1-box": {
        "validate": "1b7cb67ddcb0e59f73c8db077a719a4ec6643f715a6f03ef7fb15221e60ddb99",
        "invariants": "2a3104ee3dc5b7db5998237b6f0c6614758babe864c024f7f2c396d5b7ca3835",
        "ricci-bound": "765621671ab59c71c473f254bcebea65a0f2f16fb558daf6eb0d139ac9d27273",
    },
    "b1-q": {
        "validate": "44a985e22f38b1efe12762c8698a6e02e9dce663ec9a9c1d195016fcf0f83823",
        "invariants": "d82506abd22f93b9da7931d4739c6f7716a949303b0231e987109652c7b8127f",
        "ricci-bound": "579d3a03ac79dfe3a84bc72b144e89ce952da3c53cdf365210ce975cdfc6bdc6",
    },
    "b2-square": {
        "validate": "5354ca519de96f989241e92d9c9b7851b89bd324da87f3dabab03bda2b8717fe",
        "invariants": "b8c2bd26cddb3893cbf451b376e09477c0b2554715a3c479ea7a8df0f404b807",
        "ricci-bound": "52361fe2b4a855e43164d9a8a3ebf9eda6b96d94a3ef53996e1acc11c865b75b",
    },
    "b3-levi12-box": {
        "validate": "3c8139a4e843b60454e4b953886811a7056ff422c345fbe9302c75091412fbaf",
        "invariants": "bb548ba6495b6db457af25e55a0560871bb7892269b10f44f635ce611c029759",
        "ricci-bound": "941f415e5a27a6a6610477c38c7dbcc61cfab9946a49a6b77e12c979eb5b2151",
    },
}

# (V, barycenter, R) read off the ricci-bound report
VALUES = {
    "a1-facets": ("14", ["35/24", "-29/24"], "3/4"),
    "a1-square": ("4", ["13/12", "-13/12"], "6/7"),
    "a2-levi1-box": ("8765/1024", ["1801/1753", "1780/1753", "-3656/1753"], "1753/1993"),
    "b1-q": ("2", ["4/3"], "3/4"),
    "b2-square": ("48", ["2291/720", "269/240"], "360/469"),
    "b3-levi12-box": (
        "36586417/16384",
        ["2534722281/836260960", "79835712/26133155", "4410593643/1463456680"],
        "26133155/29005649",
    ),
}

# (root, a_alpha, scaled coroot) of each reflective input; every point is in Q
COROOTS = {
    "a1-square": [(["1", "-1"], 2, ["1/2", "-1/2"])],
    "b1-q": [(["1"], 2, ["1"])],
    "b2-square": [
        (["1", "-1"], 2, ["1/2", "-1/2"]),
        (["1", "1"], 4, ["1/4", "1/4"]),
        (["1", "0"], 6, ["1/3", "0"]),
        (["0", "1"], 2, ["0", "1"]),  # on the boundary of the square
    ],
}


def _report(tmp_path, name, command):
    src = tmp_path / f"{name}.json"
    src.write_text(json.dumps(INPUTS[name], sort_keys=True), encoding="utf-8")
    out = tmp_path / f"{name}.{command}.json"
    assert main([command, "--input", str(src), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("command", ["validate", "invariants", "ricci-bound"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_report_bytes_pinned(tmp_path, name, command):
    digest = hashlib.sha256(_report(tmp_path, name, command)).hexdigest()
    assert digest == DIGESTS[name][command]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_exact_values(tmp_path, name):
    report = json.loads(_report(tmp_path, name, "ricci-bound"))
    assert (report["volume"], report["barycenter"], report["R"]) == VALUES[name]
    assert report["ke"] is False
    reflectivity = report["validation"]["reflectivity"]
    if name not in COROOTS:
        assert reflectivity is None
        return
    assert reflectivity["all_ok"] is True
    assert [
        (w["root"], w["a"], w["point"]) for w in reflectivity["coroot_membership"]
    ] == COROOTS[name]
    assert all(w["inside"] for w in reflectivity["coroot_membership"])
