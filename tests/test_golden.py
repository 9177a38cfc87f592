"""Pinned reports of the command-line runs.

The ``validate``, ``invariants`` and ``ricci-bound`` reports of non-toric
inputs hold only exact rationals, strings and booleans (no floats), so their
bytes are the same on every platform.  Each digest below is the sha256 of the
report file, whose bytes include the package version; the readable asserts
next to them say what the pinned values are.  The reflective inputs give
``Q`` and so produce the scaled-coroot membership witnesses of the
reflectivity report.

The ``soliton`` reports of the 3-D boxes carry the floats of the
quadrature path, and the ``continuity`` and ``all`` runs of 1-D inputs the
floats of the soliton solve and the sweep: their digests pin every output
of a run, and the reference potential, bit for bit on this numpy and its
OpenBLAS.
"""

import hashlib
import json
from fractions import Fraction as Q

import numpy as np
import pytest

from horofano.cli import load_problem, main
from horofano.continuity import build_setup
from horofano.soliton import RESIDUAL_TOL, solve_soliton

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


# the soliton field and Newton iterations of the 3-D boxes; a change of
# quadrature order may move xi in its last digits only
SOLITON = {
    "a2-levi1-box": ([0.17011499457181636, 0.16967370243650853, -0.33880785338185476], 3),
    "b3-levi12-box": ([0.33422893664264053, 0.33465743942257725, 0.3339247766167766], 3),
}


# sha256 of the ``soliton`` report bytes of the 3-D boxes
SOLITON_DIGESTS = {
    "a2-levi1-box": "e075644ca5a7bddd3d1d923c43439758fcfc2e21ac46f9758d6653b4344f512f",
    "b3-levi12-box": "165822e3bd3a4a69f5c8f23c79aaf92c27c5cdeb97a2540cd03f5e8cb47e8010",
}


@pytest.mark.parametrize("name", sorted(SOLITON_DIGESTS))
def test_soliton_report_bytes_pinned(tmp_path, name):
    digest = hashlib.sha256(_report(tmp_path, name, "soliton")).hexdigest()
    assert digest == SOLITON_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SOLITON))
def test_soliton_field_of_boxes(tmp_path, name):
    src = tmp_path / f"{name}.json"
    src.write_text(json.dumps(INPUTS[name], sort_keys=True), encoding="utf-8")
    loaded = load_problem(str(src))
    sol = solve_soliton(loaded.hp)
    xi, iterations = SOLITON[name]
    assert sol.iterations == iterations
    assert np.linalg.norm(sol.xi - xi) <= 1e-11 * np.linalg.norm(xi)
    assert sol.residual_norm <= RESIDUAL_TOL * float(loaded.hp.volume)


# 1-D inputs whose ``continuity`` and ``all`` runs sweep at grid 401
SWEEP_INPUTS = {
    "toric-m1-2": ({"factors": [], "torus_rank": 1}, ["-1", "2"]),
    "toric-m3/2-5/2": ({"factors": [], "torus_rank": 1}, ["-3/2", "5/2"]),
    "b1-1/2-3": ({"factors": [["B", 1]], "torus_rank": 0}, ["1/2", "3"]),
    # the moment polytope touches the density wall; the sweep ends in
    # newton_failure
    "b1-0-3": ({"factors": [["B", 1]], "torus_rank": 0}, ["0", "3"]),
}


def _sweep_input(tmp_path, name):
    root_system, ends = SWEEP_INPUTS[name]
    payload = {
        "root_system": root_system,
        "levi_subset": [],
        "polytope": {"moment": {"vertices": [[e] for e in ends]}},
        "options": {"grid": 401},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return path


# per (input, command) with ``--out`` and ``--trace``: the exit code, the
# termination, and the sha256 of the report, the trace CSV, stdout and stderr
SWEEP_DIGESTS = {
    ('b1-0-3', 'all'): (
        0, 'newton_failure',
        '8e6902c46c6e11ea84c20ff21b60a16dcc64750ef02e5243105de4881bfa8439',
        '564d0aedb2bd7ff7e58d5876f1de3346f41e15f09b34888a6dc6698440619555',
        'd0da98e70a9c746db572b03698533dae64844cb40550729cf68d9f7203219efe',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    ('b1-0-3', 'continuity'): (
        0, 'newton_failure',
        'cadbc90c84833de4c699441f1bab901b82177e20b977eb2298b5d13e0fe9f48c',
        '564d0aedb2bd7ff7e58d5876f1de3346f41e15f09b34888a6dc6698440619555',
        'd9696e19b54ee0c65406be1749ebc871bb8609391500d77b94d409889b118ece',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    ('b1-1/2-3', 'all'): (
        0, 'reached_t1',
        'fbb484dd7979bd82def0bd166ed1cb27caeddc44c2e9dfb992724a6158519690',
        '53922dcf8163e11ddf8a8bc042a8b2bc4020bc1541787ee86c38931a2697b9aa',
        '524a0166296db8921550938b3f74df3c89b152d9e124a6d40cb96aa4af84d10c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    ('b1-1/2-3', 'continuity'): (
        0, 'reached_t1',
        'ad2870f9288b5e40241e2964f167eecc533605748e3490c0d9c1147522da6da9',
        '53922dcf8163e11ddf8a8bc042a8b2bc4020bc1541787ee86c38931a2697b9aa',
        '5b3df00352f26eb5f03d6645bf376245852c9bb5d4cb28a5a49709f2dbb5f060',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    ('toric-m1-2', 'all'): (
        0, 'reached_t1',
        'f3d1256c4387e316a9b72dbf0d3cef6ba0496049be27439c1050f74d2f8935e8',
        '30ca35a5133e3570772f62a2952e67485599a6566ff4fe4cff3e05fd97bd9155',
        '54764910919262e14d10445266c5210f47570b908de4d11dd907f314c0e3096b',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    ('toric-m1-2', 'continuity'): (
        0, 'reached_t1',
        '9934abc33f428b0fc05e2e33af86646f8e0ed6383f0ed98fb83e19d5caadc6a8',
        '30ca35a5133e3570772f62a2952e67485599a6566ff4fe4cff3e05fd97bd9155',
        '3a4ef3ca1b9227994215e3ae5002782ff653968119323f844b101f4682083cf6',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    ('toric-m3/2-5/2', 'all'): (
        0, 'reached_t1',
        '5a3a0b506eea079f50867597ada4fbb65e5d239bf684884567fd431d5d0270fb',
        '848ecce11be5eec41e3a140842ddddcfc938daea8cdc36b2fdb6fa2e1f575cf4',
        'dba4edf5e924f5aa3bc070f65c93a0efecf226f8ad941d369c866d3903802ac4',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    ('toric-m3/2-5/2', 'continuity'): (
        0, 'reached_t1',
        '2a22683593047eb54894ad3d9488210fca1b40ffcff6941708edef9700f573e0',
        '848ecce11be5eec41e3a140842ddddcfc938daea8cdc36b2fdb6fa2e1f575cf4',
        '98e85d718275f1bee08c96402fe597d19f74ab26adb48cc160f617e017c2cc4d',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
}

# sha256 of the reference potential's grid values at grid 401, for the field
# the CLI passes (the soliton's)
U0_DIGESTS = {
    'b1-0-3': '68953c41d3271597dd8b066ee9027f17bf9b9a3415465bb82f71b24cd6f9e38c',
    'b1-1/2-3': '481f28e029ef9c2fd8d5da276a65fdc46ecaabbf6acbc3edc12647932aedb251',
    'toric-m1-2': 'e37fc2d068669a479a8fc4f0029281b9a8d479876329ad4e18674e0872432d10',
    'toric-m3/2-5/2': '7f0683037df213595cadbdda6bdbe5d3359ca953668c09cb3f96f6f232713b08',
}


@pytest.mark.parametrize("command", ["all", "continuity"])
@pytest.mark.parametrize("name", sorted(SWEEP_INPUTS))
def test_sweep_run_bytes_pinned(tmp_path, monkeypatch, capsys, name, command):
    _sweep_input(tmp_path, name)
    # relative paths, as the report names its trace file
    monkeypatch.chdir(tmp_path)
    code = main([command, "--input", "problem.json", "--out", "report.json",
                 "--trace", "trace.csv"])
    out = capsys.readouterr()
    report = (tmp_path / "report.json").read_bytes()
    pinned = (
        code,
        json.loads(report)["continuity"]["termination"],
        *(hashlib.sha256(b).hexdigest() for b in (
            report, (tmp_path / "trace.csv").read_bytes(),
            out.out.encode(), out.err.encode(),
        )),
    )
    assert pinned == SWEEP_DIGESTS[name, command]


@pytest.mark.parametrize("name", sorted(SWEEP_INPUTS))
def test_reference_potential_bytes_pinned(tmp_path, name):
    loaded = load_problem(str(_sweep_input(tmp_path, name)))
    xi = solve_soliton(loaded.hp).xi
    u0 = build_setup(loaded.hp, xi, loaded.options).u0
    assert hashlib.sha256(u0.tobytes()).hexdigest() == U0_DIGESTS[name]

