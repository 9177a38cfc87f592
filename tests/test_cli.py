import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horofano import dh
from horofano.cli import load_problem, main

TORIC_M12 = {
    "root_system": {"factors": [], "torus_rank": 1},
    "levi_subset": [],
    "polytope": {"moment": {"vertices": [["-1"], ["2"]]}},
    "options": {"grid": 801},
}

REFLECTIVE_SQUARE = {
    "root_system": {"factors": [], "torus_rank": 2},
    "levi_subset": [],
    "polytope": {
        "Q": {"vertices": [["-1", "-1"], ["1", "-1"], ["-1", "1"], ["1", "1"]]}
    },
}


def write(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_load_problem_toric(tmp_path):
    loaded = load_problem(write(tmp_path, TORIC_M12))
    assert loaded.hp.a1_dim == 1
    assert all(c == 0 for c in loaded.hp.kappa)
    assert loaded.options.grid == 801
    assert len(loaded.input_hash) == 64


def test_load_problem_reflective_input(tmp_path):
    loaded = load_problem(write(tmp_path, REFLECTIVE_SQUARE))
    assert loaded.reflectivity is not None and loaded.reflectivity.all_ok
    # the moment polytope is the dual diamond
    assert len(loaded.hp.moment.vertices) == 4


def test_reflectivity_failure_strict_vs_validate(tmp_path):
    # dual of [-2,1] has a non-lattice vertex: computing commands reject it,
    # while validate loads it, reports the failure and signals via exit 3
    bad = {
        "root_system": {"factors": [], "torus_rank": 1},
        "levi_subset": [],
        "polytope": {"Q": {"vertices": [["-2"], ["1"]]}},
    }
    src_path = write(tmp_path, bad)
    assert main(["invariants", "--input", src_path]) == 3
    out = tmp_path / "report.json"
    assert main(["validate", "--input", src_path, "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["validation"]["reflectivity"]["all_ok"] is False


def test_schema_error_both_polytopes(tmp_path):
    bad = dict(TORIC_M12)
    bad["polytope"] = {
        "Q": {"vertices": [["-1"], ["1"]]},
        "moment": {"vertices": [["-1"], ["1"]]},
    }
    assert main(["validate", "--input", write(tmp_path, bad)]) == 2


def test_schema_error_unknown_option(tmp_path):
    bad = dict(TORIC_M12)
    bad["options"] = {"gridd": 100}
    assert main(["validate", "--input", write(tmp_path, bad)]) == 2


def test_schema_error_float_rational(tmp_path):
    bad = dict(TORIC_M12)
    bad["polytope"] = {"moment": {"vertices": [[-1.5], [2]]}}
    assert main(["validate", "--input", write(tmp_path, bad)]) == 2


def test_math_error_kappa_not_interior(tmp_path):
    bad = {
        "root_system": {"factors": [], "torus_rank": 1},
        "levi_subset": [],
        "polytope": {"moment": {"vertices": [["1"], ["3"]]}},
    }
    assert main(["validate", "--input", write(tmp_path, bad)]) == 3


def test_math_error_nonreflective_q(tmp_path):
    bad = dict(REFLECTIVE_SQUARE)
    bad["polytope"] = {"Q": {"vertices": [["1", "1"], ["2", "1"], ["1", "2"], ["2", "2"]]}}
    assert main(["validate", "--input", write(tmp_path, bad)]) == 3


def test_invariants_report_values(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "invariants", "--input", write(tmp_path, TORIC_M12), "--out", str(out)
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["volume"] == "3"
    assert report["barycenter"] == ["1/2"]
    assert report["ke"] is False
    assert report["ke_gap"] == ["1/2"]


def test_ricci_bound_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["ricci-bound", "--input", write(tmp_path, TORIC_M12),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["R"] == "2/3"
    assert report["exit_scalar"] == "2"


def test_soliton_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["soliton", "--input", write(tmp_path, TORIC_M12),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["xi"][0] - 0.35818763331784376) < 1e-8
    assert report["soliton_residual"] <= 1e-9


def test_all_symmetric_chain(tmp_path):
    spec = {
        "root_system": {"factors": [], "torus_rank": 1},
        "levi_subset": [],
        "polytope": {"moment": {"vertices": [["-1"], ["1"]]}},
        "options": {"grid": 401},
    }
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    assert main(["all", "--input", write(tmp_path, spec), "--out", str(out),
                 "--trace", str(trace)]) == 0
    report = json.loads(out.read_text())
    assert report["ke"] is True
    assert abs(report["xi"][0]) < 1e-10
    assert report["R"] == "1"
    assert report["continuity"]["reached_t1"] is True
    header = trace.read_text().splitlines()[0]
    assert header == "t,m_t,x_t_1,mass,residual,sup_psi,step"


def test_continuity_divergence_estimate(tmp_path):
    spec = dict(TORIC_M12)
    spec["options"] = {"grid": 1201}
    out = tmp_path / "report.json"
    # continuity runs on the soliton path; force the zero field via a
    # symmetric problem is covered above, so here check the numeric estimate
    # plumbing on the report of the zero-field run through the library path
    code = main(["continuity", "--input", write(tmp_path, spec), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["continuity"]["reached_t1"] is True  # soliton path completes


def test_report_determinism_two_runs(tmp_path):
    src = write(tmp_path, TORIC_M12)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["invariants", "--input", src, "--out", str(out1)]) == 0
    assert main(["invariants", "--input", src, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_determinism_across_workers(tmp_path, monkeypatch):
    src = write(tmp_path, TORIC_M12)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    monkeypatch.setenv("HOROFANO_THREADS", "1")
    assert main(["soliton", "--input", src, "--out", str(out1)]) == 0
    monkeypatch.setenv("HOROFANO_THREADS", "4")
    assert main(["soliton", "--input", src, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_determinism_concurrent_node_table_fill(tmp_path, monkeypatch):
    # r = 3 triangulates into several simplices, so four workers start on an
    # empty unit-simplex node table together and race to fill each order;
    # the one-worker run fills its own empty table
    src = write(tmp_path, A2_LEVI)
    out4, out1 = tmp_path / "r4.json", tmp_path / "r1.json"
    monkeypatch.setattr(dh, "_UNIT_NODES", {})
    monkeypatch.setenv("HOROFANO_THREADS", "4")
    assert main(["soliton", "--input", src, "--out", str(out4)]) == 0
    assert dh._UNIT_NODES
    monkeypatch.setattr(dh, "_UNIT_NODES", {})
    monkeypatch.setenv("HOROFANO_THREADS", "1")
    assert main(["soliton", "--input", src, "--out", str(out1)]) == 0
    assert out4.read_bytes() == out1.read_bytes()


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_threads_variable_validated_first(tmp_path, monkeypatch, capsys, value):
    # rejected before the input is read: the missing file is never reported
    monkeypatch.setenv("HOROFANO_THREADS", value)
    missing = str(tmp_path / "missing.json")
    assert main(["soliton", "--input", missing]) == 2
    err = capsys.readouterr().err
    assert "HOROFANO_THREADS" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("options,flags,name", [
    ({"step0": 0}, [], "step0"),
    ({"t0": 1.5}, [], "t0"),
    ({"t0": 0}, [], "t0"),
    ({"tol": -1}, [], "tol"),
    ({"grid": "abc"}, [], "grid"),
    ({"grid": 801.5}, [], "grid"),
    ({"box": "wide"}, [], "box"),
    ({"box": -2}, [], "box"),
    ({"max_step": 0}, [], "max_step"),
    ({"min_step": -1e-4}, [], "min_step"),
    ({"window": 0}, [], "window"),
    ({"quad_rel_tol": 0}, [], "quad_rel_tol"),
    ({"quad_order": "high"}, [], "quad_order"),
    ({"step0": True}, [], "step0"),
    ({}, ["--t0", "1.5"], "t0"),
    ({}, ["--tol", "-1"], "tol"),
    ({}, ["--box", "nan"], "box"),
])
def test_continuity_options_validated(tmp_path, capsys, options, flags, name):
    spec = dict(TORIC_M12)
    spec["options"] = dict(TORIC_M12["options"], **options)
    assert main(["continuity", "--input", write(tmp_path, spec), *flags]) == 2
    err = capsys.readouterr().err
    assert f"options.{name}:" in err
    assert "Traceback" not in err


def test_cli_import_loads_no_scipy():
    # scipy is imported lazily by the kernels: a cold r = 3 command never pays for it
    code = "import sys, horofano.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(dh.__file__).parents[1])))
    assert out.stdout.strip() == "[]"


def test_missing_file_is_schema_error():
    assert main(["validate", "--input", "/nonexistent/problem.json"]) == 2


def test_levi_subset_round_trip(tmp_path):
    spec = {
        "root_system": {"factors": [["A", 1]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {
            "moment": {
                "vertices": [["0", "-2"], ["0", "0"], ["2", "-2"], ["2", "0"]]
            }
        },
    }
    loaded = load_problem(write(tmp_path, spec))
    assert loaded.hp.kappa == tuple(map(int, (1, -1)))
    assert len(loaded.hp.density.forms) == 1


def test_solver_failure_maps_to_exit_4(tmp_path):
    spec = dict(TORIC_M12)
    src_path = write(tmp_path, spec)
    # an unreachable tolerance forces the soliton Newton to give up
    assert main(["soliton", "--input", src_path, "--tol", "1e-30"]) == 4


A2_LEVI = {
    "root_system": {"factors": [["A", 2]], "torus_rank": 0},
    "levi_subset": [1],
    "polytope": {
        "moment": {
            "vertices": [
                ["3/4", "3/4", "-9/4"], ["3/4", "3/4", "-7/4"],
                ["3/4", "5/4", "-9/4"], ["3/4", "5/4", "-7/4"],
                ["5/4", "3/4", "-9/4"], ["5/4", "3/4", "-7/4"],
                ["5/4", "5/4", "-9/4"], ["5/4", "5/4", "-7/4"],
            ]
        }
    },
}


def test_a2_levi_three_dimensional_pipeline(tmp_path):
    # rank-2 factor with a Levi subset: kappa = (1,1,-2), two density forms;
    # the box around kappa keeps both forms positive
    src_path = write(tmp_path, A2_LEVI)
    loaded = load_problem(src_path)
    assert loaded.hp.a1_dim == 3
    assert [int(c) for c in loaded.hp.kappa] == [1, 1, -2]
    assert len(loaded.hp.density.forms) == 2
    out = tmp_path / "report.json"
    assert main(["ricci-bound", "--input", src_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ke"] is False
    # continuity has no r = 3 path: `all` records the skip, `continuity` rejects
    out2 = tmp_path / "all.json"
    assert main(["all", "--input", src_path, "--out", str(out2)]) == 0
    report2 = json.loads(out2.read_text())
    assert report2["continuity"] == {"skipped": "r = 3 > 1"}
    assert main(["continuity", "--input", src_path]) == 3


def test_lattice_override_shape_checked(tmp_path):
    bad = dict(REFLECTIVE_SQUARE)
    bad["lattice_override"] = {"coweight_basis": [["1", "0"]]}
    assert main(["validate", "--input", write(tmp_path, bad)]) == 2


def test_all_nontoric_density_chain(tmp_path):
    spec = {
        "root_system": {"factors": [["B", 1]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {"moment": {"vertices": [["1/2"], ["3"]]}},
        "options": {"grid": 1201},
    }
    out = tmp_path / "report.json"
    assert main(["all", "--input", write(tmp_path, spec), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["volume"] == "35/8"
    assert report["barycenter"] == ["43/21"]
    assert report["R"] == "21/65"
    assert report["ke"] is False
    assert report["continuity"]["reached_t1"] is True
    assert report["continuity"]["mass_max_rel_err"] <= 1e-3


P2 = {
    "root_system": {"factors": [], "torus_rank": 2},
    "levi_subset": [],
    "polytope": {"moment": {"vertices": [["-1", "-1"], ["2", "-1"], ["-1", "2"]]}},
}


def test_continuity_two_dimensional_is_validation_error(tmp_path, capsys):
    # default options (grid 2001): rejected before any grid is built
    assert main(["continuity", "--input", write(tmp_path, P2)]) == 3
    err = capsys.readouterr().err
    assert "continuity solver supports r = 1 only" in err
    assert "Traceback" not in err


def test_all_two_dimensional_records_skip(tmp_path):
    out = tmp_path / "all.json"
    assert main(["all", "--input", write(tmp_path, REFLECTIVE_SQUARE), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["continuity"] == {"skipped": "r = 2 > 1"}
    assert report["R"] == "1"


@pytest.mark.parametrize("root_system,code", [
    ({"factors": [["A", "x"]]}, 2),
    ({"factors": [["A", ""]]}, 2),
    ({"factors": [["A", "1/0"]]}, 2),
    ({"factors": [["A", None]]}, 2),
    ({"factors": [["A", {}]]}, 2),
    ({"factors": [["A", 1.5]]}, 2),
    ({"factors": [["A", True]]}, 2),
    ({"factors": [[None, 1]]}, 2),
    ({"factors": [], "torus_rank": True}, 2),
    ({"factors": [], "torus_rank": "1"}, 2),
    ({"factors": {}, "torus_rank": 1}, 2),
    ({"factors": [], "torus_rank": 10**6}, 3),
    ({"factors": [["A", 300]]}, 3),
    ({"factors": [["A", 2]], "torus_rank": 2}, 3),
])
def test_root_system_checked_before_building(tmp_path, capsys, root_system, code):
    spec = dict(TORIC_M12, root_system=root_system)
    assert main(["validate", "--input", write(tmp_path, spec)]) == code
    err = capsys.readouterr().err
    assert ("root_system" in err) if code == 2 else ("dimension exceeds 3" in err)
    assert "Traceback" not in err


def test_levi_index_bool_is_schema_error(tmp_path):
    spec = dict(A2_LEVI, levi_subset=[True])
    assert main(["validate", "--input", write(tmp_path, spec)]) == 2


def test_ragged_facet_normals_are_validation_error(tmp_path):
    spec = dict(TORIC_M12, polytope={"moment": {"facets": [
        {"normal": ["1", "0"], "offset": "2"},
        {"normal": ["-1", "0", "0"], "offset": "1"},
    ]}})
    assert main(["validate", "--input", write(tmp_path, spec)]) == 3


B1_HALF_3 = {
    "root_system": {"factors": [["B", 1]], "torus_rank": 0},
    "levi_subset": [],
    "polytope": {"moment": {"vertices": [["1/2"], ["3"]]}},
    "options": {"grid": 1201},
}

A2_FACET_BOX = {
    "root_system": {"factors": [["A", 2]], "torus_rank": 0},
    "levi_subset": [1],
    "polytope": {"moment": {"facets": [
        {"normal": ["1", "0", "0"], "offset": "5/4"},
        {"normal": ["-1", "0", "0"], "offset": "-3/4"},
        {"normal": ["0", "1", "0"], "offset": "5/4"},
        {"normal": ["0", "-1", "0"], "offset": "-3/4"},
        {"normal": ["0", "0", "1"], "offset": "-7/4"},
        {"normal": ["0", "0", "-1"], "offset": "9/4"},
    ]}},
}

FUZZ_BASES = (TORIC_M12, B1_HALF_3, REFLECTIVE_SQUARE, A2_FACET_BOX)
FUZZ_VALUES = ("x", "", "1/0", -1, 0, 10**6, 1.5, True, None, [], {},
               [["1"], ["1", "2"]], ["1", ["2"]])


def _paths(node, prefix=()):
    """Every position below the root of a JSON value, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


def test_fuzz_bases_are_valid(tmp_path):
    for i, base in enumerate(FUZZ_BASES):
        assert main(["invariants", "--input", write(tmp_path, base, f"base{i}.json")]) == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exit_code_contract_fuzz(tmp_path_factory, data):
    # any mutation of a valid problem is accepted or rejected through the
    # documented exit codes; an exception escaping main fails the test
    spec = data.draw(st.sampled_from(FUZZ_BASES))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(spec))))
        spec = _replaced(spec, path, data.draw(st.sampled_from(FUZZ_VALUES)))
    command = data.draw(st.sampled_from(["validate", "invariants"]))
    src_path = write(tmp_path_factory.mktemp("fuzz"), spec)
    assert main([command, "--input", src_path]) in (0, 2, 3, 4)
