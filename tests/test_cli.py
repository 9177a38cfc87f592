import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horofano import cli, dh, kernels
from horofano.cli import COMMANDS, load_problem, main
from horofano.rationals import MAX_DIGITS

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


@pytest.mark.parametrize("polytope, message", [
    # B1 has kappa = 1: given Q, kappa can only reach the boundary of the
    # moment polytope kappa + dual(Q) when 0 is not interior to Q, which
    # reflectivity condition (1) refuses before the moment polytope is built
    ({"Q": {"vertices": [["0"], ["1"]]}},
     "reflectivity condition (1) failed: 0 is not interior to Q"),
    ({"moment": {"vertices": [["1"], ["3"]]}},
     "kappa is not interior to the moment polytope"),
])
def test_kappa_on_the_moment_boundary_exits_3(tmp_path, capsys, polytope, message):
    spec = {
        "root_system": {"factors": [["B", 1]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": polytope,
    }
    for command in ("validate", "invariants", "all"):
        assert main([command, "--input", write(tmp_path, spec)]) == 3
        assert capsys.readouterr().err == f"validation error: {message}\n"


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
    # the command runs the soliton path, which completes; the zero-field
    # divergence estimate is checked through the library in test_continuity.py
    code = main(["continuity", "--input", write(tmp_path, spec), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["continuity"]["reached_t1"] is True  # soliton path completes


def test_t0_one_deflates_the_gauge_of_the_first_solve(tmp_path):
    # every solve at t = 1 deflates the translation mode, the first one at
    # t0 = 1 included; its minimum value m_1 is within 5e-5 of the closed
    # form -log(psi(0) / c) = -0.6640147 of the t = 1 equation
    spec = dict(TORIC_M12)
    spec["options"] = {"grid": 2001}
    out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    assert main(["continuity", "--input", write(tmp_path, spec), "--t0", "1",
                 "--out", str(out), "--trace", str(trace)]) == 0
    assert json.loads(out.read_text())["continuity"]["termination"] == "reached_t1"
    (row,) = trace.read_text().splitlines()[1:]
    t, m_1 = (float(v) for v in row.split(",")[:2])
    assert t == 1.0 and abs(m_1 + 0.6640147) < 5e-5


@pytest.mark.parametrize("command,flag,target", [
    ("invariants", "--out", "missing/r.json"),
    ("invariants", "--out", "."),
    ("all", "--trace", "missing/t.csv"),
])
def test_unwritable_output_is_schema_error_before_any_work(
        tmp_path, monkeypatch, capsys, command, flag, target):
    src = write(tmp_path, TORIC_M12)

    def no_work(*args, **kwargs):
        raise AssertionError("the problem was loaded before the output path was checked")

    monkeypatch.setattr(cli, "load_problem", no_work)
    assert main([command, "--input", src, flag, str(tmp_path / target)]) == 2
    assert f"schema error: {flag}: cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "invariants", "soliton", "ricci-bound"])
def test_trace_on_a_command_without_a_sweep_is_schema_error_before_any_work(
        tmp_path, monkeypatch, capsys, command):
    src = write(tmp_path, TORIC_M12)

    def no_work(*args, **kwargs):
        raise AssertionError("the problem was loaded before --trace was checked")

    monkeypatch.setattr(cli, "load_problem", no_work)
    trace = tmp_path / "t.csv"
    assert main([command, "--input", src, "--trace", str(trace)]) == 2
    assert f"schema error: --trace: {command} runs no continuity sweep" in capsys.readouterr().err
    assert not trace.exists()


def test_all_two_dimensional_says_no_trace_written(tmp_path, capsys):
    src = write(tmp_path, REFLECTIVE_SQUARE)
    plain, traced, trace = tmp_path / "plain.json", tmp_path / "traced.json", tmp_path / "t.csv"
    assert main(["all", "--input", src, "--out", str(plain)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["all", "--input", src, "--out", str(traced), "--trace", str(trace)]) == 0
    err = capsys.readouterr().err
    assert err == "note: --trace: no trace written, continuity skipped (r = 2 > 1)\n"
    assert traced.read_bytes() == plain.read_bytes()
    assert not trace.exists()


def test_failed_output_write_is_schema_error(tmp_path, monkeypatch, capsys):
    # a write that fails after the up-front check (say, the directory went
    # away during the run) is exit 2 naming the flag, not a traceback
    monkeypatch.setattr(cli, "_check_writable", lambda path, flag: None)
    src = write(tmp_path, TORIC_M12)
    assert main(["invariants", "--input", src, "--out", str(tmp_path / "gone" / "r.json")]) == 2
    assert "schema error: --out: cannot write output" in capsys.readouterr().err


def test_report_determinism_two_runs(tmp_path):
    src = write(tmp_path, TORIC_M12)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["invariants", "--input", src, "--out", str(out1)]) == 0
    assert main(["invariants", "--input", src, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# option names retired into module constants: each is an unknown option
RETIRED_OPTIONS = ("box", "step0", "max_step", "min_step", "window", "quad_rel_tol", "quad_order",
                   "tol")


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
    # quad_order is retired whatever its value, its former range [4, 64]
    # included, and so is its flag
    ({"quad_order": 10}, [], "quad_order"),
    ({"quad_order": 4}, [], "quad_order"),
    ({"quad_order": 64}, [], "quad_order"),
    ({}, ["--quad-order", "10"], "quad_order"),
    ({}, ["--quad-order", "64"], "quad_order"),
    # a number in a JSON string is not a number
    ({"grid": "401"}, [], "grid"),
    ({"tol": "1e-9"}, [], "tol"),
    ({"t0": " 0.5"}, [], "t0"),
    # too coarse for the 1-D stencil
    ({"grid": 5}, [], "grid"),
    ({"grid": 0}, [], "grid"),
    ({"grid": -3}, [], "grid"),
    # beyond GRID_MAX: rejected before the grid is allocated
    ({"grid": 1e20}, [], "grid"),
    ({}, ["--grid", "100000000000000000000"], "grid"),
    ({"box": 1e300}, [], "box"),
    ({"box": 1e-300}, [], "box"),
    # tol is retired whatever its value, its former default and bound
    # included, and so is its flag
    ({"tol": 1e300}, [], "tol"),
    ({}, ["--tol", "1"], "tol"),
    ({"tol": 1e-9}, [], "tol"),
    ({"tol": 1e-6}, [], "tol"),
    ({}, ["--tol", "1e-9"], "tol"),
])
def test_continuity_options_validated(tmp_path, capsys, options, flags, name):
    spec = dict(TORIC_M12)
    spec["options"] = dict(TORIC_M12["options"], **options)
    argv = ["continuity", "--input", write(tmp_path, spec), *flags]
    if flags and flags[0] in ("--box", "--quad-order", "--tol"):
        # no such flag: argparse exits 2 before any input is read
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    if name in RETIRED_OPTIONS:
        assert err == f"schema error: options: unknown option {name!r}\n"
    else:
        assert err.startswith(f"schema error: options.{name}:")
        assert err.count("\n") == 1


def test_two_options_each_with_its_flag():
    assert sorted(cli.OPTION_NAMES) == ["grid", "t0"]
    args = cli.build_parser().parse_args(["all", "--input", "p.json", "--grid", "11", "--t0", "1"])
    assert [getattr(args, name) for name in ("grid", "t0")] == [11, 1.0]


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    src_path = write(tmp_path, TORIC_M12)
    assert main(["validate", "--input", src_path]) == 0
    first = capsys.readouterr()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("the parser was rebuilt"))
    assert main(["validate", "--input", src_path]) == 0
    assert capsys.readouterr() == first
    # argparse errors still go to the stderr of each call
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--input", src_path, "--box", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: horofano ")
        assert err.endswith("error: unrecognized arguments: --box 1\n")


def test_cli_import_loads_no_scipy():
    # scipy is imported lazily by the kernels: a cold r = 3 command never pays
    # for it; the integration is serial, so no thread pool is loaded either
    code = ("import sys, horofano.cli; print(sorted(m for m in sys.modules "
            "if 'scipy' in m or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(dh.__file__).parents[1])))
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(kernels._openblas_dgtsv() is None,
                    reason="this numpy bundles no OpenBLAS, so thomas falls back to scipy")
def test_cold_one_dimensional_all_loads_no_scipy(tmp_path):
    # the tridiagonal solve binds dgtsv from numpy's bundled OpenBLAS: a cold
    # 1-D ``all``, sweep included, never imports scipy
    src = write(tmp_path, TORIC_M12)
    code = ("import sys; from horofano.cli import main; "
            f"assert main(['all', '--input', {src!r}, '--grid', '201']) == 0; "
            "print(sorted(m for m in sys.modules if 'scipy' in m))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(dh.__file__).parents[1])))
    assert "continuity: reached_t1" in out.stdout
    assert out.stdout.splitlines()[-1] == "[]"


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


def test_solver_failure_maps_to_exit_4(tmp_path, monkeypatch, capsys):
    from horofano import soliton

    # one Newton step is too few for toric [-1, 2] (it takes five): the
    # message gives the residual reached and the bound it missed
    monkeypatch.setattr(soliton, "MAX_ITER", 1)
    assert main(["soliton", "--input", write(tmp_path, TORIC_M12)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver error: soliton Newton stopped at |F| = ")
    assert "after 1 iterations, above the bound 1e-10*V = 3.000e-10" in err
    assert "kappa" not in err


@pytest.mark.parametrize("command", ["soliton", "all"])
def test_moments_beyond_float_range_say_so(tmp_path, command):
    # the interval itself is a float, but its weighted moments overflow; the
    # one error line is all of stderr, with no numpy warning before it (a
    # subprocess, which reports warnings as a plain run would)
    spec = dict(TORIC_M12, polytope={"moment": {"vertices": [["-1"], ["1e300"]]}})
    proc = subprocess.run(
        [sys.executable, "-m", "horofano.cli", command, "--input", write(tmp_path, spec)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(dh.__file__).parents[1])))
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and proc.stderr.endswith("\n")
    assert lines[0].startswith("solver error: quadrature moments beyond the float range")
    assert "tolerance" not in proc.stderr


@pytest.mark.parametrize("command", ["all", "continuity"])
@pytest.mark.parametrize("lo, hi", [("-1e-200", "3e-200"), ("-1e-150", "1e-150")])
def test_interval_of_tiny_extent_is_no_crash(tmp_path, capsys, command, lo, hi):
    # the truncation box or the grid mass leaves the float range: a solver
    # error (exit 4) or a failed sweep (exit 0), never a traceback
    spec = dict(TORIC_M12, polytope={"moment": {"vertices": [[lo], [hi]]}})
    assert main([command, "--input", write(tmp_path, spec)]) in (0, 4)
    assert "Traceback" not in capsys.readouterr().err


BEYOND_FLOAT = {
    "root_system": {"factors": [], "torus_rank": 1},
    "levi_subset": [],
    "polytope": {"moment": {"vertices": [["-1"], ["1e400"]]}},
}


@pytest.mark.parametrize("command, code", [
    ("validate", 0), ("invariants", 0), ("ricci-bound", 0), ("soliton", 4), ("all", 4)])
def test_coordinates_beyond_float_range(tmp_path, command, code):
    # the exact commands never build float data; the float ones stop with
    # a solver error that names the float range
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "horofano.cli", command, "--input",
         write(tmp_path, BEYOND_FLOAT), "--out", str(out)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(dh.__file__).parents[1])))
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 4:
        assert proc.stderr.startswith("solver error: ") and "float range" in proc.stderr
        return
    report = json.loads(out.read_text())
    top = 10**400
    if command != "validate":
        assert report["volume"] == str(top + 1)
    if command == "ricci-bound":
        # barycenter (N - 1)/2 for kappa = 0: the ray leaves [-1, N] at
        # s = 2/(N - 1), so R = s/(1 + s) = 2/(N + 1)
        assert report["R"] == str(Q(2, top + 1))


def test_weighted_moments_beyond_float_range_is_solver_error():
    from horofano import SolverError, from_vertices, weighted_moments
    from bare import bare_problem

    hp = bare_problem(from_vertices([(0, 0), (Q(10**400), 0), (0, 1)]))
    assert dh.dh_volume(hp) == Q(10**400, 2)
    with pytest.raises(SolverError, match="float range"):
        weighted_moments(hp, [0.0, 0.0])


# a JSON number literal past Python's 4300-digit limit on parsing an integer
LONG_LITERAL = "1" * 5000


@pytest.mark.parametrize("command", COMMANDS)
def test_oversized_json_number_is_schema_error(tmp_path, capsys, command):
    # json.dumps cannot write such a literal, so the files are written as text
    text = json.dumps(TORIC_M12)
    for i, raw in enumerate([text.replace('"-1"', "-" + LONG_LITERAL),
                             text.replace('"grid": 801', '"grid": ' + LONG_LITERAL)]):
        assert raw != text
        src_path = tmp_path / f"long{i}.json"
        src_path.write_text(raw, encoding="utf-8")
        assert main([command, "--input", str(src_path)]) == 2
        assert "schema error: input: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [b'{"levi_subset": [' + b"[" * 100000 + b"]" * 100001 + b"}",
                                 b'{"levi_subset": "\xff"}'])
def test_unreadable_json_is_schema_error(tmp_path, capsys, raw):
    # nesting past the recursion limit, and bytes that are not UTF-8
    src_path = tmp_path / "bad.json"
    src_path.write_bytes(raw)
    assert main(["validate", "--input", str(src_path)]) == 2
    assert capsys.readouterr().err.startswith("schema error: input: invalid JSON")


def _box(factors, levi, lower, upper):
    return {
        "root_system": {"factors": factors, "torus_rank": 0},
        "levi_subset": levi,
        "polytope": {"moment": {"vertices": [
            [str(c) for c in corner] for corner in itertools.product(*zip(lower, upper))]}},
    }


@pytest.mark.parametrize("command", ["validate", "invariants", "soliton", "ricci-bound"])
def test_rationals_past_max_digits_are_schema_error(tmp_path, capsys, command):
    # an A2 box whose upper x end is 10^1500 (no command could print a
    # result of it), or has one digit past the bound in its numerator or
    # its denominator; the first vertex holding that end is vertices[4]
    for value in ("1e1500", str(10**MAX_DIGITS), f"{10**MAX_DIGITS + 1}/{10**MAX_DIGITS}"):
        spec = _box([["A", 2]], [1], ["1/2", "1/2", "-5/2"], [value, "3/2", "-3/2"])
        assert main([command, "--input", write(tmp_path, spec)]) == 2
        assert capsys.readouterr().err == (
            "schema error: polytope.moment.vertices[4][0]: numerator or denominator "
            f"longer than {MAX_DIGITS} digits\n")


@pytest.mark.parametrize("command", ["invariants", "soliton", "ricci-bound"])
def test_b3_box_at_max_digits_writes_every_report(tmp_path, command):
    # kappa = (3, 3, 3) +- w_i over one shared denominator q, with every
    # numerator and denominator of the corners at MAX_DIGITS digits
    q = 10**MAX_DIGITS // 4 + 1
    widths = [Q(q // 2 + i, q) for i in range(3)]
    lower, upper = [3 - w for w in widths], [3 + w for w in widths]
    assert max(len(str(c.numerator)) for c in lower + upper) == MAX_DIGITS
    assert len(str(q)) == MAX_DIGITS
    out = tmp_path / "report.json"
    assert main([command, "--input", write(tmp_path, _box([["B", 3]], [1, 2], lower, upper)),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["volume"]) > 8 * MAX_DIGITS


def test_result_past_the_print_limit_is_schema_error(tmp_path, capsys):
    # a B3 Levi {1,2} box at the bound whose corners have unrelated
    # denominators: validate prints only the input, while the exact volume
    # is too long to print, which is an exit 2, not a traceback
    dens = [10**(MAX_DIGITS - 2) + 7 + 2 * i for i in range(6)]
    lower = [Q(2 * n + 1, n) for n in dens[:3]]
    upper = [Q(4 * n - 1, n) for n in dens[3:]]
    src_path = write(tmp_path, _box([["B", 3]], [1, 2], lower, upper))
    assert main(["validate", "--input", src_path]) == 0
    capsys.readouterr()
    assert main(["invariants", "--input", src_path]) == 2
    assert capsys.readouterr().err.startswith(
        "schema error: input: an exact result has too many digits to print")


def _with_vertex(spec, i, j, value):
    vertices = [list(v) for v in spec["polytope"]["moment"]["vertices"]]
    vertices[i][j] = value
    return dict(spec, polytope={"moment": {"vertices": vertices}})


OVERFLOWING_SOLITON = {
    "toric[-5e136,11/4]": dict(TORIC_M12, polytope={"moment": {"vertices": [
        [str(-5 * 10**136)], ["11/4"]]}}),
    # perfbench boxes A2-levi1[1/8,1/8,1/8] and A2-levi0[1/4,3/8,1/2], one
    # vertex coordinate replaced
    "A2-levi1-9e54": _with_vertex(
        _box([["A", 2]], [1], ["7/8", "7/8", "-17/8"], ["9/8", "9/8", "-15/8"]),
        2, 0, str(9 * 10**54)),
    "A2-levi0-3e77": _with_vertex(
        _box([["A", 2]], [], ["7/4", "-3/8", "-5/2"], ["9/4", "3/8", "-3/2"]),
        0, 2, str(-3 * 10**77)),
    "simplex-9e61": {
        "root_system": {"factors": [], "torus_rank": 3},
        "levi_subset": [],
        "polytope": {"moment": {"facets": [
            {"normal": ["1", "0", "0"], "offset": str(9 * 10**61)},
            {"normal": ["0", "1", "0"], "offset": "1"},
            {"normal": ["0", "0", "1"], "offset": "1"},
            {"normal": ["-1", "-1", "-1"], "offset": "1"},
        ]}},
    },
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_SOLITON))
def test_soliton_overflow_is_one_error_line(tmp_path, name):
    # a moment, |F| or the Hessian at xi = 0 overflows: one solver error
    # that names the overflow, and no numpy warning before it, even with
    # warnings as errors
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "horofano.cli", "soliton", "--input",
         write(tmp_path, OVERFLOWING_SOLITON[name])],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(dh.__file__).parents[1])))
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and proc.stderr.endswith("\n")
    what = "soliton F or Hessian" if name.startswith("A2-levi1") else "quadrature moments"
    assert lines[0].startswith(f"solver error: {what} beyond the float range")


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


@pytest.mark.parametrize("change,message", [
    # a misspelt key would silently leave its part at the defaults
    ({"option": {"grid": 5}}, "input: unknown key 'option'"),
    ({"lattice_override": {"bogus": 1}}, "lattice_override: unknown key 'bogus'"),
    ({"root_system": {"factors": [], "torus_rank": 2, "rank": 2}},
     "root_system: unknown key 'rank'"),
    ({"polytope": {"moment": {"vertices": [["0"]]}, "facets": []}},
     "polytope: unknown key 'facets'"),
    # a falsy non-object is not an absent override
    ({"lattice_override": []}, "lattice_override: expected an object"),
    ({"lattice_override": False}, "lattice_override: expected an object"),
    ({"lattice_override": 0}, "lattice_override: expected an object"),
    ({"lattice_override": ""}, "lattice_override: expected an object"),
])
def test_input_keys_checked(tmp_path, capsys, change, message):
    spec = dict(REFLECTIVE_SQUARE, **change)
    assert main(["validate", "--input", write(tmp_path, spec)]) == 2
    assert capsys.readouterr().err == f"schema error: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ({k: v for k, v in TORIC_M12.items() if k != "root_system"},
     "root_system: missing required field"),
    ({k: v for k, v in TORIC_M12.items() if k != "polytope"},
     "polytope: missing required field"),
    # B1 has a character space of dimension 1
    ({"root_system": {"factors": [["B", 1]], "torus_rank": 0}, "levi_subset": [],
      "polytope": {"Q": {"vertices": [["-1", "-1"], ["1", "-1"], ["0", "1"]]}}},
     "polytope.Q: polytope dimension 2 != character space dimension 1"),
], ids=["no-root_system", "no-polytope", "B1-planar-Q"])
def test_missing_part_or_wrong_q_dimension_is_schema_error(tmp_path, capsys, spec, message):
    for command in ("validate", "all"):
        assert main([command, "--input", write(tmp_path, spec)]) == 2
        assert capsys.readouterr().err == f"schema error: {message}\n"


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


def test_continuity_two_dimensional_is_validation_error(tmp_path, capsys, monkeypatch):
    # default options (grid 2001): rejected before any grid is built, and
    # before the soliton solve, which would raise here
    def no_soliton(hp):
        raise AssertionError("the soliton was solved")

    monkeypatch.setattr(cli, "solve_soliton", no_soliton)
    for spec in (P2, A2_LEVI):
        assert main(["continuity", "--input", write(tmp_path, spec)]) == 3
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


TORIC_Q = {
    "root_system": {"factors": [], "torus_rank": 1},
    "levi_subset": [],
    "polytope": {"Q": {"vertices": [["-1"], ["1"]]}},
}


@pytest.mark.parametrize("spec, message", [
    # Python would read each string character by character
    ({"root_system": {"factors": [["B", 1]], "torus_rank": 0}, "levi_subset": [],
      "polytope": {"moment": {"vertices": "02"}}},
     "polytope.moment.vertices: expected a list of lists of rationals"),
    (dict(TORIC_Q, lattice_override={"coweight_basis": "1"}),
     "lattice_override.coweight_basis: expected a list of lists of rationals"),
    (dict(TORIC_M12, polytope={"moment": {"facets": [
        {"normal": "1", "offset": "2"}, {"normal": ["-1"], "offset": "1"}]}}),
     "polytope.moment.facets[0].normal: expected a list of rationals"),
], ids=["vertices", "coweight_basis", "normal"])
def test_string_for_a_list_is_schema_error(tmp_path, capsys, spec, message):
    assert main(["invariants", "--input", write(tmp_path, spec)]) == 2
    assert capsys.readouterr().err == f"schema error: {message}\n"


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
FUZZ_VALUES = ("x", "", "1/0", "-1e5000", -1, 0, 10**6, 1.5, True, None, [], {},
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
    command = data.draw(st.sampled_from(COMMANDS))
    src_path = write(tmp_path_factory.mktemp("fuzz"), spec)
    # a coarse grid keeps the solving commands fast
    assert main([command, "--input", src_path, "--grid", "201"]) in (0, 2, 3, 4)


def _small_rationals(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=8)


@st.composite
def solver_inputs(draw):
    """A valid problem with only its numbers redrawn within their valid
    ranges, so that it reaches the solvers: the vertices of a toric or B1
    interval or of an A2 box (kappa stays interior and every density form
    positive), and the continuity grid."""
    kind = draw(st.sampled_from(("toric", "b1", "a2-box")))
    if kind == "toric":  # kappa = 0
        base = TORIC_M12
        lower = [-draw(_small_rationals(Q(1, 8), 4))]
        upper = [draw(_small_rationals(Q(1, 8), 4))]
    elif kind == "b1":  # kappa = 1, density x; a lower end 0 sits on its wall
        base = B1_HALF_3
        lower = [draw(_small_rationals(0, Q(7, 8)))]
        upper = [draw(_small_rationals(Q(9, 8), 4))]
    else:  # kappa = (1, 1, -2), density (x1 - x3)(x2 - x3)
        base, kappa = A2_FACET_BOX, (1, 1, -2)
        lower = [k - draw(_small_rationals(Q(1, 8), Q(7, 8))) for k in kappa]
        upper = [k + draw(_small_rationals(Q(1, 8), Q(7, 8))) for k in kappa]
    vertices = [[str(c) for c in corner] for corner in itertools.product(*zip(lower, upper))]
    return {**base, "polytope": {"moment": {"vertices": vertices}},
            "options": {"grid": draw(st.integers(201, 401))}}


@settings(max_examples=30, deadline=None)
@given(spec=solver_inputs(),
       command=st.sampled_from(("soliton", "ricci-bound", "continuity", "all")))
def test_exit_code_contract_fuzz_reaches_the_solvers(tmp_path_factory, spec, command):
    src_path = write(tmp_path_factory.mktemp("solver-fuzz"), spec)
    assert main([command, "--input", src_path]) in (0, 2, 3, 4)
