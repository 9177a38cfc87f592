"""Problem ingestion, validation orchestration and report/trace emission.

Exit codes: 0 success, 2 malformed input (schema), an unwritable ``--out``
/ ``--trace`` path or ``--trace`` on a command that runs no continuity
sweep, 3 mathematical validation failure, 4 solver/quadrature failure.
``all`` on r >= 2 skips the sweep and says on stderr that it wrote no trace.
Reports are deterministic: exact values are serialized as 'p/q' strings,
keys are sorted, and no timestamps appear.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .continuity import ContinuityOptions, ContinuityTrace, continuity_sweep
from .errors import MathValidationError, SchemaError, SolverError
from .polytopes import (
    MAX_DIM,
    ReflectivityReport,
    moment_polytope,
    polytope_from_json,
    polytope_to_json,
    validate_reflective,
)
from .problem import HorosphericalProblem, problem_from_root_data
from .rationals import format_rational, parse_matrix
from .ricci import greatest_ricci_lower_bound
from .roots import build_root_system, parabolic_data
from .soliton import kahler_einstein_test, solve_soliton

CONVENTION = (
    "kappa = sum of the positive roots outside the Levi; the moment polytope "
    "contains kappa in its interior; Einstein iff the density barycenter "
    "equals kappa; soliton weight exp(-2<p - kappa, xi>)"
)

COMMANDS = ("validate", "invariants", "soliton", "ricci-bound", "continuity", "all")
# every option has a command-line flag of the same name that overrides it
OPTION_NAMES = frozenset(f.name for f in dataclasses.fields(ContinuityOptions))
# the commands that run the continuity sweep, so the only ones --trace serves
TRACE_COMMANDS = ("continuity", "all")
INPUT_KEYS = ("root_system", "levi_subset", "polytope", "lattice_override", "options")


@dataclass
class LoadedProblem:
    hp: HorosphericalProblem
    options: ContinuityOptions
    reflectivity: ReflectivityReport | None
    input_hash: str


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError("missing required field", f"{path}.{key}" if path else key)
    return obj[key]


def _object(value, path: str, keys, what: str = "key") -> dict:
    """``value`` when it is an object whose keys all lie in ``keys``, else a
    ``SchemaError`` naming ``path``."""
    if not isinstance(value, dict):
        raise SchemaError("expected an object", path)
    for key in value:
        if key not in keys:
            raise SchemaError(f"unknown {what} {key!r}", path)
    return value


def _parse_matrix(obj, path: str):
    return None if obj is None else parse_matrix(obj, path)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_problem(path: str, strict: bool = True) -> LoadedProblem:
    """Read, schema-check and mathematically validate a problem file.

    With ``strict`` (every command except ``validate``) a reflective input
    failing any of the reflectivity conditions is rejected outright; the
    ``validate`` command instead loads it and reports the failed conditions.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}", "input")
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # besides a JSONDecodeError: a number literal past Python's digit
        # limit, bytes that are not UTF-8, or nesting past the recursion limit
        raise SchemaError(f"invalid JSON: {exc}", "input")
    _object(data, "input", INPUT_KEYS)

    rs = _object(_require(data, "root_system", ""), "root_system", ("factors", "torus_rank"))
    factors = rs.get("factors", [])
    torus_rank = rs.get("torus_rank", 0)
    if not isinstance(factors, list):
        raise SchemaError("expected a list of [family, rank] pairs", "root_system.factors")
    if not _is_int(torus_rank):
        raise SchemaError(f"expected an integer, got {torus_rank!r}", "root_system.torus_rank")
    for i, f in enumerate(factors):
        if not (isinstance(f, list) and len(f) == 2
                and isinstance(f[0], str) and _is_int(f[1])):
            raise SchemaError("each factor is a [family letter, integer rank] pair",
                              f"root_system.factors[{i}]")
    # every block's dimension is at least its rank: reject before building
    if sum(f[1] for f in factors) + torus_rank > MAX_DIM:
        raise MathValidationError(
            f"character space dimension exceeds {MAX_DIM}", condition="dimension"
        )
    rd = build_root_system([(f[0], f[1]) for f in factors], torus_rank)

    levi = data.get("levi_subset", [])
    if not isinstance(levi, list) or not all(_is_int(i) for i in levi):
        raise SchemaError("expected a list of 1-based simple-root indices", "levi_subset")
    pd = parabolic_data(rd, levi)

    poly_spec = _object(_require(data, "polytope", ""), "polytope", ("Q", "moment"))
    if ("Q" in poly_spec) == ("moment" in poly_spec):
        raise SchemaError("exactly one of 'Q' / 'moment' must be present", "polytope")

    lattice = _object(data.get("lattice_override", {}), "lattice_override",
                      ("coweight_basis", "character_basis"))
    coweight = _parse_matrix(lattice.get("coweight_basis"), "lattice_override.coweight_basis")
    character = _parse_matrix(lattice.get("character_basis"), "lattice_override.character_basis")
    for name, basis in [("coweight_basis", coweight), ("character_basis", character)]:
        if basis is not None and (
            len(basis) != rd.dim or any(len(row) != rd.dim for row in basis)
        ):
            raise SchemaError(
                f"basis must be a {rd.dim}x{rd.dim} matrix", f"lattice_override.{name}"
            )

    reflectivity = None
    if "Q" in poly_spec:
        q_poly = polytope_from_json(poly_spec["Q"], "polytope.Q")
        if q_poly.dim != rd.dim:
            raise SchemaError(
                f"polytope dimension {q_poly.dim} != character space dimension {rd.dim}",
                "polytope.Q",
            )
        reflectivity = validate_reflective(
            q_poly, rd, pd, coweight_basis=coweight, character_basis=character
        )
        if not reflectivity.zero_interior:
            raise MathValidationError(
                "reflectivity condition (1) failed: 0 is not interior to Q",
                condition="zero_interior",
            )
        if strict and not reflectivity.all_ok:
            failed = [
                name
                for name, flag in [
                    ("vertices in lattice or scaled coroots", reflectivity.vertices_ok),
                    ("dual vertices in the character lattice", reflectivity.dual_ok),
                    ("scaled coroots inside the polytope", reflectivity.coroot_ok),
                    ("shifted dual inside the dominant chamber", reflectivity.dominant_ok),
                ]
                if not flag
            ]
            raise MathValidationError(
                "reflectivity validation failed: " + "; ".join(failed),
                condition="reflectivity",
            )
        moment = moment_polytope(q_poly, pd.kappa)
    else:
        moment = polytope_from_json(poly_spec["moment"], "polytope.moment")

    hp = problem_from_root_data(rd, pd, moment)

    opts = _object(data.get("options", {}), "options", OPTION_NAMES, "option")
    return LoadedProblem(
        hp=hp, options=ContinuityOptions(**opts), reflectivity=reflectivity,
        input_hash=digest,
    )


def _reflectivity_json(rep: ReflectivityReport | None):
    if rep is None:
        return None
    return {
        "all_ok": rep.all_ok,
        "zero_interior": rep.zero_interior,
        "vertices_in_lattice_or_coroot": rep.vertices_ok,
        "vertex_branches": [
            {"vertex": [format_rational(c) for c in v], "branch": b}
            for v, b in rep.vertex_branches
        ],
        "dual_vertices_in_lattice": rep.dual_ok,
        "dual_offenders": [[format_rational(c) for c in v] for v in rep.dual_offenders],
        "scaled_coroots_inside": rep.coroot_ok,
        "coroot_membership": [
            {
                "root": [format_rational(c) for c in alpha],
                "a": a,
                "point": [format_rational(c) for c in pt],
                "inside": ok,
            }
            for alpha, a, pt, ok in rep.coroot_witness
        ],
        "moment_dominant": rep.dominant_ok,
        "pairing_bound": format_rational(rep.f_bound) if rep.f_bound is not None else None,
    }


def _vec_json(v):
    return [format_rational(c) for c in v]


def _trace_csv(trace: ContinuityTrace, path: str) -> None:
    lines = ["t,m_t,x_t_1,mass,residual,sup_psi,step"]
    for s in trace.states:
        lines.append(
            f"{s.t!r},{s.m_t!r},{s.x_t!r},{s.mass!r},{s.residual!r},{s.sup_psi!r},{s.step!r}"
        )
    _write_text(path, "\n".join(lines) + "\n", "--trace")


def _check_writable(path: str | None, flag: str) -> None:
    """Reject an output path before any work runs: its directory must exist
    and the path itself must not be a directory."""
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise SchemaError(f"cannot write {path!r}: no directory {parent!r}", flag)
    if os.path.isdir(path):
        raise SchemaError(f"cannot write {path!r}: it is a directory", flag)


def _write_text(path: str, text: str, flag: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write output: {exc}", flag)


def _trace_json(trace: ContinuityTrace):
    out = {
        "termination": trace.termination,
        "reached_t1": trace.reached_t1,
        "steps_accepted": len(trace.states),
        "xi": [trace.xi],
        "grid": trace.grid,
        "box": trace.box,
        "volume": float(trace.volume),
        "d0": trace.d0,
    }
    if trace.states:
        masses = [s.mass for s in trace.states]
        vol = trace.volume
        out["final_t"] = trace.states[-1].t
        out["final_residual"] = trace.states[-1].residual
        out["mass_max_rel_err"] = max(abs(m - vol) / vol for m in masses)
        out["sup_psi_range"] = [min(s.sup_psi for s in trace.states),
                                max(s.sup_psi for s in trace.states)]
    if trace.diverged_at is not None:
        out["diverged_at"] = trace.diverged_at
    return out


def run(command: str, loaded: LoadedProblem, trace_path: str | None = None) -> dict:
    """Execute one pipeline command and assemble the report dictionary."""
    hp = loaded.hp
    if command == "continuity" and hp.a1_dim > 1:
        raise MathValidationError("continuity solver supports r = 1 only", condition="dimension")
    report: dict = {
        "tool": "horofano",
        "version": __version__,
        "command": command,
        "convention": CONVENTION,
        "input_hash": loaded.input_hash,
        "a1_dim": hp.a1_dim,
        "kappa": _vec_json(hp.kappa),
        "moment_polytope": polytope_to_json(hp.moment),
        "density_forms": [_vec_json(f) for f in hp.density.forms],
        "validation": {
            "kappa_interior": True,
            "density_nonnegative": True,
            "reflectivity": _reflectivity_json(loaded.reflectivity),
        },
    }

    if command in ("invariants", "soliton", "ricci-bound", "continuity", "all"):
        report["volume"] = format_rational(hp.volume)
        report["barycenter"] = _vec_json(hp.barycenter)
        ke, gap = kahler_einstein_test(hp)
        report["ke"] = ke
        report["ke_gap"] = _vec_json(gap)

    sol = None
    if command in ("soliton", "continuity", "all"):
        sol = solve_soliton(hp)
        report["xi"] = [float(v) for v in sol.xi]
        report["soliton_residual"] = sol.residual_norm
        report["soliton_iterations"] = sol.iterations
        report["hessian_min_eig"] = sol.hessian_min_eig

    if command in ("ricci-bound", "all"):
        rb = greatest_ricci_lower_bound(hp)
        report["R"] = format_rational(rb.t_infinity)
        report["exit_scalar"] = (
            format_rational(rb.exit_scalar) if rb.exit_scalar is not None else None
        )
        report["tight_facets"] = list(rb.tight_facets)

    if command in ("continuity", "all"):
        if hp.a1_dim > 1:  # only ``all`` gets here: ``continuity`` was rejected above
            report["continuity"] = {"skipped": f"r = {hp.a1_dim} > 1"}
        else:
            trace = continuity_sweep(hp, sol.xi, loaded.options)
            report["continuity"] = _trace_json(trace)
            if trace_path:
                _trace_csv(trace, trace_path)
                report["continuity"]["trace_file"] = trace_path
    return report


def _summary_lines(report: dict) -> list[str]:
    lines = [f"horofano {report['version']}  command={report['command']}"]
    reflectivity = report["validation"]["reflectivity"]
    if reflectivity is not None:
        lines.append(f"reflectivity: all_ok={reflectivity['all_ok']}")
    if "volume" in report:
        lines.append(f"V = {report['volume']}   Bar = {report['barycenter']}")
        lines.append(f"Einstein: {report['ke']}  gap = {report['ke_gap']}")
    if "xi" in report:
        lines.append(f"xi = {report['xi']}  |F| = {report['soliton_residual']:.3e}")
    if "R" in report:
        lines.append(f"R = {report['R']}  tight facets {report['tight_facets']}")
    if "continuity" in report:
        c = report["continuity"]
        if "skipped" in c:
            lines.append(f"continuity: skipped ({c['skipped']})")
        else:
            lines.append(
                f"continuity: {c['termination']} after {c['steps_accepted']} accepted steps"
            )
    return lines


def _write_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True)
    if out_path:
        _write_text(out_path, text + "\n", "--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horofano",
        description="Canonical-metric invariants of Fano horospherical manifolds",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="problem JSON file")
    parser.add_argument("--out", help="write the report JSON here")
    parser.add_argument("--trace", help="write the continuity trace CSV here")
    parser.add_argument("--grid", type=int, help="grid points per axis override")
    parser.add_argument("--t0", type=float, help="continuity start parameter override")
    return parser


# the parser never changes, so a process builds it once
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.trace and args.command not in TRACE_COMMANDS:
            raise SchemaError(f"{args.command} runs no continuity sweep, so writes no trace",
                              "--trace")
        _check_writable(args.out, "--out")
        _check_writable(args.trace, "--trace")
        loaded = load_problem(args.input, strict=args.command != "validate")
        overrides = {
            name: getattr(args, name) for name in OPTION_NAMES if getattr(args, name) is not None
        }
        loaded.options = dataclasses.replace(loaded.options, **overrides)
        report = run(args.command, loaded, trace_path=args.trace)
        _write_report(report, args.out)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except MathValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    for line in _summary_lines(report):
        print(line)
    skipped = report.get("continuity", {}).get("skipped")
    if args.trace and skipped:
        print(f"note: --trace: no trace written, continuity skipped ({skipped})", file=sys.stderr)
    reflectivity = report["validation"]["reflectivity"]
    if args.command == "validate" and reflectivity is not None and not reflectivity["all_ok"]:
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
