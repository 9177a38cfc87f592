"""Span tracing around the public functions of each horofano layer.

A wrapper replaces a function in every ``horofano`` module namespace that
holds it, so calls are caught wherever the name is looked up (``cli``
imports ``solve_soliton`` by name, ``soliton`` calls ``weighted_moments``
through its own global, ``continuity`` goes through ``kernels.thomas``).
Spans (name, start, end, parent, op id, info) are kept in memory and turned
into per-layer figures when the run ends; a span keeps only the shapes
and counts ``_info`` reads off the call, never the arrays.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (home module, function, span name); the layer is the part before the dot
TARGETS = (
    ("horofano.cli", "load_problem", "cli.load_problem"),
    ("horofano.cli", "run", "cli.run"),
    ("horofano.roots", "build_root_system", "polytopes.build_root_system"),
    ("horofano.roots", "parabolic_data", "polytopes.parabolic_data"),
    ("horofano.polytopes", "polytope_from_json", "polytopes.polytope_from_json"),
    ("horofano.polytopes", "delta_from_moment", "polytopes.delta_from_moment"),
    ("horofano.polytopes", "triangulate", "polytopes.triangulate"),
    ("horofano.dh", "dh_volume", "dh.exact"),
    ("horofano.dh", "dh_barycenter", "dh.exact"),
    ("horofano.dh", "weighted_moments", "dh.weighted_moments"),
    ("horofano.kernels", "quad_moments", "kernels.quad_moments"),
    ("horofano.kernels", "residual_1d", "kernels.residual_1d"),
    ("horofano.kernels", "thomas", "kernels.thomas"),
    ("horofano.soliton", "solve_soliton", "soliton.solve"),
    ("horofano.soliton", "weighted_mass", "soliton.weighted_mass"),
    ("horofano.ricci", "greatest_ricci_lower_bound", "ricci.bound"),
    ("horofano.continuity", "build_setup", "continuity.setup"),
    ("horofano.continuity", "continuity_sweep", "continuity.sweep"),
    ("horofano.continuity", "estimate_rm_numeric", "continuity.estimate"),
)

# layers each workload must exercise in a traced run
EXPECTED = {
    "cli-cold": ("cli", "polytopes", "dh", "kernels", "soliton", "ricci", "continuity"),
    "sweep-1d": ("cli", "polytopes", "dh", "kernels", "soliton", "ricci", "continuity"),
    "diverge-1d": ("polytopes", "dh", "kernels", "continuity"),
    "moments-3d": ("cli", "polytopes", "dh", "kernels", "soliton", "ricci"),
}


def _info(name, args, kwargs, result) -> dict:
    """Shapes and counts read off a call (kernel costs, solver counts)."""
    if name == "kernels.quad_moments":
        points, forms = args[0], args[2]
        return {"nodes": int(points.shape[0]), "r": int(points.shape[1]),
                "k": int(forms.shape[0]) if forms.ndim == 2 else 0}
    if name == "kernels.residual_1d":
        return {"n": int(args[0].shape[0]), "k": int(args[5].shape[0])}
    if name == "kernels.thomas":
        return {"n": int(args[1].shape[0])}
    if name == "dh.weighted_moments":
        return {"order": int(result.order)}
    if name == "polytopes.triangulate":
        return {"simplices": len(result)}
    if name == "soliton.solve":
        return {"iterations": int(result.iterations)}
    if name == "continuity.sweep":
        return {"states": len(result.states)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, info]
        self._stack: list[int] = []
        self.op = -1
        self._patched: list[tuple] = []
        self.missing: set[str] = set()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            try:
                spans[idx][5] = _info(name, args, kwargs, result)
            except Exception:  # a changed signature must not break the op
                spans[idx][5] = {}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "horofano" or n.startswith("horofano."))]
        for home, attr, name in TARGETS:
            fn = getattr(sys.modules.get(home), attr, None)
            if fn is None:
                self.missing.add(f"{name} ({home}.{attr})")
                continue
            wrapper = self._wrap(name, fn)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()


def layer_figures(spans: list[list], n_ops: int) -> dict:
    """Per-op means over the spans of traced ops (op id >= 0), and the
    computed cost per kernel call.  A span counts toward the time of its
    name (its layer) only if no enclosing span has the same name (layer)."""
    per_op = defaultdict(float)
    kernel_cost = defaultdict(lambda: [0.0, 0.0, 0])

    def layer(i):
        return spans[i][0].split(".")[0]

    def nested_in(i, key):
        own, p = key(i), spans[i][3]
        while p >= 0:
            if key(p) == own:
                return True
            p = spans[p][3]
        return False

    def span_name(i):
        return spans[i][0]

    kernel_in_sweep = 0.0
    order_max = 0
    # per weighted_moments span: [quad_moments children, simplices]
    moments = defaultdict(lambda: [0, 0])
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        info = info or {}  # None when the call raised
        if op < 0:
            continue
        ms = (end - start) * 1e3
        per_op[name + "_calls"] += 1
        if not nested_in(i, span_name):
            per_op[name + "_ms"] += ms
        if not nested_in(i, layer):
            per_op[layer(i) + ".layer_ms"] += ms
        if name.startswith("kernels."):
            p = parent
            while p >= 0 and spans[p][0] != "continuity.sweep":
                p = spans[p][3]
            if p >= 0:
                kernel_in_sweep += ms
            if info:
                cost = kernel_cost[name]
                for j, v in enumerate(kernel_cost_of(name, info)):
                    cost[j] += v
                cost[2] += 1
        if name == "soliton.weighted_mass" and parent >= 0 and spans[parent][0] == "soliton.solve":
            per_op["soliton.mass_trials"] += 1
        if name == "kernels.quad_moments" and parent >= 0 and spans[parent][0] == "dh.weighted_moments":
            moments[parent][0] += 1
        if not info:
            continue
        if name == "kernels.quad_moments":
            per_op["kernels.quad_moments_nodes"] += info["nodes"]
        elif name == "dh.weighted_moments":
            order_max = max(order_max, info["order"])
        elif name == "polytopes.triangulate" and parent >= 0 and spans[parent][0] == "dh.weighted_moments":
            moments[parent][1] = info["simplices"]
        elif name == "soliton.solve":
            per_op["soliton.iterations"] += info["iterations"]
        elif name == "continuity.sweep":
            per_op["continuity.states_accepted"] += info["states"]
    per_op["continuity.self_ms"] = per_op["continuity.sweep_ms"] - kernel_in_sweep
    # a pass evaluates every simplex at two orders; passes after the first
    # are refinements
    per_op["dh.quad_refinements"] = sum(
        quads / (2 * simplices) - 1 for quads, simplices in moments.values() if simplices)
    out = {k: v / max(n_ops, 1) for k, v in per_op.items()}
    out["dh.quad_order_max"] = order_max
    for name, (flops, nbytes, calls) in kernel_cost.items():
        out[name + "_computed_flops_per_call"] = flops / calls
        out[name + "_computed_bytes_per_call"] = nbytes / calls
    return out


def kernel_cost_of(name: str, info: dict) -> tuple[float, float]:
    """Operation count and compulsory bytes moved for one kernel call,
    computed from argument shapes (not measured; caches are ignored).
    exp and the product over forms count one operation per element."""
    if name == "kernels.quad_moments":
        n, r, k = info["nodes"], info["r"], info["k"]
        # forms.p + off (2rk), product (k), <ell,p> (2r), exp and weight (3),
        # I1 (2r), I2 (2r^2)
        flops = n * (2 * r * k + k + 2 * r + 3 + 2 * r + 2 * r * r)
        nbytes = 8 * (n * r + n + k * r + k + r + 1 + r + r * r)
        return float(flops), float(nbytes)
    if name == "kernels.residual_1d":
        n, k = info["n"], info["k"]
        # stencil (8), density terms and product (3k + k), exp (4), residual
        # (3), product-rule derivative (k * (k + 2)), Jacobian bands (12)
        flops = n * (8 + 4 * k + 4 + 3 + k * (k + 2) + 12)
        nbytes = 8 * n * (2 + 4)  # reads u, u0; writes f and three bands
        return float(flops), float(nbytes)
    if name == "kernels.thomas":
        n = info["n"]
        # banded LU with partial pivoting and the two triangular solves
        return float(13 * n), float(8 * n * (4 + 1 + 3))  # 4 in, 1 out, 3-row band copy
    return 0.0, 0.0
