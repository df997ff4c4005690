"""Per-layer metrics of the traced run, computed from spans and counters.

Span names are ``<layer>.<function>`` or ``<layer>.<Class>.<method>``; the
root span of each op is ``op``.  Times are in reference seconds (see
``reference.py``) except ``trace.ref_kernel_s``, a wall time.  Times and
counts are means per traced op, except ``assembly.residual_max`` (largest
over all solves).  The layer ``*.self_s`` values plus
``trace.unattributed_s`` add up to ``trace.op_s_mean``.
"""

from __future__ import annotations

import statistics

from tracing import aggregate, layer_of
from workloads import LAYERS


def _on_load(tracer, mesh):
    tracer.counters["mesh.elements"] += mesh.n_elements
    tracer.counters["mesh.faces"] += mesh.n_faces
    tracer.counters["mesh.vertices"] += len(mesh.vertices)


def _on_assemble(tracer, system):
    tracer.counters["assembly.dofs"] += system.dofmap.total
    tracer.counters["assembly.nnz"] += system.matrix.nnz


def _note_residual(tracer, info):
    c = tracer.counters
    c["assembly.residual_max"] = max(c["assembly.residual_max"], info.residual)


def _on_solve(tracer, result):
    info = result[1]
    _note_residual(tracer, info)
    if info.method == "cg":
        tracer.counters["assembly.cg_fallbacks"] += 1


def _on_condense(tracer, condensed):
    tracer.counters["assembly.reduced_dofs"] += condensed.n_reduced


def _on_poincare(tracer, result):
    tracer.counters["verify.poincare_iters"] += result[1]


OBSERVERS = {
    "mesh.load_mesh": _on_load,
    "assembly.assemble": _on_assemble,
    "assembly.solve": _on_solve,
    "assembly.solve_condensed": lambda tracer, result: _note_residual(tracer, result[1]),
    "assembly.static_condense": _on_condense,
    "verify.poincare_constant": _on_poincare,
}

# name -> unit, in report order; BENCHMARK.json lists the same names
UNITS = {
    "mesh.load_s": "s",
    "mesh.us_per_element": "us/element",
    "mesh.elements": "count",
    "mesh.faces": "count",
    "mesh.vertices": "count",
    "mesh.self_s": "s",
    "polybasis.self_s": "s",
    "polybasis.calls": "count",
    "hho_local.self_s": "s",
    "hho_local.ops_self_s": "s",
    "hho_local.us_per_element": "us/element",
    "hho_local.interp_s": "s",
    "hho_local.eta_s": "s",
    "assembly.self_s": "s",
    "assembly.assemble_self_s": "s",
    "assembly.solve_s": "s",
    "assembly.condense_s": "s",
    "assembly.normgram_s": "s",
    "assembly.dofs": "count",
    "assembly.nnz": "count",
    "assembly.reduced_dofs": "count",
    "assembly.residual_max": "1",
    "assembly.cg_fallbacks": "count",
    "verify.self_s": "s",
    "verify.poincare_s": "s",
    "verify.poincare_iters": "count",
    "verify.interp_per_element": "calls/element",
    "trace.op_s_mean": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.op_s_p50": "s",
    "trace.untraced_op_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.ref_kernel_s": "s",
}


def layer_metrics(tracer, traced_times, untraced_times, ref_kernel_s):
    """Every per-layer metric as {name: (value, unit)} from one traced run.

    ``traced_times`` and ``untraced_times`` are the op times, in reference
    seconds, of the traced and the untraced ops; ``ref_kernel_s`` is the
    median wall time of the reference kernel in the run.
    """
    stats = aggregate(tracer)
    n_ops = stats["op"]["calls"]
    c = tracer.counters
    elements = max(c["mesh.elements"], 1.0)

    def total(key, *names):
        return sum(stats[n][key] for n in names if n in stats)

    def per_op(key, *names):
        return total(key, *names) / n_ops

    def layer_total(layer, key):
        return sum(s[key] for n, s in stats.items() if layer_of(n) == layer) / n_ops

    traced_p50 = statistics.median(traced_times)
    untraced_p50 = statistics.median(untraced_times)
    values = {
        "mesh.load_s": per_op("incl_s", "mesh.load_mesh"),
        "mesh.us_per_element": 1e6 * total("incl_s", "mesh.load_mesh") / elements,
        "mesh.elements": c["mesh.elements"] / n_ops,
        "mesh.faces": c["mesh.faces"] / n_ops,
        "mesh.vertices": c["mesh.vertices"] / n_ops,
        "polybasis.calls": layer_total("polybasis", "calls"),
        "hho_local.ops_self_s": per_op("self_s", "hho_local.local_operators"),
        "hho_local.us_per_element":
            1e6 * total("incl_s", "assembly.build_local_operators") / elements,
        "hho_local.interp_s": per_op("incl_s", "hho_local.interpolate"),
        "hho_local.eta_s": per_op("incl_s", "hho_local.eta_bounds"),
        "assembly.assemble_self_s": per_op("self_s", "assembly.assemble"),
        "assembly.solve_s": per_op("incl_s", "assembly.solve"),
        "assembly.condense_s":
            per_op("incl_s", "assembly.static_condense", "assembly.solve_condensed"),
        "assembly.normgram_s": per_op("incl_s", "assembly.NormGram.__init__"),
        "assembly.dofs": c["assembly.dofs"] / n_ops,
        "assembly.nnz": c["assembly.nnz"] / n_ops,
        "assembly.reduced_dofs": c["assembly.reduced_dofs"] / n_ops,
        "assembly.residual_max": c["assembly.residual_max"],
        "assembly.cg_fallbacks": c["assembly.cg_fallbacks"] / n_ops,
        "verify.poincare_s": per_op("incl_s", "verify.poincare_constant"),
        "verify.poincare_iters": c["verify.poincare_iters"] / n_ops,
        "verify.interp_per_element":
            total("calls", "hho_local.interpolate") / elements,
        "trace.op_s_mean": per_op("incl_s", "op"),
        "trace.unattributed_s": per_op("self_s", "op"),
        "trace.spans": len(tracer) / n_ops,
        "trace.op_s_p50": traced_p50,
        "trace.untraced_op_s_p50": untraced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.ref_kernel_s": ref_kernel_s,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_total(layer, "self_s")
    return {name: (values[name], unit) for name, unit in UNITS.items()}
