"""Layer boundaries the traced run records, and the per-layer metrics.

TARGETS names every public function the tracer wraps; the span name is
"<module>.<attribute>".  The kernel is seen at backend.select, whose wrapper
hands out a proxy that records "kernel.perm_scan" and "kernel.count_zeros"
spans.  Calls to the AGGREGATED leaves are too many to keep one by one: each
(parent, name) pair keeps a single span whose `dur` is the summed duration
and `calls` the number of calls.

A span is a dict with keys name, id, parent, start, end, dur, calls, meta
(and cmd once merged into a run's trace file).  Self time is `dur` minus the
`dur` of the span's children.
"""

from __future__ import annotations

from collections import defaultdict

TARGETS = {
    "permrat.field": ["make_field", "first_elem_with_trace", "subfield_elements"],
    "permrat.maps": ["trace_class_reps", "subfield_trace_reps", "is_permutation",
                     "verify_witness"],
    "permrat.curves": ["count_affine", "affine_zeros", "count_infinity", "phi_fibers",
                       "BiPoly.eval", "collision_curve", "criterion_sextic",
                       "symmetric_quartic", "homogenization_quartic", "uni_derivative",
                       "uni_gcd", "is_squarefree", "uni_square_root"],
    "permrat.verify": ["verify_small_characteristic_baseline",
                       "verify_degree_five_nonpermutation",
                       "verify_quadratic_trace_criterion",
                       "verify_prime_power_trace_criterion", "verify_square_obstruction",
                       "verify_squarefree_gcd_chain", "verify_curve_bounds",
                       "conjecture_search", "run_cases"],
    "permrat.cli": ["main", "emit_report"],
}
AGGREGATED = {"field.make_field", "curves.BiPoly.eval"}
LAYERS = ("field", "maps", "kernel", "curves", "verify", "cli")

_BUILDERS = {"curves.collision_curve", "curves.criterion_sextic", "curves.symmetric_quartic",
             "curves.homogenization_quartic"}
_UNI = {"curves.uni_derivative", "curves.uni_gcd", "curves.is_squarefree",
        "curves.uni_square_root"}
_CAMPAIGNS = {f"verify.{a}" for a in TARGETS["permrat.verify"] if a != "run_cases"}

# Metric name -> (unit, kind, span names).  "time" sums the duration of the
# outermost spans of those names (so nesting and recursion count once),
# "self" sums their self time, "calls" counts calls.
_SPAN_METRICS = {
    "field.make_field_s": ("s", "time", {"field.make_field"}),
    "field.first_elem_with_trace_s": ("s", "time", {"field.first_elem_with_trace"}),
    "field.first_elem_with_trace_calls": ("count", "calls", {"field.first_elem_with_trace"}),
    "field.subfield_elements_s": ("s", "time", {"field.subfield_elements"}),
    "maps.trace_class_reps_s": ("s", "time", {"maps.trace_class_reps"}),
    "maps.subfield_trace_reps_s": ("s", "time", {"maps.subfield_trace_reps"}),
    "maps.is_permutation_s": ("s", "time", {"maps.is_permutation"}),
    "maps.is_permutation_calls": ("count", "calls", {"maps.is_permutation"}),
    "maps.verify_witness_s": ("s", "time", {"maps.verify_witness"}),
    "maps.verify_witness_calls": ("count", "calls", {"maps.verify_witness"}),
    "kernel.perm_scan_s": ("s", "time", {"kernel.perm_scan"}),
    "kernel.count_zeros_s": ("s", "time", {"kernel.count_zeros"}),
    "curves.count_affine_s": ("s", "time", {"curves.count_affine"}),
    "curves.affine_zeros_s": ("s", "time", {"curves.affine_zeros"}),
    "curves.count_infinity_s": ("s", "time", {"curves.count_infinity"}),
    "curves.phi_fibers_s": ("s", "self", {"curves.phi_fibers"}),
    "curves.bipoly_eval_s": ("s", "time", {"curves.BiPoly.eval"}),
    "curves.bipoly_eval_calls": ("count", "calls", {"curves.BiPoly.eval"}),
    "curves.build_s": ("s", "time", _BUILDERS),
    "curves.uni_s": ("s", "time", _UNI),
    "verify.campaign_s": ("s", "time", _CAMPAIGNS),
    "verify.run_cases_self_s": ("s", "self", {"verify.run_cases"}),
    "cli.emit_report_s": ("s", "time", {"cli.emit_report"}),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: unit for name, (unit, _, _) in _SPAN_METRICS.items()}
    units.update({
        "field.trace_walk_elems": "count",
        "maps.full_scan_s": "s",
        "maps.full_scan_elems": "count",
        "maps.full_scan_elems_per_s": "1/s",
        "maps.collide_scan_s": "s",
        "maps.evaluations": "count",
        "maps.witness_pass_frac": "ratio",
        "kernel.count_zeros_points": "count",
        "kernel.count_zeros_points_per_s": "1/s",
        "kernel.pure_calls": "count",
        "kernel.compiled_calls": "count",
        "kernel.backend_mismatch": "count",
        "curves.count_infinity_elems": "count",
        "verify.cases": "count",
        "verify.progress_bytes": "bytes",
        "cli.report_bytes": "bytes",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.wall_s": "s", "trace.startup_s": "s", "trace.residual_s": "s",
                  "trace.overhead_frac": "ratio"})
    return units


def _index(spans):
    """Self time per span id, and the names on each span's ancestor path."""
    child_dur = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_dur[s["parent"]] += s["dur"]
    names = {s["id"]: s["name"] for s in spans}
    ancestors = {}
    for s in spans:  # parents precede children, so their paths are known
        parent = s["parent"]
        ancestors[s["id"]] = (frozenset() if parent is None
                              else ancestors[parent] | {names[parent]})
    self_time = {s["id"]: s["dur"] - child_dur[s["id"]] for s in spans}
    return self_time, ancestors


def layer_metrics(commands: list[dict], *, traced_wall: float, untraced_wall: float,
                  setup_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `commands` holds one dict per command with its `spans`, the `backend`
    named in its report, and the `report_bytes` and `progress_bytes` it wrote.
    """
    m = dict.fromkeys(metric_units(), 0)
    for cmd in commands:
        spans = cmd["spans"]
        self_time, ancestors = _index(spans)
        for s in spans:
            name, meta = s["name"], s["meta"] or {}
            for metric, (_, kind, names) in _SPAN_METRICS.items():
                if name not in names:
                    continue
                if kind == "calls":
                    m[metric] += s["calls"]
                elif kind == "self":
                    m[metric] += self_time[s["id"]]
                elif not ancestors[s["id"]] & names:
                    m[metric] += s["dur"]
            m[f"{name.split('.')[0]}.self_s"] += self_time[s["id"]]
            if name == "field.first_elem_with_trace":
                m["field.trace_walk_elems"] += meta["index"] + 1
            elif name == "maps.is_permutation":
                m["maps.evaluations"] += meta["evaluations"]
                if meta["is_permutation"]:
                    m["maps.full_scan_s"] += s["dur"]
                    m["maps.full_scan_elems"] += meta["q"]
                else:
                    m["maps.collide_scan_s"] += s["dur"]
                    m["maps.witness_pass_frac"] += meta["evaluations"] - meta["i2"] - 1
            elif name == "kernel.count_zeros":
                m["kernel.count_zeros_points"] += meta["points"]
            elif name == "curves.count_infinity":
                m["curves.count_infinity_elems"] += meta["q"]
            elif name == "verify.run_cases":
                m["verify.cases"] += meta["cases"]
        ran = {s["meta"]["backend"] for s in spans if s["name"].startswith("kernel.")}
        for s in spans:
            if s["name"].startswith("kernel."):
                m[f"kernel.{s['meta']['backend']}_calls"] += 1
        if ran and ran != {cmd["backend"]}:
            m["kernel.backend_mismatch"] += 1
        m["verify.progress_bytes"] += cmd["progress_bytes"]
        m["cli.report_bytes"] += cmd["report_bytes"]
    if m["maps.evaluations"]:
        m["maps.witness_pass_frac"] /= m["maps.evaluations"]
    if m["maps.full_scan_s"]:
        m["maps.full_scan_elems_per_s"] = m["maps.full_scan_elems"] / m["maps.full_scan_s"]
    if m["kernel.count_zeros_s"]:
        m["kernel.count_zeros_points_per_s"] = (m["kernel.count_zeros_points"]
                                               / m["kernel.count_zeros_s"])
    m["trace.wall_s"] = traced_wall
    m["trace.startup_s"] = len(commands) * setup_s
    m["trace.residual_s"] = (traced_wall - m["trace.startup_s"]
                             - sum(m[f"{layer}.self_s"] for layer in LAYERS))
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return m
