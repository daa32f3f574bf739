"""Per-layer metrics from the spans a traced run writes (see child.py).

Each layer is a module of src/jflow.  A metric that rests on a function
the program no longer has is reported as missing (value null), never as
zero; a function that exists but was not called on a workload reads 0.
"""

from __future__ import annotations

import statistics

LAYERS = ("cli", "config", "flow", "geometry", "functionals", "geodesic",
          "cone", "reports", "potentials")

# name -> (unit, functions it rests on)
METRICS = {
    "cli.import_s": ("s", ()),
    "config.build_s": ("s", ("config.load_config",)),
    "flow.run_flow_s": ("s", ("flow.run_flow",)),
    "flow.accepted_steps": ("count", ("flow.run_flow",)),
    "flow.us_per_step": ("us", ("flow.run_flow",)),
    "geometry.build_metric_calls": ("count", ("geometry.build_metric",)),
    "geometry.build_metric_s": ("s", ("geometry.build_metric",)),
    "functionals.quadrature_nodes": ("count", ("geometry.build_metric",)),
    "functionals.functional_report_s": ("s", ("functionals.functional_report",)),
    "geodesic.legendre_transform_s": ("s", ("geodesic.legendre_transform",)),
    "geodesic.legendre_inverse_s": ("s", ("geodesic.legendre_inverse",)),
    "geodesic.legendre_inverse_calls": ("count", ("geodesic.legendre_inverse",)),
    "geodesic.geodesic_path_s": ("s", ("geodesic.geodesic_path",)),
    "geodesic.convexity_probe_s": ("s", ("geodesic.convexity_probe",)),
    "cone.properness_hypotheses_s": ("s", ("cone.properness_hypotheses",)),
    "reports.write_s": ("s", ("reports.write_text",)),
    "reports.bytes_written": ("bytes", ()),
    "trace.overhead_s": ("s", ()),
}
METRICS.update({f"{layer}.self_s": ("s", ()) for layer in LAYERS})


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(spans: list, keep) -> list:
    """Spans selected by keep() that have no selected ancestor."""
    chosen = []
    for span in spans:
        if not keep(span):
            continue
        parent = span[1]
        while parent is not None and not keep(spans[parent]):
            parent = spans[parent][1]
        if parent is None:
            chosen.append(span)
    return chosen


def _total(spans: list) -> float:
    return sum(s[5] - s[4] for s in spans)


def self_times(spans: list) -> dict:
    """Per layer: span durations minus the part their child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[1] is not None:
            child[span[1]] += span[5] - span[4]
    out = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = _layer(span[2])
        out[layer] = out.get(layer, 0.0) + (span[5] - span[4]) - child[span[0]]
    return out


def from_trace(trace: dict, bytes_written: int) -> dict:
    """One traced run -> {metric: value or None when missing}."""
    spans = trace["spans"]
    functions = set(trace["functions"])

    def named(name):
        return [s for s in spans if s[2] == name]

    def outer(name):
        return _total(_outermost(spans, lambda s: s[2] == name))

    def outer_layer(layer):
        return _total(_outermost(spans, lambda s: _layer(s[2]) == layer))

    flow_s = outer("flow.run_flow")
    steps = trace["notes"].get("flow.accepted_steps",
                               None if named("flow.run_flow") else 0)
    values = {
        "cli.import_s": trace["import_s"],
        "config.build_s": outer_layer("config"),
        "flow.run_flow_s": flow_s,
        "flow.accepted_steps": steps,
        "flow.us_per_step": (None if steps is None
                             else 1e6 * flow_s / steps if steps else 0.0),
        "geometry.build_metric_calls": len(named("geometry.build_metric")),
        "geometry.build_metric_s": outer("geometry.build_metric"),
        "functionals.quadrature_nodes": sum(
            s[3] == "jflow.functionals" for s in named("geometry.build_metric")),
        "functionals.functional_report_s": outer("functionals.functional_report"),
        "geodesic.legendre_transform_s": outer("geodesic.legendre_transform"),
        "geodesic.legendre_inverse_s": outer("geodesic.legendre_inverse"),
        "geodesic.legendre_inverse_calls": len(named("geodesic.legendre_inverse")),
        "geodesic.geodesic_path_s": outer("geodesic.geodesic_path"),
        "geodesic.convexity_probe_s": outer("geodesic.convexity_probe"),
        "cone.properness_hypotheses_s": outer("cone.properness_hypotheses"),
        "reports.write_s": outer_layer("reports"),
        "reports.bytes_written": bytes_written,
    }
    layer_has = {_layer(f) for f in functions}
    for layer, seconds in self_times(spans).items():
        values[f"{layer}.self_s"] = seconds if layer in layer_has else None
    for name, (_, needs) in METRICS.items():
        if any(f not in functions for f in needs):
            values[name] = None
    return values


def combine(runs: list, untraced_wall: list, traced_wall: list) -> dict:
    """Median of each metric over the traced runs, plus tracing overhead."""
    out = {}
    for name, (unit, _) in METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_wall) - statistics.median(untraced_wall)
        else:
            samples = [run[name] for run in runs]
            value = None if None in samples else statistics.median(samples)
        entry = {"value": value, "unit": unit}
        if value is None:
            entry["missing"] = True
        out[name] = entry
    return out
