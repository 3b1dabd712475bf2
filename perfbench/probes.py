"""Which polycount functions the tracer wraps, and the per-layer metrics read from them.

The layers are polycount's modules.  Span names are `<module>.<function>`;
a module's self time is the self time of its spans.  Counts (calls,
elements, summands, tuples, misses) repeat exactly for a fixed seed.
"""

from __future__ import annotations

from metrics import MODULES, PER_LAYER
from polycount import catalog, charsums, cli, counting, cyclotomic, fields, jacobi, oracle, verify


def _lru_misses(fn):
    def before(args, kwargs):
        return fn.cache_info().misses

    def after(state, args, kwargs, result):
        return {"misses": fn.cache_info().misses - state}

    return before, after


def _orbit_elements(state, args, kwargs, result):
    return {"elements": len(result)}


def _orbit_traces_before(args, kwargs):
    return len(args[0]._orbit_traces)


def _orbit_traces_after(state, args, kwargs, result):
    return {"hits": int(len(args[0]._orbit_traces) == state)}


def _scan_before(args, kwargs):
    return len(oracle._scan_cache)


def _scan_after(state, args, kwargs, result):
    if len(oracle._scan_cache) == state:
        return {"hits": 1}
    tower, t = args[0], args[1]
    return {"elements": tower.q**t - 1}


def _general_after(state, args, kwargs, result):
    spec, t = args[1], args[2]
    return {"summands": (spec.q - 1) * (spec.q**t - 1)}


def _jacobi_brute_after(state, args, kwargs, result):
    field, t = args[0], args[3]
    return {"tuples": field.order ** (t - 1) if t > 1 else 0}


def install(tracer) -> None:
    """Wrap every probe.  Counter keys are prefixed with the span name."""

    def fn(module, attr, name, before=None, after=None):
        tracer.patch_function(module, attr, name, before, _prefixed(name, after))

    def meth(cls, attrs, name, before=None, after=None):
        tracer.patch_method(cls, attrs, name, before, _prefixed(name, after))

    fn(fields, "build_field", "fields.build_field", *_lru_misses(fields.build_field))
    fn(fields, "build_tower", "fields.build_tower", *_lru_misses(fields.build_tower))
    meth(fields.FieldCtx, ("linear_orbit",), "fields.linear_orbit", after=_orbit_elements)
    meth(fields.FieldCtx, ("dlog",), "fields.dlog")
    meth(fields.TowerCtx, ("orbit_abs_traces",), "fields.orbit_abs_traces", _orbit_traces_before, _orbit_traces_after)

    fn(oracle, "brute_scan", "oracle.brute_scan", _scan_before, _scan_after)
    fn(oracle, "brute_p_m", "oracle.brute_p_m")

    meth(counting.CountSpec, ("make",), "counting.CountSpec.make")
    fn(counting, "p_m", "counting.p_m")
    fn(counting, "derive_params", "counting.derive_params")
    fn(counting, "m_t_general", "counting.m_t_general", after=_general_after)
    fn(counting, "m_t_jacobi", "counting.m_t_jacobi")
    fn(counting, "m_t_lifted", "counting.m_t_lifted")
    fn(counting, "n_t_table", "counting.n_t_table")

    fn(charsums, "monomial_sum", "charsums.monomial_sum")
    fn(charsums, "gauss_sum_folded", "charsums.gauss_sum_folded")
    fn(charsums, "gauss_sum_lifted", "charsums.gauss_sum_lifted")
    fn(charsums, "jacobi_brute", "charsums.jacobi_brute", after=_jacobi_brute_after)

    meth(cyclotomic.CycInt, ("__mul__", "__rmul__"), "cyclotomic.CycInt.mul")
    meth(cyclotomic.CycInt, ("__pow__",), "cyclotomic.CycInt.pow")

    fn(jacobi, "quartic_params", "jacobi.params")
    fn(jacobi, "cubic_params", "jacobi.params")
    fn(jacobi, "jacobi_closed", "jacobi.jacobi_closed")

    fn(catalog, "p2_closed_detail", "catalog.p2_closed_detail")
    fn(catalog, "p2_general_pm", "catalog.p2_general_pm")
    meth(catalog.P2Context, ("resolve_gauss",), "catalog.resolve_gauss")

    fn(verify, "verify_cell", "verify.verify_cell")
    fn(verify, "run_grid", "verify.run_grid")

    fn(cli, "main", "cli.main")


def _prefixed(name, after):
    if after is None:
        return None
    return lambda state, args, kwargs, result: {
        f"{name}.{key}": inc for key, inc in after(state, args, kwargs, result).items()
    }


def per_layer(tracer, wall_s: float) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead, from one traced round."""
    spans = tracer.layer_metrics()
    counters = tracer.counters
    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        if metric.startswith(("share.", "trace.")):
            continue
        name, field = metric.rsplit(".", 1)
        rec = spans.get(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0, "busy_s": 0.0})
        calls = rec["calls"]
        if field in rec:
            values[metric] = rec[field]
        elif field == "hit_ratio":
            values[metric] = counters[f"{name}.hits"] / calls if calls else 0.0
        elif field == "elements_per_s":
            values[metric] = counters[f"{name}.elements"] / rec["time_s"] if rec["time_s"] else 0.0
        elif field == "concurrency":
            values[metric] = rec["time_s"] / rec["busy_s"] if rec["busy_s"] else 0.0
        else:
            values[metric] = counters[f"{name}.{field}"]
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, rec in spans.items():
        module_self[name.split(".", 1)[0]] += rec["self_s"]
    for mod, self_s in module_self.items():
        values[f"share.{mod}"] = self_s / wall_s
    values["share.harness"] = max(wall_s - tracer.root_time_s(), 0.0) / wall_s
    values["trace.wall_s"] = wall_s
    return values
