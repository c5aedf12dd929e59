"""Span tracing of cdu's public functions, installed from the benchmark.

Tracer.install() replaces each listed function, at every name the cdu
modules bind it to, with a wrapper that records a span: its name, start,
end and the span that was open when it began (its parent), plus the field
characteristic, order and element count where the call has them.  Since
the wrappers sit at the names other modules call, spans nest as the calls
do.  Spans stay in memory; layer_metrics() reduces them to the per-layer
metrics and dump() writes them out.

A wrapper costs time of its own: it reads the clock, computes the call's
size and appends to the span arrays.  Each span records that cost as the
wrapper time outside its [start, end] interval, and calibrate() measures
the rest (the wrapper's own call and return, and the clock read inside
the interval) on a no-op.  layer_metrics() takes each span's cost out of
the durations of the spans it is nested in, so a layer's timings count
mostly the program's time.  The correction is approximate, so timings
that a per-row wrapper would distort are read from rounds installed with
vector=False, which leave the FieldContext vector methods unwrapped.

Only vector-level and module-level functions are wrapped.  Scalar field
operations (ctx.add, ctx.mul, ctx.pow) run millions of times from plain
Python loops, so their time counts as self time of the calling layer.
The stack of open spans is shared, so tracing stays off (enabled = False)
while more than one thread calls into cdu.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layer (cdu module) -> (functions, {class: methods}) that get spans
WRAPPED = {
    "field": (["make_field", "embed", "trace_table"],
              {"FieldContext": ["vadd", "vsub", "vneg", "vmul", "vmul_const", "vpow_const",
                                "shift_perm", "subfield_elements"]}),
    "funcs": (["parse_function", "is_permutation", "is_two_to_one", "is_planar",
               "classify_shape", "_interpolate"], {"PolyFunc": ["_evaluate_all"]}),
    "cdiff": (["c_derivative", "c_ddt", "c_uniformity", "classify_c", "full_report",
               "c_derivative_shift_form", "check_quadratic_characterization",
               "is_relaxed_pcn", "is_pseudo_pcn"], {"CDiffSpectrum": ["to_csv"]}),
    "construct": (["subspace_j", "psi_table", "validate_preconditions", "build_agw_pp",
                   "build_apcn_2to1", "build_quad_exponent_pp"], {}),
    "monomial": (["min_s", "root_in_fps", "singular_points", "value_distribution",
                  "fiber_members", "exceptionality_sweep", "root_of_unity"], {}),
    "verify": (["planar_but_not_apcn_report", "quadratic_characterization_suite",
                "shift_identity_suite", "construction_suite", "planar_power_family_report",
                "classical_ddt_crosscheck", "singular_point_report", "monomial_sweep_report",
                "relaxed_pcn_suite", "classical_ddt_direct"], {}),
    "parallel": (["pmap"], {}),
    "cli": (["main"], {}),
}

# verify-theorems suite name -> the verify function that runs it
SUITE_FUNCS = {
    "planar-example": "planar_but_not_apcn_report",
    "quadratic-characterization": "quadratic_characterization_suite",
    "shift-identity": "shift_identity_suite",
    "constructions": "construction_suite",
    "planar-power-family": "planar_power_family_report",
    "classical-ddt": "classical_ddt_crosscheck",
    "singular-points": "singular_point_report",
    "monomial-sweep": "monomial_sweep_report",
    "relaxed-pcn": "relaxed_pcn_suite",
}

# c_uniformity calls up to this order count as small calls
SMALL_ORDER = 125
MODULE_LAYERS = ("field", "funcs", "cdiff", "construct", "monomial", "verify", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _ctx_meta(elems):
    def meta(args, kwargs):
        ctx = args[0]
        return ctx.p, ctx.order, elems(ctx, args, kwargs)
    return meta


def _func_meta(args, kwargs):
    ctx = _arg(args, kwargs, 0, "f").ctx
    return ctx.p, ctx.order, ctx.order


_META = {
    "field.make_field": lambda a, k: (_arg(a, k, 0, "p"), _arg(a, k, 0, "p") ** _arg(a, k, 1, "n"), 0),
    "field.FieldContext.vadd": _ctx_meta(lambda c, a, k: np.broadcast(a[1], a[2]).size),
    "field.FieldContext.vsub": _ctx_meta(lambda c, a, k: np.broadcast(a[1], a[2]).size),
    "field.FieldContext.vmul": _ctx_meta(lambda c, a, k: np.broadcast(a[1], a[2]).size),
    "field.FieldContext.vneg": _ctx_meta(lambda c, a, k: np.size(a[1])),
    "field.FieldContext.vmul_const": _ctx_meta(lambda c, a, k: np.size(_arg(a, k, 2, "u"))),
    "field.FieldContext.vpow_const": _ctx_meta(lambda c, a, k: np.size(_arg(a, k, 1, "u"))),
    "field.FieldContext.shift_perm": _ctx_meta(lambda c, a, k: c.order),
    "monomial.value_distribution": lambda a, k: (a[0].p, a[0].order, a[0].order),
    "cdiff.c_uniformity": _func_meta,
    "cdiff.c_ddt": _func_meta,
    "cdiff.full_report": _func_meta,
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.depth = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cost = array("d")
        self.p = array("i")
        self.q = array("q")
        self.elems = array("q")
        self.enabled = True
        self.shift_cache_max_order = 0
        # per-span wrapper cost not in self.cost: outside and inside [start, end]
        self.outer_extra = 0.0
        self.inner_extra = 0.0
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        meta = _META.get(name)
        stack, clock = self._stack, time.perf_counter
        name_id, parent, depth, start, end, cost = (
            self.name_id, self.parent, self.depth, self.start, self.end, self.cost)
        ps, qs, elems = self.p, self.q, self.elems

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t_in = clock()
            p, q, n = meta(args, kwargs) if meta else (0, 0, 0)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            depth.append(len(stack))
            ps.append(p)
            qs.append(q)
            elems.append(n)
            end.append(0.0)
            cost.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t_end = clock()
                end[idx] = t_end
                stack.pop()
                cost[idx] = clock() - t_in - (t_end - start[idx])

        return functools.wraps(fn)(wrapper)

    def install(self, vector: bool = True):
        """Wrap every listed function at each name a cdu module binds it to;
        the FieldContext vector methods only if vector is set."""
        from cdu import field

        self.shift_cache_max_order = field._SHIFT_CACHE_MAX_ORDER
        originals = {}
        for layer, (funcs, classes) in WRAPPED.items():
            mod = importlib.import_module(f"cdu.{layer}")
            for fname in funcs:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fname}"))
            for cls_name, methods in classes.items():
                if cls_name == "FieldContext" and not vector:
                    continue
                cls = getattr(mod, cls_name)
                for m in methods:
                    setattr(cls, m, self._wrap(cls.__dict__[m], f"{layer}.{cls_name}.{m}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cdu" or mod_name.startswith("cdu.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def calibrate(self, calls: int = 5000, batches: int = 7):
        """Measure the per-span wrapper cost that self.cost misses, as the
        median over batches of no-op calls, wrapped and not."""
        def noop():
            return None

        outer, inner = [], []
        for _ in range(batches):
            probe = Tracer()
            wrapped = probe._wrap(noop, "noop")
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            raw = (time.perf_counter() - t0) / calls
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            total = (time.perf_counter() - t0) / calls
            span = sum(e - s for s, e in zip(probe.start, probe.end)) / calls
            outer.append(total - span - sum(probe.cost) / calls)
            inner.append(span - raw)
        self.outer_extra = max(0.0, statistics.median(outer))
        self.inner_extra = max(0.0, statistics.median(inner))

    def dump(self, path: str):
        """Write the spans as gzip-compressed JSON with parallel arrays."""
        data = {"names": self.names, "name_id": self.name_id.tolist(),
                "parent": self.parent.tolist(), "depth": self.depth.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(), "cost": self.cost.tolist(), "p": self.p.tolist(),
                "q": self.q.tolist(), "elems": self.elems.tolist(),
                "outer_extra": self.outer_extra, "inner_extra": self.inner_extra}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)


def span_times(tr: Tracer) -> tuple[np.ndarray, np.ndarray]:
    """Duration of each span less the wrapper cost of the spans nested in
    it, and the wrapper cost of each span as its callers saw it."""
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    depth = np.frombuffer(tr.depth, dtype=np.int32)
    own = (np.frombuffer(tr.end) - np.frombuffer(tr.start)) - tr.inner_extra
    over = np.frombuffer(tr.cost) + tr.outer_extra + tr.inner_extra
    nested = np.zeros(len(own))
    for level in range(int(depth.max(initial=0)), 0, -1):
        at = np.nonzero(depth == level)[0]
        np.add.at(nested, parent[at], nested[at] + over[at])
    return own - nested, over


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of the recorded spans; a timing is None where no
    span of its kind was recorded."""
    dur_arr, over = span_times(tr)
    parent_arr = np.frombuffer(tr.parent, dtype=np.int32)
    child_arr = np.zeros(len(dur_arr))
    nested = parent_arr >= 0
    np.add.at(child_arr, parent_arr[nested], dur_arr[nested])
    name_arr = np.frombuffer(tr.name_id, dtype=np.int32)
    p_arr = np.frombuffer(tr.p, dtype=np.int32)
    q_arr = np.frombuffer(tr.q, dtype=np.int64)
    elems_arr = np.frombuffer(tr.elems, dtype=np.int64)
    dur = dur_arr.tolist()
    by_name = defaultdict(list)
    for i, nid in enumerate(tr.name_id):
        by_name[tr.names[nid]].append(i)

    def ids(names):
        return [i for nm in names for i in by_name.get(nm, ())]

    def nearest(i, wanted):
        par = tr.parent[i]
        while par >= 0 and tr.names[tr.name_id[par]] not in wanted:
            par = tr.parent[par]
        return par

    def covered(names, minus=()):
        """Time inside spans of names, not counting spans of names nested
        in one another nor time inside nested spans of minus."""
        spans = ids(names)
        if not spans:
            return None
        names, minus = set(names), set(minus)
        total = sum(dur[i] for i in spans if nearest(i, names) < 0)
        total -= sum(dur[i] for i in ids(minus)
                     if (a := nearest(i, names | minus)) >= 0 and tr.names[tr.name_id[a]] in names)
        return total

    def per_elem(name, scale, keep=True, count=None):
        if name not in tr.names:
            return None
        mask = (name_arr == tr.names.index(name)) & keep
        n = (elems_arr if count is None else count)[mask].sum()
        return float(dur_arr[mask].sum() / n * scale) if n else None

    odd, two, big = p_arr != 2, p_arr == 2, q_arr > SMALL_ORDER
    calls = by_name.get("cdiff.c_uniformity", ())
    small_calls = [i for i in calls if not big[i]]
    out = {
        "field.make_field_s": covered(["field.make_field"]),
        "field.vsub_ns_per_elem.odd": per_elem("field.FieldContext.vsub", 1e9, odd),
        "field.vsub_ns_per_elem.p2": per_elem("field.FieldContext.vsub", 1e9, two),
        "field.vmul_const_ns_per_elem": per_elem("field.FieldContext.vmul_const", 1e9),
        "field.vpow_const_ns_per_elem": per_elem("field.FieldContext.vpow_const", 1e9),
        "field.shift_perm_ns_per_elem.uncached": per_elem(
            "field.FieldContext.shift_perm", 1e9, q_arr > tr.shift_cache_max_order),
        "field.embed_s": covered(["field.embed"]),
        "funcs.table_eval_s": covered(["funcs.PolyFunc._evaluate_all"]),
        "funcs.predicates_s": covered(["funcs.is_permutation", "funcs.is_two_to_one",
                                       "funcs.is_planar"]),
        "cdiff.row_us.odd": per_elem("cdiff.c_uniformity", 1e6, odd & big, q_arr),
        "cdiff.row_us.p2": per_elem("cdiff.c_uniformity", 1e6, two & big, q_arr),
        "cdiff.small_call_us": (sum(dur[i] for i in small_calls) / len(small_calls) * 1e6
                                if small_calls else None),
        "cdiff.c_uniformity_calls": len(calls),
        "cdiff.full_report_s": covered(["cdiff.full_report"]),
        "cdiff.c_ddt_s": covered(["cdiff.c_ddt"]),
        "cdiff.quadchar_s": covered(["cdiff.check_quadratic_characterization"]),
        "construct.validate_s": covered(["construct.validate_preconditions"]),
        "construct.build_s": covered(["construct.build_agw_pp", "construct.build_apcn_2to1",
                                      "construct.build_quad_exponent_pp"],
                                     minus=["construct.validate_preconditions"]),
        "monomial.value_distribution_ns_per_elem": per_elem("monomial.value_distribution", 1e9),
        "monomial.sweep_s": covered(["monomial.exceptionality_sweep"]),
        "monomial.root_in_fps_s": covered(["monomial.root_in_fps"]),
        "trace.span_cost_ns": float(over.mean() * 1e9) if len(over) else None,
    }
    for suite, fname in SUITE_FUNCS.items():
        out[f"verify.suite_s.{suite}"] = covered([f"verify.{fname}"])
    layers = sorted({nm.split(".", 1)[0] for nm in tr.names})
    span_layer = np.array([layers.index(nm.split(".", 1)[0]) for nm in tr.names],
                          dtype=np.int64)[name_arr]
    selfs = np.bincount(span_layer, weights=dur_arr - child_arr, minlength=len(layers))
    spans = np.bincount(span_layer, minlength=len(layers))
    for layer in MODULE_LAYERS:
        k = layers.index(layer)
        out[f"{layer}.self_s"] = float(selfs[k]) if spans[k] else None
    return out
