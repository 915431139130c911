"""Span tracing of fvlab from the outside, and the per-layer metrics.

``Tracer.install`` rebinds the public names that one fvlab module looks up
in another (``fvlab.study.interpolate_test``, ``fvlab.cli.load_mesh``, ...)
and a few public methods on their classes (``CellQuadrature.cell_means``,
``TestFunction.value``, ...) to thin wrappers that record a span per call.
Nothing in ``src/`` changes; ``Tracer.uninstall`` restores every binding.

A span is (id, name, layer, start_ns, end_ns, parent id, thread id,
operation id).  Spans stay in memory and are written when the operation
ends.  A call made from a pool thread with no open span of its own is
parented to the innermost open span of the main thread.

Per-layer metrics (``per_layer_metrics``):

* ``<layer>.<stage>_s``: inclusive wall time of the named public calls
  (the call and everything under it), summed over calls.
* ``<layer>.self_s`` and ``quadrature.busy_s``: self time of the layer's
  spans, that is each span minus the part of it covered by child spans,
  summed.  On a one-thread workload the self times add up to the traced
  operation's wall time, less the benchmark's own code.
* ``*.rss_rise_mb``: rise of ``ru_maxrss`` across the layer's outermost
  calls, summed.
* ``consistency.flux_table_mb``: computed, not measured: the size of the
  largest (steps, cells, faces, pieces) float64 table a ``residual_flux``
  call builds, from the array shapes.
* counts (``fields.phi_points``, ``quadrature.points``, ...) repeat
  exactly for the same inputs.
* ``<layer>.errors``: exceptions that escaped a call of that layer,
  counted once, at the innermost traced call they escaped from.
"""

from __future__ import annotations

import json
import os
import resource
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "study", "geometry", "schemes", "operators", "fields",
          "consistency", "quadrature", "meshio")

# metric name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "study.self_s": "s",
    "study.parallelism": "ratio",
    "geometry.mesh_s": "s",
    "geometry.dual_s": "s",
    "geometry.regularity_s": "s",
    "geometry.identities_s": "s",
    "geometry.self_s": "s",
    "geometry.cells": "count",
    "geometry.faces": "count",
    "schemes.sample_s": "s",
    "schemes.scheme_s": "s",
    "schemes.self_s": "s",
    "schemes.cell_steps": "count",
    "schemes.rss_rise_mb": "MiB",
    "operators.flux_s": "s",
    "operators.assemble_s": "s",
    "operators.self_s": "s",
    "fields.interpolate_s": "s",
    "fields.lp_distance_s": "s",
    "fields.self_s": "s",
    "fields.phi_points": "count",
    "fields.rss_rise_mb": "MiB",
    "consistency.weak_rhs_s": "s",
    "consistency.x1_s": "s",
    "consistency.x2_s": "s",
    "consistency.init_s": "s",
    "consistency.time_s": "s",
    "consistency.flux_s": "s",
    "consistency.jumps_s": "s",
    "consistency.weak_gap_s": "s",
    "consistency.self_s": "s",
    "consistency.flux_table_mb": "MiB",
    "consistency.rss_rise_mb": "MiB",
    "quadrature.busy_s": "s",
    "quadrature.points": "count",
    "meshio.save_s": "s",
    "meshio.load_s": "s",
    "meshio.bytes": "count",
}
PER_LAYER_UNITS.update({f"{layer}.errors": "count" for layer in LAYERS})

# counts that must repeat exactly between two traced runs of one input
EXACT_COUNTS = ("fields.phi_points", "quadrature.points", "schemes.cell_steps",
                "geometry.cells", "meshio.bytes")

# stage metric -> span names it sums (inclusive time)
STAGES = {
    "geometry.mesh_s": ("geometry.build_cartesian",
                        "geometry.build_perturbed_quads",
                        "geometry.build_intervals"),
    "geometry.dual_s": ("geometry.build_dual_mac", "geometry.build_dual_rt"),
    "geometry.regularity_s": ("geometry.regularity",),
    "geometry.identities_s": ("geometry.check_mesh_identities",),
    "schemes.sample_s": ("schemes.sample_manufactured",),
    "schemes.scheme_s": ("schemes.run_upwind_1d",),
    "operators.flux_s": ("operators.flux_staggered",
                         "operators.flux_colocated_upwind_1d"),
    "operators.assemble_s": ("operators.assemble_convection",),
    "fields.interpolate_s": ("fields.interpolate_test",),
    "fields.lp_distance_s": ("fields.lp_distance",),
    "consistency.weak_rhs_s": ("consistency.weak_rhs",),
    "consistency.x1_s": ("consistency.compute_X1",),
    "consistency.x2_s": ("consistency.compute_X2",),
    "consistency.init_s": ("consistency.residual_init",),
    "consistency.time_s": ("consistency.residual_time",),
    "consistency.flux_s": ("consistency.residual_flux",),
    "consistency.jumps_s": ("consistency.jump_sums",),
    "consistency.weak_gap_s": ("consistency.weak_form_gap",),
    "meshio.save_s": ("meshio.save_mesh",),
    "meshio.load_s": ("meshio.load_mesh",),
}

RSS_LAYERS = ("schemes", "fields", "consistency")
_PIECES = {"rt": 4, "mac": 2, "colocated1d": 1}
_MIB = 1024.0 * 1024.0


# ----------------------------------------------------------------------
# counters: called with the wrapped call's arguments and result

def _mesh_counts(args, kwargs, result):
    return {"geometry.cells": result.n_cells, "geometry.faces": result.n_faces}


def _cell_steps(args, kwargs, result):
    return {"schemes.cell_steps": result[0].values.size}


def _phi_points(args, kwargs, result):
    return {"fields.phi_points": len(result)}


def _cell_quad_points(args, kwargs, result):
    quad = args[0]
    return {"quadrature.points": quad.points.shape[0] * quad.points.shape[1]}


def _slab_points(args, kwargs, result):
    slab = args[0]
    pts = slab.cell.points
    return {"quadrature.points":
            pts.shape[0] * pts.shape[1] * len(slab.tnodes1d)}


def _box_points(args, kwargs, result):
    return {"quadrature.points": args[0].weights.size}


def _saved_bytes(args, kwargs, result):
    return {"meshio.bytes": os.path.getsize(args[1])}


def _loaded_bytes(args, kwargs, result):
    return {"meshio.bytes": os.path.getsize(args[0])}


def _flux_table(args, kwargs, result):
    # residual_flux(flux, q, v, pair, mesh, grid, layout, dual=None)
    mesh, grid, layout = args[4], args[5], args[6]
    size = (grid.n_steps * mesh.n_cells * mesh.cell_faces.shape[1]
            * _PIECES[layout] * 8)
    return {"consistency.flux_table_mb": size / _MIB}


# (module, attribute, layer, counter): the public calls the workloads make.
# Rebinding the attribute in the calling module catches that module's calls.
_FUNCTIONS = [
    ("fvlab.cli", "main", "cli", None),
    ("fvlab.cli", "run_study", "study", None),
    ("fvlab.cli", "load_mesh", "meshio", _loaded_bytes),
    ("fvlab.cli", "build_dual_rt", "geometry", None),
    ("fvlab.cli", "check_mesh_identities", "geometry", None),
    ("fvlab.study", "build_cartesian", "geometry", _mesh_counts),
    ("fvlab.study", "build_perturbed_quads", "geometry", _mesh_counts),
    ("fvlab.study", "build_intervals", "geometry", _mesh_counts),
    ("fvlab.study", "build_dual_mac", "geometry", None),
    ("fvlab.study", "build_dual_rt", "geometry", None),
    ("fvlab.study", "build_time_grid", "geometry", None),
    ("fvlab.study", "regularity", "geometry", None),
    ("fvlab.study", "sample_manufactured", "schemes", _cell_steps),
    ("fvlab.study", "run_upwind_1d", "schemes", _cell_steps),
    ("fvlab.study", "get_pair", "operators", None),
    ("fvlab.study", "flux_staggered", "operators", None),
    ("fvlab.study", "flux_colocated_upwind_1d", "operators", None),
    ("fvlab.study", "assemble_convection", "operators", None),
    ("fvlab.study", "interpolate_test", "fields", None),
    ("fvlab.study", "lp_distance", "fields", None),
    ("fvlab.study", "default_translate_weights", "fields", None),
    ("fvlab.study", "translate_functional", "fields", None),
    ("fvlab.study", "weak_rhs", "consistency", None),
    ("fvlab.study", "compute_X1", "consistency", None),
    ("fvlab.study", "compute_X2", "consistency", None),
    ("fvlab.study", "residual_init", "consistency", None),
    ("fvlab.study", "residual_time", "consistency", None),
    ("fvlab.study", "residual_flux", "consistency", _flux_table),
    ("fvlab.study", "jump_sums", "consistency", None),
    ("fvlab.study", "measured_constant", "consistency", None),
    ("fvlab.study", "weak_form_gap", "consistency", None),
    ("fvlab.consistency", "dt_beta", "operators", None),
    ("fvlab.consistency", "flux_divergence", "operators", None),
    ("fvlab.consistency", "flux_dot_n", "operators", None),
    ("fvlab.schemes", "sample_cell_means", "fields", None),
    ("fvlab.schemes", "build_time_grid", "geometry", None),
]

# (module, class, method, layer, counter)
_METHODS = [
    ("fvlab.fields", "TestFunction", "value", "fields", _phi_points),
    ("fvlab.fields", "TestFunction", "dt", "fields", _phi_points),
    ("fvlab.fields", "TestFunction", "grad", "fields", _phi_points),
    ("fvlab.quadrature", "CellQuadrature", "__init__", "quadrature", None),
    ("fvlab.quadrature", "CellQuadrature", "values", "quadrature",
     _cell_quad_points),
    ("fvlab.quadrature", "CellQuadrature", "cell_means", "quadrature", None),
    ("fvlab.quadrature", "CellQuadrature", "cell_integrals", "quadrature",
     None),
    ("fvlab.quadrature", "CellQuadrature", "cell_vector_means", "quadrature",
     _cell_quad_points),
    ("fvlab.quadrature", "FaceQuadrature", "__init__", "quadrature", None),
    ("fvlab.quadrature", "FaceQuadrature", "face_means", "quadrature",
     _cell_quad_points),
    ("fvlab.quadrature", "SlabQuadrature", "slab_cell_integrals",
     "quadrature", _slab_points),
    ("fvlab.quadrature", "BoxQuadrature", "__init__", "quadrature", None),
    ("fvlab.quadrature", "BoxQuadrature", "integrate", "quadrature",
     _box_points),
]


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans and counts for one operation."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans = []              # [id, name, layer, t0, t1, parent, tid]
        self.counts = defaultdict(float)
        self.rss_rise = defaultdict(float)
        self.errors = defaultdict(int)
        self.study_cpu = 0.0
        self.study_wall = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    # -- span bookkeeping ------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack
                     if threading.current_thread() is threading.main_thread()
                     else [])
            self._local.stack = stack
        return stack

    def span(self, name, layer, fn, args, kwargs, counter=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        outer_layer = all(self.spans[s][2] != layer for s in stack)
        with self._lock:
            sid = len(self.spans)
            self.spans.append([sid, name, layer, 0, 0, parent,
                               threading.get_ident()])
        track_rss = layer in RSS_LAYERS and outer_layer
        rss0 = _maxrss_mib() if track_rss else 0.0
        study = name == "study.run_study"
        cpu0 = _cpu_s() if study else 0.0
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if not getattr(exc, "_bench_counted", False):
                try:
                    exc._bench_counted = True
                except AttributeError:
                    pass
                with self._lock:
                    self.errors[layer] += 1
            raise
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            record = self.spans[sid]
            record[3], record[4] = t0, t1
            if track_rss:
                rise = _maxrss_mib() - rss0
                with self._lock:
                    self.rss_rise[layer] += rise
            if study:
                with self._lock:
                    self.study_cpu += _cpu_s() - cpu0
                    self.study_wall += (t1 - t0) * 1e-9
        if counter is not None:
            found = counter(args, kwargs, result)
            with self._lock:
                for key, val in found.items():
                    if key == "consistency.flux_table_mb":
                        self.counts[key] = max(self.counts[key], val)
                    else:
                        self.counts[key] += val
        return result

    def wrap(self, fn, name, layer, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, layer, fn, args, kwargs, counter)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------
    def install(self):
        import importlib
        for modname, attr, layer, counter in _FUNCTIONS:
            mod = importlib.import_module(modname)
            self._rebind(mod, attr, f"{layer}.{attr}", layer, counter)
        for modname, clsname, meth, layer, counter in _METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            self._rebind(cls, meth, f"{layer}.{clsname}.{meth}", layer,
                         counter)

    def _rebind(self, owner, attr, name, layer, counter):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, counter))

    def traced_call(self, owner, attr, layer, counter=None):
        """The wrapped form of ``owner.attr``, for the benchmark's own
        calls (``save_mesh``, the mesh builders), without rebinding it."""
        return self.wrap(getattr(owner, attr), f"{layer}.{attr}", layer,
                         counter)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, layer, t0, t1, parent, tid in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "layer": layer, "start_ns": t0,
                    "end_ns": t1, "parent": parent, "thread": tid,
                    "op": self.op_id}) + "\n")

    def per_layer_metrics(self) -> dict:
        """Every per-layer metric of ``PER_LAYER_UNITS``, as plain floats."""
        children = defaultdict(list)
        for sid, _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        self_time = defaultdict(float)
        by_name = defaultdict(float)
        for sid, name, layer, t0, t1, _, _ in self.spans:
            covered = _union_length(children.get(sid, ()), t0, t1)
            self_time[layer] += (t1 - t0 - covered) * 1e-9
            by_name[name] += (t1 - t0) * 1e-9
        out = {}
        for metric in PER_LAYER_UNITS:
            layer, _, what = metric.partition(".")
            if metric in STAGES:
                out[metric] = sum(by_name[n] for n in STAGES[metric])
            elif what in ("self_s", "busy_s"):
                out[metric] = self_time[layer]
            elif what == "rss_rise_mb":
                out[metric] = self.rss_rise[layer]
            elif what == "errors":
                out[metric] = float(self.errors[layer])
            elif metric == "study.parallelism":
                out[metric] = (self.study_cpu / self.study_wall
                               if self.study_wall > 0 else 0.0)
            else:
                out[metric] = float(self.counts[metric])
        return out


def _union_length(intervals, lo, hi) -> int:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
