"""The names that ``bench/tracing.py`` rebinds stay where it looks for them.

``Tracer.install`` does ``getattr`` on each entry of its ``_FUNCTIONS`` and
``_METHODS`` tables, so a renamed or moved name fails every traced
benchmark operation.  The tracer is loaded from its file as it is, without
importing the benchmark package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from fvlab.consistency import residual_flux
from fvlab.geometry import build_cartesian, build_dual_mac, build_time_grid
from fvlab.layouts import MAC
from fvlab.operators import flux_staggered, get_pair
from fvlab.schemes import sample_manufactured

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_where_the_tracer_rebinds_it():
    tracing = _tracing()
    assert tracing._FUNCTIONS and tracing._METHODS
    for modname, attr, *_ in tracing._FUNCTIONS:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
    for modname, clsname, method, *_ in tracing._METHODS:
        owner = getattr(importlib.import_module(modname), clsname)
        assert callable(getattr(owner, method, None)), \
            f"{modname}.{clsname}.{method}"


def test_the_flux_table_counter_reads_mesh_grid_and_layout_by_position():
    # the tracer's _flux_table takes args[4:7] of residual_flux
    tracing = _tracing()
    entry = [row for row in tracing._FUNCTIONS if row[1] == "residual_flux"]
    assert [row[3] for row in entry] == [tracing._flux_table]
    residual_flux = getattr(importlib.import_module(entry[0][0]),
                            "residual_flux")
    params = list(inspect.signature(residual_flux).parameters.values())
    assert [p.name for p in params[4:7]] == ["mesh", "grid", "layout"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:7])


def test_the_flux_table_counter_sizes_a_real_residual_flux_call():
    # argument 6 of residual_flux stays the layout's name: the tracer
    # looks its piece count up by it
    mesh, grid = build_cartesian(4, 4), build_time_grid(0.5, 3)
    dual, pair = build_dual_mac(mesh), get_pair("square")
    q, v = sample_manufactured(
        lambda x, t: 1.0 + x[:, 0] * x[:, 1] * t,
        lambda x, t: np.stack([1.0 + 0.0 * x[:, 0], -x[:, 0]], axis=-1),
        "mac", mesh, dual, grid)
    args = (flux_staggered(q, v, pair), q, v, pair, mesh, grid, "mac", dual)
    counts = _tracing()._flux_table(args, {}, residual_flux(*args))
    size = grid.n_steps * mesh.n_cells * 4 * MAC.pieces * 8
    assert counts == {"consistency.flux_table_mb": size / 2 ** 20}
