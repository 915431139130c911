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
