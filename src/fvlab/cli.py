"""Command-line front end: flat INI configuration, study orchestration with
CSV emission, mesh summaries and identity checking.

Exit codes: 0 success, 2 configuration/parse errors (among them a study
too large for physical memory), 3 acceptance-threshold failure (the failing
series is named), 4 regularity audit abort (the offending parameter is
named), 1 identity-check failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from .fields import interpolate_test
# build_dual_mac and build_dual_rt are called by their names in this module
# (see _mesh_for), so rebinding fvlab.cli.build_dual_* reaches the call
from .geometry import (build_dual_mac, build_dual_rt, build_time_grid,
                       check_mesh_identities, regularity)
from .layouts import get_layout
from .meshio import load_mesh
from .quadrature import CellQuadrature
from .study import (StudyConfig, StudyRegularityError, build_level,
                    level_source, run_study, write_report_csv, write_rates_csv)

__all__ = ["main", "parse_config", "ConfigError"]


class ConfigError(ValueError):
    pass


# The INI schema: (section, key, target, type).  A target is a StudyConfig
# field, a (box, axis, end) bound of the domain or support box, or a key of
# the meta dict (non-study settings).  Absent keys take the StudyConfig
# defaults; [thresholds] holds free-form series = minimum slope entries.
CONFIG_TABLE = (
    ("mesh", "family", "mesh_family", str),
    ("mesh", "nx", "nx0", int),
    ("mesh", "ny", "ny0", int),
    ("mesh", "x0", ("domain", 0, 0), float),
    ("mesh", "x1", ("domain", 0, 1), float),
    ("mesh", "y0", ("domain", 1, 0), float),
    ("mesh", "y1", ("domain", 1, 1), float),
    ("mesh", "grading", "grading", float),
    ("mesh", "amplitude", "amplitude", float),
    ("mesh", "seed", "seed", int),
    ("mesh", "file", "mesh_file", str),
    ("time", "T", "T", float),
    ("time", "dt_over_h", "dt_over_h", float),
    ("time", "pattern", "time_pattern", str),
    ("time", "ratio", "time_ratio", float),
    ("study", "levels", "levels", int),
    ("study", "layout", "layout", str),
    ("study", "beta", "beta_name", str),
    ("study", "g", "g_name", str),
    ("study", "face_scheme", "face_scheme", str),
    ("study", "lambda", "lam", float),
    ("study", "field_source", "field_source", str),
    ("study", "solution", "solution", str),
    ("study", "boundary_policy", "boundary_policy", str),
    ("study", "cfl", "cfl", float),
    ("study", "translate_theta", "translate_theta", float),
    ("test_function", "x0", ("support", 0, 0), float),
    ("test_function", "x1", ("support", 0, 1), float),
    ("test_function", "y0", ("support", 1, 0), float),
    ("test_function", "y1", ("support", 1, 1), float),
    ("test_function", "t_max_factor", "t_max_factor", float),
    ("test_function", "time_profile", "time_profile", str),
    ("numerics", "quad_order", "quad_order", int),
    ("numerics", "interp_panels", "interp_panels", int),
    ("numerics", "oracle_order", "oracle_order", int),
    ("numerics", "rhs_panels", "rhs_panels", int),
    ("audit", "regularity_cap", "regularity_cap", float),
    ("audit", "regularity_growth", "regularity_growth", float),
    ("output", "out_dir", "out_dir", str),
)
META_DEFAULTS = {"mesh_file": "", "out_dir": "."}
_ROWS = {(section, key): (target, conv)
         for section, key, target, conv in CONFIG_TABLE}
_SECTIONS = {section for section, *_ in CONFIG_TABLE} | {"thresholds"}


def _fill_box(box, bounds: dict) -> tuple:
    """`box` with its (axis, end) bounds replaced by those in `bounds`."""
    return tuple(tuple(bounds.get((axis, end), lim)
                       for end, lim in enumerate(axis_bounds))
                 for axis, axis_bounds in enumerate(box))


def parse_config(path) -> tuple[StudyConfig, dict]:
    """Read a flat key = value INI file into a StudyConfig.

    Returns (config, meta) where meta holds non-study settings (mesh file,
    output directory).
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str            # keep key case (T vs t)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    values, boxes, thresholds = {}, {"domain": {}, "support": {}}, {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in cp[section].items():
            if section == "thresholds":
                target, conv = key, float
            elif (section, key) in _ROWS:
                target, conv = _ROWS[section, key]
            else:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                value = conv(text)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r} in [{section}]: {exc}") from exc
            if section == "thresholds":
                thresholds[key] = value
            elif isinstance(target, tuple):
                boxes[target[0]][target[1:]] = value
            else:
                values[target] = value
    meta = {key: values.pop(key, default)
            for key, default in META_DEFAULTS.items()}
    try:
        cfg = StudyConfig(**values, thresholds=thresholds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.domain = _fill_box(cfg.domain, boxes["domain"])
    if boxes["support"]:
        cfg.support = _fill_box(cfg.default_support(), boxes["support"])
    return cfg, meta


# ----------------------------------------------------------------------
# commands

def _mesh_for(cfg: StudyConfig, meta: dict):
    if meta.get("mesh_file"):
        mesh = load_mesh(meta["mesh_file"])
        layout = get_layout(cfg.layout)
        dual = None
        # a loaded mesh the layout's dual does not fit gets no dual
        if layout.dual_builder and layout.fits(mesh):
            dual = globals()[layout.dual_builder](mesh)
        return mesh, dual
    mesh, dual, _ = build_level(cfg, 0)
    return mesh, dual


def cmd_mesh_info(cfg: StudyConfig, meta: dict) -> int:
    if meta.get("mesh_file"):
        mesh, dual = _mesh_for(cfg, meta)
        grid = cfg.manufactured_grid(mesh.delta())
    else:
        # the mesh and time grid of the study's level 0
        source = level_source(cfg, 0)
        mesh, dual, grid = source.mesh, source.dual, source.grid
    reg = regularity(mesh, grid, dual)
    print(f"dimension    {mesh.dim}")
    print(f"cells        {mesh.n_cells}")
    print(f"faces        {mesh.n_faces}")
    print(f"vertices     {mesh.n_vertices}")
    print(f"interior     {int(mesh.interior_cell_mask.sum())}")
    print(f"delta        {mesh.delta():.17g}")
    print(f"theta1       {reg.theta1:.17g}")
    print(f"theta2       {reg.theta2:.17g}")
    print(f"theta3       {reg.theta3:.17g}")
    if not np.isnan(reg.theta_mac):
        print(f"theta_mac    {reg.theta_mac:.17g}")
    return 0


def cmd_run_study(cfg: StudyConfig, meta: dict) -> int:
    if meta.get("mesh_file"):
        print("config error: 'file' in [mesh] is read by mesh-info and "
              "check-identities only; a study builds its meshes from "
              "'family', 'nx' and 'ny'", file=sys.stderr)
        return 2
    out_dir = Path(meta.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_study(cfg)
    except StudyRegularityError as exc:
        print(f"regularity audit failed: {exc.parameter}: {exc}",
              file=sys.stderr)
        return 4
    write_report_csv(result, out_dir / "report.csv")
    write_rates_csv(result, out_dir / "rates.csv")
    print(f"wrote {out_dir / 'report.csv'} and {out_dir / 'rates.csv'}")
    failed = result.failed_thresholds()
    for name in failed:
        print(f"threshold failed: {name}: finest-pair slope "
              f"{result.rates[name].finest_pair:.3f} < {cfg.thresholds[name]}",
              file=sys.stderr)
    return 3 if failed else 0


def cmd_check_identities(cfg: StudyConfig, meta: dict) -> int:
    mesh, dual = _mesh_for(cfg, meta)
    problems = check_mesh_identities(mesh, dual)
    # gradient-averaging identity on the configured test function
    if not problems and not meta.get("mesh_file"):
        grid = build_time_grid(cfg.T, 2)
        phi = cfg.test_function()
        try:
            # coarse meshes need heavy panels to resolve the bump per edge;
            # 1e-7 still exposes any broken normal or measure (errors O(1))
            interp = interpolate_test(phi, mesh, grid,
                                      order=max(cfg.quad_order, 6), panels=8)
            oracle = CellQuadrature(mesh, cfg.oracle_order, panels=8)
            for n, t in enumerate(grid.knots):
                ref = oracle.cell_vector_means(oracle.values(phi.grad, t))
                grad = interp.tf[n] * interp.grad_table
                err = np.sqrt(((grad - ref) ** 2).sum(-1))
                worst = int(np.argmax(err))
                if err[worst] > 1e-7:
                    problems.append(
                        f"cell {worst}: gradient-averaging identity off by "
                        f"{err[worst]:.3e}")
                    break
        except Exception as exc:   # support violations etc.
            problems.append(f"gradient identity suite: {exc}")
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return 1
    print("all identities hold")
    return 0


COMMANDS = {"mesh-info": cmd_mesh_info, "run-study": cmd_run_study,
            "check-identities": cmd_check_identities}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fvlab",
        description="finite-volume weak-consistency laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--levels", type=int, default=None,
                       help="override the refinement level count")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored: the levels run one "
                            "after another")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print(f"config error: threads must be >= 1, got {args.threads!r}",
              file=sys.stderr)
        return 2
    try:
        cfg, meta = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.levels is not None:
        cfg.levels = args.levels
    if args.out is not None:
        meta["out_dir"] = args.out
    try:
        cfg.validate()
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg, meta)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # validate bounds each level's size from below only
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
