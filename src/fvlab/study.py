"""Refinement studies: build a level hierarchy, audit its regularity,
compute every consistency residual per level, fit decay rates and emit CSV
reports.

The levels run one after another, and each level but the finest hands
its q, as a plain array, to the next finer level's L1 Cauchy distance.
Reports are assembled in level order with deterministic reductions, so
outputs are byte-identical for any BLAS thread count.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import resource
from dataclasses import dataclass, field, fields

import numpy as np

from .consistency import level_pass, weak_rhs
from .fields import (TIME_PROFILES, Reference, TestFunction, _bump,
                     _bump_vanishes, default_translate_weights,
                     interpolate_test)
# build_dual_mac and build_dual_rt are called by their names in this module
# (see build_level), so rebinding fvlab.study.build_dual_* reaches the call
from .geometry import (TIME_PATTERNS, MeshConstructionError,
                       _cartesian_vertices, build_cartesian, build_dual_mac,
                       build_dual_rt, build_intervals, build_perturbed_quads,
                       build_tensor, build_time_grid, regularity,
                       subdivide_nodes)
from .layouts import BOUNDARY_POLICIES, LAYOUTS, MAC, get_layout
from .operators import FACE_SCHEMES, PAIRS, flux_rule, get_pair
from .quadrature import Workspace
from .schemes import (ManufacturedLevels, SchemeConfig, scheme_dt,
                      scheme_levels)

# the whole-level stages, each the walk of level_pass with its one term
# over held fields, are not called here; they stay importable from this
# module because bench/tracing.py rebinds their names here
from .consistency import (compute_X1, compute_X2, jump_sums,  # noqa: F401
                          measured_constant, residual_flux, residual_init,
                          residual_time, weak_form_gap)
from .fields import lp_distance, translate_functional  # noqa: F401
from .operators import (assemble_convection,  # noqa: F401
                        flux_colocated_upwind_1d, flux_staggered)
# so are the whole-level field functions, whose sources a level streams
from .schemes import run_upwind_1d, sample_manufactured  # noqa: F401

__all__ = [
    "StudyConfig", "ResidualReport", "RateFit", "StudyResult", "run_study",
    "write_report_csv", "write_rates_csv", "StudyRegularityError",
    "manufactured_solution", "SOLUTIONS", "CONFIG_TABLE", "META_DEFAULTS",
]

RATE_SERIES = ("res_init", "res_time", "res_flux", "R1", "R2", "translate",
               "weak_gap")
FIELD_SOURCES = ("manufactured", "scheme")
# mesh families per space dimension; the first is the default
MESH_FAMILIES = {1: ("interval",), 2: ("uniform", "graded", "perturbed")}
DEFAULT_SOLUTIONS = {1: "bump_advect_1d", 2: "sinsin_cos"}


class StudyRegularityError(RuntimeError):
    """A regularity parameter is unbounded across the refinement levels."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


# ----------------------------------------------------------------------
# manufactured solutions

# the q and v of each solution are References: the x-only factor, formed
# once per point set, and the rest of the closed form in its left-to-right
# order; the steady velocities combine to their x-only part, and every
# combine writes into the buffer it is given


def _steady(s, t, out=None):
    if out is None:
        return s
    np.copyto(out, s)
    return out


_UNIFORM_V = Reference(lambda x: np.broadcast_to(np.array([1.0, 0.5]),
                                                 (x.shape[0], 2)).copy(),
                       _steady)

# the support of the advected 1D bump at t = 0, for its closed form and
# for where that vanishes
BUMP_1D = (0.15, 0.45)

SOLUTIONS = {
    "constant": dict(
        dim=2,
        q=lambda x, t: np.full(x.shape[0], 2.0),
        v=_UNIFORM_V),
    "sinsin_cos": dict(
        dim=2,
        q=Reference(lambda x: np.sin(np.pi * x[:, 0])
                    * np.sin(np.pi * x[:, 1]),
                    lambda s, t, out=None: np.multiply(s, np.cos(t), out=out)),
        v=_UNIFORM_V),
    "sinsin_shear": dict(
        dim=2,
        q=Reference(lambda x: 0.5 * np.sin(np.pi * x[:, 0])
                    * np.sin(np.pi * x[:, 1]),
                    lambda s, t, out=None: np.add(
                        1.0, np.multiply(s, np.cos(t), out=out), out=out)),
        v=Reference(lambda x: np.stack([1.0 + 0.3 * np.sin(np.pi * x[:, 0]),
                                        0.5 + 0.2 * np.cos(np.pi * x[:, 1])],
                                       axis=-1),
                    _steady)),
    "bump_advect_1d": dict(
        dim=1,
        q=Reference(lambda x: x[:, 0],
                    lambda x0, t, out=None: _bump(
                        np.subtract(x0, t, out=out), *BUMP_1D, out=out),
                    # x0 - t does not increase with t
                    lambda x0, first, last: _bump_vanishes(
                        np.subtract(x0, last), np.subtract(x0, first),
                        *BUMP_1D)),
        v=None),
}


def manufactured_solution(name: str):
    if name not in SOLUTIONS:
        raise KeyError(f"unknown manufactured solution {name!r}; "
                       f"choose from {sorted(SOLUTIONS)}")
    return SOLUTIONS[name]


# ----------------------------------------------------------------------
# configuration

# The INI schema: (section, key, target, type, domain).  A target is a
# StudyConfig field, a (box, axis, end) bound of the domain or support box,
# or a key of the meta dict (non-study settings).  A domain is an interval
# written as text, which no NaN lies in and whose open inf end rejects
# +-inf, or a tuple of names; None leaves the value to the checks that join
# keys (``StudyConfig.validate``) or to the command that reads it.  Absent
# keys take the StudyConfig defaults; [thresholds] holds free-form
# series = minimum slope entries.
CONFIG_TABLE = (
    ("mesh", "family", "mesh_family", str, None),
    ("mesh", "nx", "nx0", int, "[1, inf)"),
    ("mesh", "ny", "ny0", int, "[1, inf)"),
    ("mesh", "x0", ("domain", 0, 0), float, None),
    ("mesh", "x1", ("domain", 0, 1), float, None),
    ("mesh", "y0", ("domain", 1, 0), float, None),
    ("mesh", "y1", ("domain", 1, 1), float, None),
    ("mesh", "grading", "grading", float, "(0, inf)"),
    ("mesh", "amplitude", "amplitude", float, "[0, 0.25)"),
    ("mesh", "seed", "seed", int, "[0, inf)"),
    ("mesh", "file", "mesh_file", str, None),
    ("time", "T", "T", float, "(0, inf)"),
    ("time", "dt_over_h", "dt_over_h", float, "(0, inf)"),
    ("time", "pattern", "time_pattern", str, TIME_PATTERNS),
    ("time", "ratio", "time_ratio", float, "(0, inf)"),
    ("study", "levels", "levels", int, "[3, inf)"),
    ("study", "layout", "layout", str, tuple(LAYOUTS)),
    ("study", "beta", "beta_name", str, tuple(PAIRS)),
    ("study", "g", "g_name", str, tuple(PAIRS)),
    ("study", "face_scheme", "face_scheme", str, FACE_SCHEMES),
    ("study", "lambda", "lam", float, "[0, 1]"),
    ("study", "field_source", "field_source", str, FIELD_SOURCES),
    ("study", "solution", "solution", str, tuple(SOLUTIONS)),
    ("study", "boundary_policy", "boundary_policy", str, BOUNDARY_POLICIES),
    ("study", "cfl", "cfl", float, "(0, 1]"),
    ("study", "translate_theta", "translate_theta", float, "[0, inf)"),
    ("test_function", "x0", ("support", 0, 0), float, None),
    ("test_function", "x1", ("support", 0, 1), float, None),
    ("test_function", "y0", ("support", 1, 0), float, None),
    ("test_function", "y1", ("support", 1, 1), float, None),
    # phi's time support [0, t_max_factor T) must end before T
    ("test_function", "t_max_factor", "t_max_factor", float, "(0, 1)"),
    ("test_function", "time_profile", "time_profile", str, TIME_PROFILES),
    ("numerics", "quad_order", "quad_order", int, "[1, inf)"),
    ("numerics", "interp_panels", "interp_panels", int, "[1, inf)"),
    ("numerics", "oracle_order", "oracle_order", int, "[1, inf)"),
    ("numerics", "rhs_panels", "rhs_panels", int, "[1, inf)"),
    ("audit", "regularity_cap", "regularity_cap", float, "(0, inf)"),
    ("audit", "regularity_growth", "regularity_growth", float, "(0, inf)"),
    ("output", "out_dir", "out_dir", str, None),
)
META_DEFAULTS = {"mesh_file": "", "out_dir": "."}


def _check_domain(section: str, key: str, value, domain):
    """Raise a ValueError that names ``[section] key`` and `value` unless
    the value lies in `domain`, an interval written as text, "(0, inf)" or
    "[0, 1]", or a tuple of names."""
    if isinstance(domain, str):
        lo, hi = (float(end) for end in domain[1:-1].split(","))
        inside = ((lo < value if domain[0] == "(" else lo <= value)
                  and (value < hi if domain[-1] == ")" else value <= hi))
        what = f"in {domain}"
    else:
        inside, what = value in domain, f"one of {', '.join(domain)}"
    if not inside:
        raise ValueError(f"[{section}] {key} must be {what}, got {value!r}")


def _memory_bound():
    """The bytes one array of the process may take and what bounds them:
    physical memory, or the process's soft address-space limit
    (``RLIMIT_AS``) where that is finite and lower."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY and limit < memory:
        return limit, "the address-space limit (RLIMIT_AS)"
    return memory, "physical memory"


@dataclass
class StudyConfig:
    """Everything a refinement study needs; ``CONFIG_TABLE`` maps the INI
    keys to the fields and states each field's domain.

    ``mesh_family`` and ``solution`` default to the first family and the
    default solution of the layout's dimension, and ``domain`` keeps one
    (lo, hi) bound per axis of the layout.
    """

    mesh_family: str | None = None        # uniform | graded | perturbed | interval
    nx0: int = 8
    ny0: int = 8
    levels: int = 3
    domain: tuple = ((0.0, 1.0), (0.0, 1.0))
    grading: float = 1.0
    amplitude: float = 0.2
    seed: int = 0
    layout: str = MAC.name                # a key of fvlab.layouts.LAYOUTS
    beta_name: str = "id"
    g_name: str = "id"
    face_scheme: str = "upwind"
    lam: float = 0.5
    field_source: str = "manufactured"    # manufactured | scheme
    solution: str | None = None
    boundary_policy: str = "upwind_zero"
    cfl: float = 0.5
    T: float = 0.5
    dt_over_h: float = 0.5
    time_pattern: str = "uniform"
    time_ratio: float = 1.0
    support: tuple | None = None          # default: central box of the domain
    t_max_factor: float = 0.7
    time_profile: str = "initial"
    quad_order: int = 4
    interp_panels: int = 4
    oracle_order: int = 8
    rhs_panels: int = 12
    translate_theta: float = 1.0
    regularity_cap: float = 1e3
    regularity_growth: float = 2.0
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        dim = get_layout(self.layout).dim
        if self.mesh_family is None:
            self.mesh_family = MESH_FAMILIES[dim][0]
        if self.solution is None:
            self.solution = DEFAULT_SOLUTIONS[dim]
        self.domain = tuple(self.domain)[:dim]

    def validate(self):
        """Check every value against its ``CONFIG_TABLE`` domain, then the
        checks that join keys and the study's size, before any level runs.
        A config that passed is not checked again while its fields keep
        their values, so ``run-study`` checks it once."""
        if getattr(self, "_valid", None) == repr(self):
            return
        for section, key, target, _, domain in CONFIG_TABLE:
            if domain is not None:
                _check_domain(section, key, getattr(self, target), domain)
        for axis, (lo, hi) in zip("xy", self.domain):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"domain bounds {axis}0 < {axis}1 must be "
                                 f"finite, got ({lo!r}, {hi!r})")
        # cell diameters square lengths up to the box's diagonal
        widths = [float(hi) - float(lo) for lo, hi in self.domain]
        if not math.isfinite(sum(w * w for w in widths)):
            keys = ", ".join(f"{axis}0, {axis}1"
                             for axis, _ in zip("xy", self.domain))
            raise ValueError(f"domain bounds {keys} give a squared diagonal "
                             f"that is not finite")
        layout = get_layout(self.layout)
        _check_domain("mesh", f"family of layout {layout.name!r}",
                      self.mesh_family, MESH_FAMILIES[layout.dim])
        _check_domain("study", f"boundary_policy of layout {layout.name!r}",
                      self.boundary_policy, layout.boundary_policies)
        if self.field_source == "scheme" and not layout.scheme_source:
            raise ValueError(f"no scheme generates {layout.name!r} fields")
        if self.field_source == "scheme" and self.time_pattern != "uniform":
            raise ValueError(f"a scheme steps on its uniform CFL grid, not "
                             f"the {self.time_pattern!r} time pattern")
        for name, value in self.thresholds.items():
            _check_domain("thresholds", "series", name, RATE_SERIES)
            if not math.isfinite(value):
                raise ValueError(f"threshold {name} must be finite, got "
                                 f"{value!r}")
        sol = manufactured_solution(self.solution)
        if sol["dim"] != layout.dim:
            raise ValueError(f"solution {self.solution!r} is {sol['dim']}D but "
                             f"the layout is {layout.dim}D")
        self.test_function().validate_against(self.domain, self.T)
        # each level is built at most once here
        level_mesh = functools.cache(self._level_mesh)
        self._check_size(layout, level_mesh)
        if self.grading != 1.0 and self.mesh_family in ("graded", "interval"):
            # graded nodes that overflow or collapse, and cells too thin to
            # have an area: the finer 2D levels subdivide level 0's nodes,
            # while each 1D level grades its own, the finest the most
            level_mesh(0 if layout.dim == 2 else self.levels - 1)
        if self.time_pattern == "alternating":
            # knots that overflow or collapse (build_time_grid)
            for level in range(self.levels):
                self.manufactured_grid(self.level_width(level))
        self._valid = repr(self)

    def _level_mesh(self, level: int):
        """The mesh and dual of a level (``build_level``), whose size has
        passed ``_check_size``: a grading that leaves it no valid mesh is
        named."""
        try:
            return build_level(self, level)[:2]
        except MeshConstructionError as exc:
            raise ValueError(f"grading = {self.grading!r} leaves level "
                             f"{level} no valid mesh: {exc}") from None

    def _check_size(self, layout, level_mesh):
        """Reject a level whose cell vector, time grid or whole q (held for
        the next level on tensor meshes) takes more, at 8 bytes a value,
        than the memory the process may use (``_memory_bound``), or whose
        step count is not finite.  A scheme's count is bounded from below
        by level 0's, T / ``schemes.scheme_dt`` on the mesh and dual
        ``level_mesh(0)`` (``_level_mesh``): a MAC scheme's steps follow v,
        and the finer levels only raise that count; a 1D scheme steps at
        cfl times the smallest interval, which at least halves each level
        (uniform or graded), so level L takes at least 2^L times as many."""
        memory, bound = _memory_bound()
        # shifted quadrangles have no tensor structure, so no whole q
        tensor = self.mesh_family != "perturbed" or self.amplitude == 0
        manufactured = self.field_source == "manufactured"
        keys = "T and " + ("dt_over_h" if manufactured else "cfl")

        def fits(values, what):
            if 8 * values > memory:
                raise ValueError(f"{what}: {8 * values / 2 ** 30:.3g} GiB, "
                                 f"more than the {memory / 2 ** 30:.3g} GiB "
                                 f"of {bound}")

        for level in range(self.levels):
            cells = self.nx0 * 2 ** level * (
                1 if layout.dim == 1 else self.ny0 * 2 ** level)
            fits(cells, f"levels = {self.levels}: level {level} has {cells} "
                        f"cells, a cell vector")
            if manufactured:
                n = self.manufactured_steps(self.level_width(level))
            elif level == 0:
                n = n0 = self.T / scheme_dt(layout, *level_mesh(0),
                                            self.scheme_config())
            else:
                n = n0 * (2 ** level if layout.dim == 1 else 1)
            if not math.isfinite(n):
                raise ValueError(f"{keys} give level {level} a step count "
                                 f"of {n}, not finite")
            fits(n + 1, f"{keys} give level {level} {n:.4g} time steps, a "
                        f"time grid")
            if tensor and level < self.levels - 1:
                fits((n + 1) * cells, f"levels = {self.levels}: level {level} "
                                      f"holds its q whole")

    def level_width(self, level: int) -> float:
        """The reference cell width h of a level along the first axis."""
        return (self.domain[0][1] - self.domain[0][0]) / (self.nx0
                                                          * 2 ** level)

    def manufactured_steps(self, h: float) -> float:
        """The step count max(1, round(T / (dt_over_h * h))) of a
        manufactured level of reference width h, inf when it overflows."""
        return max(1.0, float(np.rint(self.T / (self.dt_over_h * h))))

    def manufactured_grid(self, h: float):
        """The time grid of a manufactured level of reference width h:
        ``manufactured_steps(h)`` steps on the time pattern."""
        return build_time_grid(self.T, int(self.manufactured_steps(h)),
                               pattern=self.time_pattern,
                               ratio=self.time_ratio)

    def scheme_config(self) -> SchemeConfig:
        """The ``schemes.SchemeConfig`` of a scheme source: the solution's
        q at t = 0 and its velocity, T, cfl, the boundary policy and the
        quadrature order."""
        sol = manufactured_solution(self.solution)
        return SchemeConfig(q0=lambda x: sol["q"](x, 0.0), T=self.T,
                            cfl=self.cfl, velocity=sol["v"],
                            boundary_policy=self.boundary_policy,
                            quad_order=self.quad_order)

    def default_support(self) -> tuple:
        """The central box of the domain, 60% of it along each axis."""
        return tuple((lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
                     for lo, hi in self.domain)

    def test_function(self) -> TestFunction:
        return TestFunction(self.support or self.default_support(),
                            self.t_max_factor * self.T, self.time_profile)


# ----------------------------------------------------------------------
# per-level report

@dataclass
class ResidualReport:
    level: int
    h: float
    dt: float
    theta1: float
    theta2: float
    theta3: float
    x1: float
    x2: float
    res_init: float               # per-cell absolute init majorant
    res_time: float               # Lipschitz time majorant (measure-weighted)
    res_flux: float
    r1: float
    r2: float
    translate: float
    weak_gap: float
    sup_norm: float
    theta_mac: float = np.nan
    res_init_signed: float = np.nan
    res_init_l1: float = np.nan
    res_time_signed: float = np.nan
    x2_gradient: float = np.nan
    rt_constant: float = np.nan
    measured_c: float = np.nan
    l1_distance: float = np.nan   # to the exact solution (manufactured limit)
    l1_cauchy: float = np.nan     # to the previous level (scheme surrogate)
    scheme_min: float = np.nan
    scheme_max: float = np.nan
    mass_defect: float = np.nan

    def series(self, name: str) -> float:
        return getattr(self, name.lower())


# report.csv columns: the ResidualReport fields in order, with the paper's
# upper-case names for the pairings and the jump sums
CSV_COLUMNS = tuple({"x1": "X1", "x2": "X2", "r1": "R1", "r2": "R2"}.get(
    f.name, f.name) for f in fields(ResidualReport))


@dataclass
class RateFit:
    """log(residual) against log(h + dt): least-squares slope over all
    levels with positive residuals, plus per-pair slopes (the acceptance
    thresholds read the finest pair)."""

    series: str
    lsq_slope: float
    pair_slopes: np.ndarray

    @property
    def finest_pair(self) -> float:
        finite = self.pair_slopes[np.isfinite(self.pair_slopes)]
        return float(finite[-1]) if finite.size else np.nan


def fit_rates(reports) -> dict:
    if len(reports) < 3:
        raise ValueError("rate fitting needs >= 3 levels")
    x = np.log([r.h + r.dt for r in reports])
    out = {}
    for name in RATE_SERIES:
        vals = np.array([r.series(name) for r in reports])
        ok = vals > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(ok, np.log(np.where(ok, vals, 1.0)), np.nan)
            pair = np.diff(logs) / np.diff(x)
        lsq = np.nan
        if ok.sum() >= 3:
            lsq = float(np.polyfit(x[ok], logs[ok], 1)[0])
        out[name] = RateFit(series=name, lsq_slope=lsq, pair_slopes=pair)
    return out


@dataclass
class StudyResult:
    config: StudyConfig
    reports: list
    rates: dict

    def failed_thresholds(self):
        """Threshold names whose finest-pair slope falls short."""
        return [name for name, min_slope in self.config.thresholds.items()
                if not self.rates[name].finest_pair >= float(min_slope)]


# ----------------------------------------------------------------------
# level construction

def build_level(config: StudyConfig, level: int):
    """Mesh, dual and reference axis step for one refinement level."""
    scale, h_ref = 2 ** level, config.level_width(level)
    if config.mesh_family == "interval":
        mesh = build_intervals(config.nx0 * scale, config.domain[0],
                               grading=config.grading)
        return mesh, None, h_ref
    nx, ny = config.nx0 * scale, config.ny0 * scale
    if config.mesh_family == "uniform":
        mesh = build_cartesian(nx, ny, config.domain)
    elif config.mesh_family == "graded":
        # refine by nested subdivision of the level-0 graded nodes:
        # rebuilding at a fixed consecutive ratio would unbound theta1
        # (worst aspect ratio grows like ratio^nx under refinement)
        _, xs0, ys0 = _cartesian_vertices(config.nx0, config.ny0,
                                          config.domain, config.grading)
        mesh = build_tensor(subdivide_nodes(xs0, scale),
                            subdivide_nodes(ys0, scale), config.domain)
    elif config.mesh_family == "perturbed":
        mesh = build_perturbed_quads(nx, ny, config.domain,
                                     amplitude=config.amplitude,
                                     seed=config.seed + level)
    else:
        raise ValueError(f"unknown mesh family {config.mesh_family!r}")
    builder = get_layout(config.layout).dual_builder
    dual = globals()[builder](mesh) if builder else None
    return mesh, dual, h_ref


def level_source(config: StudyConfig, level: int):
    """The q and v source (``schemes.LevelSource``) of one level's mesh
    and dual: the closed forms sampled on the time pattern, steps about
    dt_over_h * h_ref, or the scheme marched on its uniform CFL grid."""
    mesh, dual, h_ref = build_level(config, level)
    layout = get_layout(config.layout)
    if config.field_source == "scheme":
        # validate admits the scheme source for colocated 1D and MAC only
        return scheme_levels(layout, mesh, dual, config.scheme_config())
    sol = manufactured_solution(config.solution)
    return ManufacturedLevels(sol["q"], sol["v"], layout, mesh, dual,
                              config.manufactured_grid(h_ref),
                              config.quad_order)


class _LevelQ:
    """One level's q on its tensor mesh, the L1 Cauchy reference of the
    next finer level: its pass writes the rows chunk by chunk (``put``),
    and the finer level's pass gathers from them (``at``)."""

    def __init__(self, mesh, grid):
        self.mesh, self.grid = mesh, grid
        self.values = np.empty((grid.n_steps + 1, mesh.n_cells))

    def put(self, start, levels):
        """The q levels of the knots start.. (``level_pass``'s keep)."""
        self.values[start:start + len(levels)] = levels

    def at(self, points):
        """The evaluator ``ev(times, out=None, nodes=slice(None))`` of this
        q on the points, as ``Reference.at``: the cell of each point found
        once, the rows of the times gathered into reused buffers.

        q is constant on each slab of this level (``searchsorted`` on the
        knots, side "right", names the slab that ``ev`` reads at a time).
        So ``ev.varying(tn)`` names no point when the first and the last
        Gauss time of every slab of tn lie in one slab of this level, and
        every point otherwise."""
        mesh, grid = self.mesh, self.grid
        # distinct sorted coordinates; np.unique imports numpy.ma on first use
        nodes = [np.sort(mesh.vertices[:, d]) for d in range(mesh.dim)]
        nodes = [a[np.append(True, a[1:] != a[:-1])] for a in nodes]
        shape = tuple(axis.size - 1 for axis in nodes)
        cell = np.ravel_multi_index(tuple(
            np.clip(np.searchsorted(axis, points[:, d], side="right") - 1,
                    0, size - 1)
            for d, (axis, size) in enumerate(zip(nodes, shape))), shape)
        rows = np.empty((0, mesh.n_cells))

        def slabs(times):
            return np.clip(np.searchsorted(grid.knots, times, side="right")
                           - 1, 0, grid.n_steps - 1)

        def ev(times, out=None, nodes=slice(None)):
            nonlocal rows
            n = slabs(times)
            if len(rows) < n.size:
                rows = np.empty((n.size, mesh.n_cells))
            # the indices are in range, and mode "clip" gathers straight
            # into the buffers, where "raise" would copy
            got = self.values.take(n, axis=0, out=rows[:n.size], mode="clip")
            return got.take(cell[nodes], axis=1, out=out, mode="clip")

        ev.varying = lambda tn: np.full(cell.size, not np.array_equal(
            slabs(tn[:, 0]), slabs(tn[:, -1])))
        return ev


def _audit(config, level, reg, base):
    named = {"theta1": reg.theta1, "theta2": reg.theta2, "theta3": reg.theta3}
    bad = []
    for name, val in named.items():
        if val > config.regularity_cap:
            bad.append((name, f"{name} = {val:.6g} exceeds cap "
                              f"{config.regularity_cap} at level {level}"))
        elif base is not None and val > config.regularity_growth * max(
                getattr(base, name), 1.0):
            bad.append((name, f"{name} grows across levels: "
                              f"{getattr(base, name):.6g} -> {val:.6g} "
                              f"at level {level}"))
    if bad:
        raise StudyRegularityError(" ".join(n for n, _ in bad),
                                   "; ".join(msg for _, msg in bad))


# ----------------------------------------------------------------------
# the study itself

def _compute_level(config, level, phi, rhs, base_reg, coarse, work=None):
    """The report of one level and its q (``_LevelQ``, None on the finest
    level and without tensor structure): its q and v streamed from
    ``level_source`` into ``level_pass``, l1_cauchy taken against the
    coarser level's q ``coarse`` when there is one; ``work`` is the pass's
    workspace (``level_pass``)."""
    levels = level_source(config, level)
    mesh, dual, grid = levels.mesh, levels.dual, levels.grid
    layout = get_layout(config.layout)
    pair = get_pair(config.beta_name, config.g_name)
    # no finer level reads the finest q, so it is never held whole
    q = (_LevelQ(mesh, grid)
         if level < config.levels - 1 and mesh.is_rectangular() else None)
    reg = regularity(mesh, grid, dual)
    _audit(config, level, reg, base_reg)
    fluxes = flux_rule(mesh, layout, dual, pair, config.face_scheme,
                       config.lam, config.boundary_policy)
    interp = interpolate_test(phi, mesh, grid, order=config.quad_order,
                              panels=config.interp_panels)
    weights = default_translate_weights(mesh, grid,
                                        theta=config.translate_theta)
    sums = level_pass(
        levels, pair, fluxes, interp,
        manufactured_solution(config.solution)["q"], weights, rhs,
        order=config.quad_order, init_order=config.oracle_order,
        cauchy=coarse, keep=None if q is None else q.put, work=work)
    extras = {}
    if config.field_source == "scheme":
        extras = dict(scheme_min=sums.q_min, scheme_max=sums.q_max,
                      mass_defect=levels.ledger.max_relative_defect())
    x2, jumps = sums.x2, sums.jumps
    return ResidualReport(
        level=level, h=mesh.delta(), dt=grid.dt_max, theta1=reg.theta1,
        theta2=reg.theta2, theta3=reg.theta3, x1=sums.x1.value, x2=x2.value,
        res_init=sums.init.cellwise, res_time=sums.time.majorant,
        res_flux=sums.res_flux, r1=jumps.r1, r2=jumps.r2,
        translate=sums.translate, weak_gap=sums.gap.gap,
        sup_norm=sums.sup_norm, theta_mac=reg.theta_mac,
        res_init_signed=sums.init.signed, res_init_l1=sums.init.l1_majorant,
        res_time_signed=sums.time.signed, x2_gradient=x2.gradient_route,
        rt_constant=(jumps.rt_constant if jumps.rt_constant is not None
                     else np.nan),
        measured_c=sums.measured_c, l1_distance=sums.l1_distance,
        l1_cauchy=sums.l1_cauchy, **extras), q


def run_study(config: StudyConfig) -> StudyResult:
    """Run all refinement levels, audit regularity and fit decay rates.

    The weak-form right-hand side is integrated once (it is the level-
    independent limit object).  The L1 Cauchy column compares each level's
    field with the previous level's q (``_LevelQ``): for scheme sources
    the convergence surrogate (no exact limit is assumed); for
    manufactured sources l1_distance to the exact limit is the primary
    diagnostic.
    """
    config.validate()
    phi = config.test_function()
    sol = manufactured_solution(config.solution)
    pair = get_pair(config.beta_name, config.g_name)
    rhs = weak_rhs(pair, sol["q"], sol["v"], phi, order=config.oracle_order,
                   panels=config.rhs_panels)
    # the levels reuse one workspace, whose buffers each finer level grows:
    # a fresh one per level faulted in ~2k more pages over the 1D scheme
    # benchmark study
    work = Workspace()
    reports, q = [], None
    for level in range(config.levels):
        # level 0 fixes the regularity baseline for the audit; a level's q
        # is freed once the next level is done
        report, q = _compute_level(config, level, phi, rhs,
                                   reports[0] if reports else None, q, work)
        reports.append(report)
    return StudyResult(config=config, reports=reports, rates=fit_rates(reports))


# ----------------------------------------------------------------------
# CSV emission (17 significant digits, '.' separator, LF endings)

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    val = float(x) + 0.0          # canonicalize -0.0
    return f"{val:.17g}"


def write_report_csv(result: StudyResult, path):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in result.reports:
            writer.writerow([_fmt(getattr(r, f.name)) for f in fields(r)])


def write_rates_csv(result: StudyResult, path):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        npairs = len(result.reports) - 1
        header = ["series", "lsq_slope", "finest_pair_slope"] + \
            [f"pair_{i}_{i + 1}" for i in range(npairs)]
        writer.writerow(header)
        for name in RATE_SERIES:
            fit = result.rates[name]
            row = [name, _fmt(fit.lsq_slope), _fmt(fit.finest_pair)]
            row += [_fmt(s) for s in fit.pair_slopes]
            writer.writerow(row)
