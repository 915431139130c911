"""Discrete solution generators: manufactured sampling of smooth fields,
explicit first-order upwind transport in 1D, and the 2D MAC mass update
with a prescribed velocity.

Each generator is a ``LevelSource``: it hands out the q and v levels of
one refinement level chunk by chunk, from a few reused level buffers, so
that ``consistency.level_pass`` consumes a level as it is formed and no
level is held whole.  ``sample_manufactured`` and ``run_upwind_1d``
collect a source whole, as ``LevelSource.collect`` does any.

Both schemes are one source, ``scheme_levels(layout, ...)``: one march
with the convection operator's own flux rule (``operators.flux_rule``,
the identity pair and upwind faces) and ``operators.divergence``, so C(U)
of a scheme field assembled with the same flux vanishes, and one stable
step, ``stable_dt``, whose bound at t = 0 (``scheme_dt``) sets the step
count and bounds it in ``StudyConfig.validate`` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import (CellScalarField, FaceField, _knot_means,
                     _reference_at, check_finite_levels)
# no source samples through it; bench/tracing.py rebinds the name here
from .fields import sample_cell_means  # noqa: F401
from .geometry import TimeGrid, build_time_grid
from .layouts import COLOCATED_1D, Layout, get_layout
from .operators import divergence, flux_rule, get_pair
from .quadrature import (DEFAULT_ORDER, CellQuadrature, Workspace,
                         chunk_slices)

__all__ = ["SchemeConfig", "MassLedger", "LevelSource", "ManufacturedLevels",
           "SchemeLevels", "stable_dt", "scheme_dt", "scheme_levels",
           "run_upwind_1d", "sample_manufactured", "CFLError"]


class CFLError(RuntimeError):
    pass


@dataclass
class SchemeConfig:
    """Configuration of an explicit transport run."""

    q0: Callable                       # initial data q0(x)
    T: float
    cfl: float = 0.5
    velocity: Callable | None = None   # closed-form v(x, t); None -> speed 1
    boundary_policy: str = "upwind_zero"
    quad_order: int = DEFAULT_ORDER

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"CFL must be in (0, 1], got {self.cfl}")
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")


@dataclass
class MassLedger:
    """Per-step discrete mass balance of a conservative update."""

    mass: np.ndarray               # (N+1,) total sum |P| q_P^n
    boundary_flux: np.ndarray      # (N,) dt * boundary flux sum per step
    defect: np.ndarray             # (N,) closure residual per step

    def max_relative_defect(self) -> float:
        scale = np.maximum(np.abs(self.mass[:-1]), 1.0)
        return float((self.defect / scale).max()) if self.defect.size else 0.0


def _uniform_grid_for(T: float, dt_bound: float) -> TimeGrid:
    n = T / dt_bound
    if not np.isfinite(n):
        raise ValueError(f"T / dt = {n} time steps is not a finite count")
    return build_time_grid(T, max(1, int(np.ceil(n - 1e-12))))


class LevelSource:
    """The q and v levels of one refinement level, handed out in chunks of
    steps.

    ``chunks(slices)`` walks consecutive slices of steps that cover 0..N
    in order and yields, per slice n..m, the q levels of the knots n..m+1,
    shaped (m - n + 2, NC), and the v levels of the same knots (None
    without a face velocity).  They are views of two level buffers that
    the next chunk overwrites; the last knot of a chunk is carried over as
    the first of the next.  v is what the layout's faces store of the
    closed form ``v_exact`` (``Layout.velocity_at``), and a subclass forms
    the q levels (``_fill``); every new level is checked finite.  ``quad``
    is the level's cell rule of order ``order``, built once: the source
    samples with it, and ``level_pass`` takes the L1 distance on it.
    """

    def __init__(self, layout: Layout, mesh, dual, grid, order: int,
                 v_exact):
        self.layout, self.mesh, self.dual, self.grid = layout, mesh, dual, grid
        self.quad = CellQuadrature(mesh, order)
        self.v_exact = v_exact

    def on_nodes(self, ref):
        """The evaluator ``ev(times, out=None)`` of ref on the nodes of
        ``quad`` (``fields._reference_at``)."""
        return _reference_at(ref, self.quad.flat_points())

    def _fill(self, steps, q, v, first):
        """Write the q levels of the knots steps.start + first ..
        steps.stop into the rows first.. of q; v holds the v levels of all
        the chunk's knots."""
        raise NotImplementedError

    def _buffers(self, rows):
        """Arrays for ``rows`` q levels and as many v levels (None without
        a face velocity)."""
        layout = self.layout
        return (np.empty((rows, self.mesh.n_cells)),
                np.empty((rows, self.mesh.n_faces) + layout.components)
                if layout.staggered else None)

    def chunks(self, slices):
        q, v = self._buffers(max(ch.stop - ch.start for ch in slices) + 1)
        last = None
        for ch in slices:
            size = ch.stop - ch.start + 1
            qk, vk = q[:size], None if v is None else v[:size]
            first = 0 if last is None else 1
            if first:
                qk[0] = q[last]
            if v is not None:
                if first:
                    vk[0] = v[last]
                for row, t in zip(vk[first:],
                                  self.grid.knots[ch.start + first:
                                                  ch.stop + 1]):
                    row[...] = self.layout.velocity_at(self.v_exact,
                                                       self.mesh, self.dual, t)
                check_finite_levels(vk[first:])
            self._fill(ch, qk, vk, first)
            check_finite_levels(qk[first:])
            yield qk, vk
            last = size - 1

    def collect(self):
        """The whole fields (q, v) of the level, v None without a face
        velocity."""
        q, v = self._buffers(self.grid.n_steps + 1)
        slices = chunk_slices(self.grid.n_steps, self.mesh.n_cells)
        for ch, (qk, vk) in zip(slices, self.chunks(slices)):
            q[ch.start:ch.stop + 1] = qk
            if v is not None:
                v[ch.start:ch.stop + 1] = vk
        return (CellScalarField(self.mesh, self.grid, q),
                None if v is None else FaceField(self.layout, self.mesh,
                                                 self.grid, self.dual, v))


class ManufacturedLevels(LevelSource):
    """Closed forms sampled level by level: q by its cell means at each
    knot (as ``fields.sample_cell_means``, its x-only part formed once)
    and v at the face midpoints; the colocated 1D layout needs no velocity
    (v_exact may be None)."""

    def __init__(self, q_exact, v_exact, layout: Layout, mesh, dual, grid,
                 order: int = DEFAULT_ORDER):
        super().__init__(layout, mesh, dual, grid, order, v_exact)
        self.q_exact = q_exact
        self._ev = super().on_nodes(q_exact)
        self._work = Workspace()

    def on_nodes(self, ref):
        # q_exact's x-only part is formed once for sampling and distance
        return self._ev if ref is self.q_exact else super().on_nodes(ref)

    def _fill(self, steps, q, v, first):
        knots = self.grid.knots[steps.start + first:steps.stop + 1]
        nodes = self.quad.weights.size
        per_call = chunk_slices(knots.size, nodes)[0]
        _knot_means(self.quad, self._ev, knots, q[first:], self._work(
            "values", ((per_call.stop - per_call.start) * nodes,)))


class SchemeLevels(LevelSource):
    """The levels q^0..q^N of the explicit update
    q^{n+1} = q^n - (dt/|P|) sum_zeta |zeta| F^n . n_{P,zeta}, marched a
    chunk at a time into the level buffers, and their mass ledger.

    q^0 is the cell means of ``config.q0``, F^n = fluxes(q^n, v^n) of one
    level (an ``operators`` flux rule, no v in 1D) and the sum is
    ``operators.divergence``.  Step n is checked against the largest
    stable dt at CFL 1 of its velocity (``stable_dt`` of v^n, or of speed
    1 in 1D, formed once) before it is marched.  The ledger (``ledger``,
    once the last chunk is out) holds the mass sum |P| q^n of every level
    and the boundary flux dt sum |zeta| F^n . n over the boundary faces, n
    seen from each face's first cell: each step's boundary fluxes are
    gathered into a row of a reused table and its weighted rows reduced
    per chunk, a row to the bits of the same sum alone
    (``quadrature.step_values``).
    """

    def __init__(self, layout: Layout, mesh, dual, grid,
                 config: SchemeConfig, fluxes):
        super().__init__(layout, mesh, dual, grid, config.quad_order,
                         config.velocity)
        self.config, self.fluxes = config, fluxes
        self._bound = None if layout.staggered else stable_dt(
            layout, _initial_velocity(layout, mesh, dual, config), mesh, dual)
        self.ledger = None
        self._dt = float(grid.steps[0])
        self._rates = self._dt / mesh.cell_volumes
        self._bfaces, self._bweights = layout.boundary_weights(mesh, dual)
        self._mass = np.empty(grid.n_steps + 1)
        self._boundary = np.empty(grid.n_steps)
        self._work = Workspace()

    def _fill(self, steps, q, v, first):
        config, mesh, dual, dt = self.config, self.mesh, self.dual, self._dt
        vols = mesh.cell_volumes
        mass, boundary = self._mass, self._boundary
        if first == 0:
            q[0] = self.quad.cell_means(self.quad.values(config.q0))
            mass[0] = float(np.dot(vols, q[0]))
        rows = self._work("boundary", (steps.stop - steps.start,
                                       self._bfaces.size))
        for i, n in enumerate(range(steps.start, steps.stop)):
            bound = (self._bound if v is None
                     else stable_dt(self.layout, v[i], mesh, dual))
            if dt > config.cfl * bound * (1.0 + 1e-12):
                raise CFLError(f"CFL violated at step {n}")
            flux = self.fluxes(q[i:i + 1], None if v is None else v[i:i + 1])
            div = divergence(self.layout.cell_normal(flux, mesh, dual),
                             mesh)[0]
            np.subtract(q[i], self._rates * div, out=q[i + 1])
            mass[n + 1] = float(np.dot(vols, q[i + 1]))
            np.take(flux[0], self._bfaces, mode="clip", out=rows[i])
        np.multiply(rows, self._bweights, out=rows)
        np.multiply(dt, rows.sum(axis=1), out=boundary[steps])
        if steps.stop == self.grid.n_steps:
            self.ledger = MassLedger(
                mass=mass, boundary_flux=boundary,
                defect=np.abs(np.diff(mass) + boundary))


def stable_dt(layout: Layout, vn, mesh, dual) -> float:
    """The largest stable dt at CFL 1 of the face values vn of one level,
    min_P |P| / sum_zeta |zeta| max(v . n_{P,zeta}, 0) (``cell_normal``);
    inf when no cell has outflow.  The colocated 1D scheme has speed 1, a
    face value of 1 on every face: each cell's outflow is 0 + 1 = 1.0, so
    its step is min |P| exactly."""
    outflow = (mesh.cell_face_measures * np.maximum(
        layout.cell_normal(vn[None], mesh, dual)[0], 0.0)).sum(axis=1)
    with np.errstate(divide="ignore"):
        return float(np.min(np.where(outflow > 0,
                                     mesh.cell_volumes / outflow, np.inf)))


def _initial_velocity(layout: Layout, mesh, dual, config: SchemeConfig):
    """What the faces store of the scheme's velocity at t = 0: the closed
    form on a staggered layout, speed 1 on colocated 1D."""
    if not layout.staggered:
        return np.ones(mesh.n_faces)
    if config.velocity is None:
        raise ValueError(f"a {layout.name} scheme needs a closed-form "
                         f"velocity")
    return layout.velocity_at(config.velocity, mesh, dual, 0.0)


def scheme_dt(layout: Layout, mesh, dual, config: SchemeConfig) -> float:
    """The step bound cfl dt_0 of ``scheme_levels``, which takes T over it
    steps, rounded up: dt_0 is the ``stable_dt`` of the velocity at t = 0,
    or T when it has no outflow."""
    bound = stable_dt(layout, _initial_velocity(layout, mesh, dual, config),
                      mesh, dual)
    return config.cfl * (bound if np.isfinite(bound) else config.T)


def scheme_levels(layout: Layout, mesh, dual, config: SchemeConfig
                  ) -> SchemeLevels:
    """The explicit upwind scheme of ``layout`` (colocated 1D: q_t + q_x =
    0; MAC: the mass update with the prescribed velocity) as a level
    source, on the uniform grid of ``scheme_dt``.

    It steps with ``operators.flux_rule`` (the identity pair, upwind
    faces): q_P^{n+1} = q_P^n - (dt/|P|) sum |zeta| q_zeta^up v_zeta^n
    delta_{P,zeta}, so total mass changes only through boundary faces
    (checked per step), and under the CFL bound the update is a convex
    combination, so the max principle holds (inflow value 0 under the
    default policy).
    """
    if not layout.scheme_source:
        raise ValueError(f"no scheme generates {layout.name!r} fields")
    grid = _uniform_grid_for(config.T, scheme_dt(layout, mesh, dual, config))
    fluxes = flux_rule(mesh, layout, dual, get_pair("id"), "upwind", 0.5,
                       config.boundary_policy)
    return SchemeLevels(layout, mesh, dual, grid, config, fluxes)


def run_upwind_1d(mesh, config: SchemeConfig):
    """The colocated 1D ``scheme_levels`` marched whole: (field, grid,
    ledger)."""
    source = scheme_levels(COLOCATED_1D, mesh, None, config)
    q, _ = source.collect()
    return q, source.grid, source.ledger


def sample_manufactured(q_exact, v_exact, layout: str, mesh, dual, grid,
                        order: int = DEFAULT_ORDER):
    """Closed forms sampled whole (``ManufacturedLevels``): q by cell
    means at t_n, v by what the layout's faces store at their midpoints;
    the colocated 1D layout needs no velocity field (v_exact may be None).
    """
    return ManufacturedLevels(q_exact, v_exact, get_layout(layout), mesh,
                              dual, grid, order).collect()
