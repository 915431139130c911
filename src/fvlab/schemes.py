"""Discrete solution generators: manufactured sampling of smooth fields,
explicit first-order upwind transport in 1D, and the 2D MAC mass update
with a prescribed velocity.

Each generator is a ``LevelSource``: it hands out the q and v levels of
one refinement level chunk by chunk, from a few reused level buffers, so
that ``consistency.level_pass`` consumes a level as it is formed and no
level is held whole.  ``sample_manufactured``, ``run_upwind_1d`` and
``run_mass_mac`` collect a source whole.

Both schemes step with the convection operator's own flux rules
(``operators.upwind_1d_flux_rule``; ``staggered_flux_rule`` with the
identity pair and upwind faces) and ``operators.divergence``, in one
march, so C(U) of a scheme field assembled with the same flux vanishes.
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
from .layouts import COLOCATED_1D, MAC, Layout, get_layout
from .operators import (divergence, get_pair, staggered_flux_rule,
                        upwind_1d_flux_rule)
from .quadrature import (DEFAULT_ORDER, CellQuadrature, Workspace,
                         chunk_slices)

__all__ = ["SchemeConfig", "MassLedger", "LevelSource", "ManufacturedLevels",
           "SchemeLevels", "upwind_1d_levels", "mass_mac_levels",
           "mass_mac_dt", "run_upwind_1d", "run_mass_mac",
           "sample_manufactured", "CFLError"]


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
    ``operators.divergence``.  Step n is checked against
    ``cfl_bound(v^n)``, the largest stable dt at CFL 1 (v^n None in 1D),
    before it is marched.  The ledger (``ledger``, once the last chunk is
    out) holds the mass sum |P| q^n of every level and the boundary flux
    dt sum |zeta| F^n . n over the boundary faces, n seen from each face's
    first cell.
    """

    def __init__(self, layout: Layout, mesh, dual, grid,
                 config: SchemeConfig, fluxes, cfl_bound):
        super().__init__(layout, mesh, dual, grid, config.quad_order,
                         config.velocity)
        self.config, self.fluxes, self.cfl_bound = config, fluxes, cfl_bound
        self.ledger = None
        self._dt = float(grid.steps[0])
        self._rates = self._dt / mesh.cell_volumes
        self._bfaces, self._bweights = layout.boundary_weights(mesh, dual)
        self._mass = np.empty(grid.n_steps + 1)
        self._boundary = np.empty(grid.n_steps)

    def _fill(self, steps, q, v, first):
        config, mesh, dual, dt = self.config, self.mesh, self.dual, self._dt
        vols = mesh.cell_volumes
        mass, boundary = self._mass, self._boundary
        if first == 0:
            q[0] = self.quad.cell_means(self.quad.values(config.q0))
            mass[0] = float(np.dot(vols, q[0]))
        for i, n in enumerate(range(steps.start, steps.stop)):
            vn = None if v is None else v[i]
            if dt > config.cfl * self.cfl_bound(vn) * (1.0 + 1e-12):
                raise CFLError(f"CFL violated at step {n}")
            flux = self.fluxes(q[i:i + 1], None if v is None else v[i:i + 1])
            div = divergence(self.layout.cell_normal(flux, mesh, dual),
                             mesh)[0]
            np.subtract(q[i], self._rates * div, out=q[i + 1])
            mass[n + 1] = float(np.dot(vols, q[i + 1]))
            boundary[n] = dt * float((flux[0, self._bfaces]
                                      * self._bweights).sum())
        if steps.stop == self.grid.n_steps:
            self.ledger = MassLedger(
                mass=mass, boundary_flux=boundary,
                defect=np.abs(np.diff(mass) + boundary))


def upwind_1d_levels(mesh, config: SchemeConfig) -> SchemeLevels:
    """Explicit upwind transport q_t + q_x = 0 at the configured CFL, as a
    level source.

    The time step satisfies dt <= cfl * min h_P (the speed is 1), checked
    at every step; under that bound the update is a convex combination so
    the max principle holds (inflow value 0 under the default policy).
    """
    if mesh.dim != 1:
        raise ValueError("run_upwind_1d needs a 1D mesh")
    fluxes = upwind_1d_flux_rule(mesh, config.boundary_policy)
    h_min = float(mesh.cell_volumes.min())
    grid = _uniform_grid_for(config.T, config.cfl * h_min)
    return SchemeLevels(COLOCATED_1D, mesh, None, grid, config, fluxes,
                        lambda vn: h_min)


def run_upwind_1d(mesh, config: SchemeConfig):
    """``upwind_1d_levels`` marched whole: (field, grid, ledger)."""
    source = upwind_1d_levels(mesh, config)
    q, _ = source.collect()
    return q, source.grid, source.ledger


def mass_mac_levels(mesh, dual, config: SchemeConfig) -> SchemeLevels:
    """Explicit upwind mass update on a MAC grid with prescribed velocity,
    as a level source.

    q_P^{n+1} = q_P^n - (dt/|P|) sum |zeta| q_zeta^up v_zeta^n delta_{P,zeta};
    total mass changes only through boundary faces (checked per step).
    dt is chosen from v at t = 0, and every step is checked against the
    CFL bound of its own v^n.
    """
    grid = _uniform_grid_for(config.T, mass_mac_dt(mesh, dual, config))
    fluxes = staggered_flux_rule(mesh, MAC, dual, get_pair("id"),
                                 policy=config.boundary_policy)
    return SchemeLevels(MAC, mesh, dual, grid, config, fluxes,
                        lambda vn: _mac_dt_bound(vn, mesh, dual))


def _mac_dt_bound(vn, mesh, dual) -> float:
    """The largest stable dt (at CFL 1) of the MAC face velocities vn; inf
    when no face has outflow."""
    outflow = (mesh.cell_face_measures * np.maximum(
        vn[mesh.cell_faces] * dual.cell_face_delta, 0.0)).sum(axis=1)
    with np.errstate(divide="ignore"):
        return float(np.min(np.where(outflow > 0,
                                     mesh.cell_volumes / outflow, np.inf)))


def mass_mac_dt(mesh, dual, config: SchemeConfig) -> float:
    """The step bound cfl dt_0 of ``mass_mac_levels``, which takes T over
    it steps, rounded up: dt_0 is the largest stable dt of v at t = 0, or T
    when v has no outflow."""
    if config.velocity is None:
        raise ValueError("run_mass_mac needs a closed-form velocity")
    bound = _mac_dt_bound(MAC.velocity_at(config.velocity, mesh, dual, 0.0),
                          mesh, dual)
    if not np.isfinite(bound):
        bound = config.T
    return config.cfl * bound


def run_mass_mac(mesh, dual, config: SchemeConfig):
    """``mass_mac_levels`` marched whole: (q, v, grid, ledger)."""
    source = mass_mac_levels(mesh, dual, config)
    q, v = source.collect()
    return q, v, source.grid, source.ledger


def sample_manufactured(q_exact, v_exact, layout: str, mesh, dual, grid,
                        order: int = DEFAULT_ORDER):
    """Closed forms sampled whole (``ManufacturedLevels``): q by cell
    means at t_n, v by what the layout's faces store at their midpoints;
    the colocated 1D layout needs no velocity field (v_exact may be None).
    """
    return ManufacturedLevels(q_exact, v_exact, get_layout(layout), mesh,
                              dual, grid, order).collect()
