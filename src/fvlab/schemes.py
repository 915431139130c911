"""Discrete solution generators: manufactured sampling of smooth fields,
explicit first-order upwind transport in 1D, and the 2D MAC mass update
with a prescribed velocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import CellScalarField, sample_cell_means
from .geometry import TimeGrid, build_time_grid, sum_opposite_first
from .layouts import MAC, get_layout
from .quadrature import DEFAULT_ORDER, CellQuadrature

__all__ = ["SchemeConfig", "MassLedger", "run_upwind_1d", "run_mass_mac",
           "sample_manufactured", "write_run_metadata_csv", "CFLError"]


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


def write_run_metadata_csv(path, ledger: MassLedger, grid: TimeGrid,
                           cfl: float):
    """Run metadata: CFL, step count and the per-step mass ledger, as CSV."""
    lines = [f"# cfl,{float(cfl):.17g}",
             f"# steps,{grid.n_steps}",
             "step,t,mass,boundary_flux,defect"]
    for n in range(grid.n_steps):
        lines.append(f"{n},{grid.knots[n]:.17g},{ledger.mass[n]:.17g},"
                     f"{ledger.boundary_flux[n]:.17g},{ledger.defect[n]:.17g}")
    lines.append(f"{grid.n_steps},{grid.knots[-1]:.17g},"
                 f"{ledger.mass[-1]:.17g},,")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _uniform_grid_for(T: float, dt_bound: float) -> TimeGrid:
    n = max(1, int(np.ceil(T / dt_bound - 1e-12)))
    return build_time_grid(T, n)


def run_upwind_1d(mesh, config: SchemeConfig):
    """Explicit upwind transport q_t + q_x = 0 at the configured CFL.

    Returns (field, grid, ledger).  The time step satisfies
    dt <= cfl * min h_P; under that bound the update is a convex combination
    so the max principle holds (inflow value 0 under the default policy).
    """
    if mesh.dim != 1:
        raise ValueError("run_upwind_1d needs a 1D mesh")
    h = mesh.cell_volumes
    grid = _uniform_grid_for(config.T, config.cfl * float(h.min()))
    dt = float(grid.steps[0])
    if dt > config.cfl * float(h.min()) * (1.0 + 1e-12):
        raise CFLError(f"dt={dt} violates CFL bound {config.cfl * h.min()}")
    order = np.argsort(mesh.cell_centroids[:, 0])
    n_steps = grid.n_steps
    values = np.empty((n_steps + 1, mesh.n_cells))
    quad = CellQuadrature(mesh, config.quad_order)
    values[0] = quad.cell_means(quad.values(config.q0))
    mass = np.empty(n_steps + 1)
    boundary = np.empty(n_steps)
    defect = np.empty(n_steps)
    mass[0] = float(np.dot(h, values[0]))
    periodic = config.boundary_policy == "periodic"
    for n in range(n_steps):
        q = values[n][order]
        if periodic:
            left = np.roll(q, 1)
        else:
            left = np.concatenate([[0.0], q[:-1]])
        hq = h[order]
        upd = q - (dt / hq) * (q - left)
        values[n + 1][order] = upd
        mass[n + 1] = float(np.dot(h, values[n + 1]))
        # inflow minus outflow through the boundary faces
        out = 0.0 if periodic else dt * (q[-1] - left[0])
        boundary[n] = out
        defect[n] = abs(mass[n + 1] - mass[n] + out)
    return (CellScalarField(mesh, grid, values), grid,
            MassLedger(mass=mass, boundary_flux=boundary, defect=defect))


def run_mass_mac(mesh, dual, config: SchemeConfig):
    """Explicit upwind mass update on a MAC grid with prescribed velocity.

    q_P^{n+1} = q_P^n - (dt/|P|) sum |zeta| q_zeta^up v_zeta^n delta_{P,zeta};
    total mass changes only through boundary faces (checked per step).
    """
    if config.velocity is None:
        raise ValueError("run_mass_mac needs a closed-form velocity")
    if config.boundary_policy not in MAC.boundary_policies:
        raise ValueError(f"policy {config.boundary_policy!r} not supported on MAC")
    vols = mesh.cell_volumes
    areas = mesh.face_measures[mesh.cell_faces]
    delta = dual.cell_face_delta

    def dt_bound(vn):
        """Largest stable dt for face velocities vn (at CFL 1)."""
        outflow = (areas * np.maximum(vn[mesh.cell_faces] * delta, 0.0)).sum(axis=1)
        with np.errstate(divide="ignore"):
            return float(np.min(np.where(outflow > 0, vols / outflow, np.inf)))

    bound = dt_bound(MAC.face_components(
        config.velocity(mesh.face_midpoints, 0.0), mesh, dual))
    if not np.isfinite(bound):
        bound = config.T
    grid = _uniform_grid_for(config.T, config.cfl * bound)
    dt = float(grid.steps[0])
    n_steps = grid.n_steps
    values = np.empty((n_steps + 1, mesh.n_cells))
    quad = CellQuadrature(mesh, config.quad_order)
    values[0] = quad.cell_means(quad.values(config.q0))
    v = MAC.sample_velocity(config.velocity, mesh, dual, grid)
    cf = mesh.cell_faces
    fc = mesh.face_cells
    interior = mesh.interior_face_mask
    mass = np.empty(n_steps + 1)
    boundary = np.empty(n_steps)
    defect = np.empty(n_steps)
    mass[0] = float(np.dot(vols, values[0]))
    first = fc[:, 0]
    second = fc[:, 1]
    dfirst = dual.face_delta_first
    for n in range(n_steps):
        vn = v.values[n]
        if dt > config.cfl * dt_bound(vn) * (1.0 + 1e-12):
            raise CFLError(f"CFL violated at step {n}")
        q = values[n]
        # upwind face value seen from the first adjacent cell
        sig = vn * dfirst
        qp = q[first]
        qq = np.where(second >= 0, q[np.maximum(second, 0)], 0.0)
        if config.boundary_policy == "zero_flux":
            qq = np.where(second >= 0, qq, qp)  # value irrelevant, flux zeroed
        qface = np.where(sig > 0.0, qp, np.where(sig < 0.0, qq, 0.5 * (qp + qq)))
        fluxes = mesh.face_measures * qface * vn
        if config.boundary_policy == "zero_flux":
            fluxes[~interior] = 0.0
        div = sum_opposite_first(fluxes[cf] * delta, axis=1)
        values[n + 1] = q - (dt / vols) * div
        mass[n + 1] = float(np.dot(vols, values[n + 1]))
        bnd = dt * float((fluxes[~interior] * dfirst[~interior]).sum())
        boundary[n] = bnd
        defect[n] = abs(mass[n + 1] - mass[n] + bnd)
    return (CellScalarField(mesh, grid, values), v, grid,
            MassLedger(mass=mass, boundary_flux=boundary, defect=defect))


def sample_manufactured(q_exact, v_exact, layout: str, mesh, dual, grid,
                        order: int = DEFAULT_ORDER, check: bool = False):
    """Sample closed forms: q by cell means at t_n, v at face midpoints.

    The layout decides what a face stores (``Layout.sample_velocity``); the
    colocated 1D layout needs no velocity field (v_exact may be None).
    """
    rules = get_layout(layout)
    q = sample_cell_means(q_exact, mesh, grid, order=order, check=check)
    return q, rules.sample_velocity(v_exact, mesh, dual, grid)
