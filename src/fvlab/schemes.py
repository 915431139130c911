"""Discrete solution generators: manufactured sampling of smooth fields,
explicit first-order upwind transport in 1D, and the 2D MAC mass update
with a prescribed velocity.

Both schemes step with the convection operator's own flux rules
(``operators.upwind_1d_flux_rule``; ``staggered_flux_rule`` with the
identity pair and upwind faces) and ``operators.divergence``, in one
march, so C(U) of a scheme field assembled with the same flux vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import CellScalarField, sample_cell_means
from .geometry import TimeGrid, build_time_grid
from .layouts import COLOCATED_1D, MAC, get_layout, layout_of
from .operators import (divergence, get_pair, staggered_flux_rule,
                        upwind_1d_flux_rule)
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


def _march(mesh, grid, config: SchemeConfig, v, fluxes):
    """The levels q^0..q^N and their mass ledger of the explicit update
    q^{n+1} = q^n - (dt/|P|) sum_zeta |zeta| F^n . n_{P,zeta}.

    q^0 is the cell means of ``config.q0``, F^n = fluxes(q^n, v^n) of one
    level (an ``operators`` flux rule, v None in 1D) and the sum is
    ``operators.divergence``.  The ledger's boundary flux is
    dt sum |zeta| F^n . n over the boundary faces, n seen from each face's
    first cell.
    """
    layout = COLOCATED_1D if v is None else layout_of(v)
    dual = None if v is None else v.dual
    dt = float(grid.steps[0])
    vols = mesh.cell_volumes
    rates = dt / vols
    bfaces, bweights = layout.boundary_weights(mesh, dual)
    values = np.empty((grid.n_steps + 1, mesh.n_cells))
    quad = CellQuadrature(mesh, config.quad_order)
    values[0] = quad.cell_means(quad.values(config.q0))
    mass = np.empty(grid.n_steps + 1)
    boundary = np.empty(grid.n_steps)
    mass[0] = float(np.dot(vols, values[0]))
    for n in range(grid.n_steps):
        level = slice(n, n + 1)
        flux = fluxes(values[level], None if v is None else v.values[level])
        div = divergence(layout.cell_normal(flux, mesh, dual), mesh)[0]
        np.subtract(values[n], rates * div, out=values[n + 1])
        mass[n + 1] = float(np.dot(vols, values[n + 1]))
        boundary[n] = dt * float((flux[0, bfaces] * bweights).sum())
    return (CellScalarField(mesh, grid, values),
            MassLedger(mass=mass, boundary_flux=boundary,
                       defect=np.abs(np.diff(mass) + boundary)))


def run_upwind_1d(mesh, config: SchemeConfig):
    """Explicit upwind transport q_t + q_x = 0 at the configured CFL.

    Returns (field, grid, ledger).  The time step satisfies
    dt <= cfl * min h_P; under that bound the update is a convex combination
    so the max principle holds (inflow value 0 under the default policy).
    """
    if mesh.dim != 1:
        raise ValueError("run_upwind_1d needs a 1D mesh")
    fluxes = upwind_1d_flux_rule(mesh, config.boundary_policy)
    h = mesh.cell_volumes
    grid = _uniform_grid_for(config.T, config.cfl * float(h.min()))
    dt = float(grid.steps[0])
    if dt > config.cfl * float(h.min()) * (1.0 + 1e-12):
        raise CFLError(f"dt={dt} violates CFL bound {config.cfl * h.min()}")
    q, ledger = _march(mesh, grid, config, None, fluxes)
    return q, grid, ledger


def run_mass_mac(mesh, dual, config: SchemeConfig):
    """Explicit upwind mass update on a MAC grid with prescribed velocity.

    q_P^{n+1} = q_P^n - (dt/|P|) sum |zeta| q_zeta^up v_zeta^n delta_{P,zeta};
    total mass changes only through boundary faces (checked per step).
    """
    if config.velocity is None:
        raise ValueError("run_mass_mac needs a closed-form velocity")
    vols = mesh.cell_volumes
    areas = mesh.cell_face_measures
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
    v = MAC.sample_velocity(config.velocity, mesh, dual, grid)
    fluxes = staggered_flux_rule(mesh, v, get_pair("id"),
                                 policy=config.boundary_policy)
    for n in range(grid.n_steps):
        if dt > config.cfl * dt_bound(v.values[n]) * (1.0 + 1e-12):
            raise CFLError(f"CFL violated at step {n}")
    q, ledger = _march(mesh, grid, config, v, fluxes)
    return q, v, grid, ledger


def sample_manufactured(q_exact, v_exact, layout: str, mesh, dual, grid,
                        order: int = DEFAULT_ORDER, check: bool = False):
    """Sample closed forms: q by cell means at t_n, v at face midpoints.

    The layout decides what a face stores (``Layout.sample_velocity``); the
    colocated 1D layout needs no velocity field (v_exact may be None).
    """
    rules = get_layout(layout)
    q = sample_cell_means(q_exact, mesh, grid, order=order, check=check)
    return q, rules.sample_velocity(v_exact, mesh, dual, grid)
