"""Discrete convection operator: time derivative of the beta family,
face values, numerical fluxes (staggered RT/MAC and colocated 1D upwind)
and the conservative assembly C(U)_P^n.

Per-cell flux sums pair opposite faces first, so constant states cancel
bitwise on rectangular meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import CellScalarField, CellSlabField, _same_level
from .geometry import sum_opposite_first
from .layouts import COLOCATED_1D, Layout
from .quadrature import step_values

__all__ = [
    "NonlinearityPair", "get_pair", "BetaFamily", "FluxFamily",
    "dt_beta", "flux_rule", "flux_staggered", "flux_colocated_upwind_1d",
    "assemble_convection", "flux_divergence", "flux_dot_n",
    "telescoping_defect", "FACE_SCHEMES", "PAIRS",
]

FACE_SCHEMES = ("centered", "upwind")


@dataclass(frozen=True)
class NonlinearityPair:
    """Locally Lipschitz beta and g; g is also the colocated flux f."""

    name: str
    beta: Callable
    g: Callable

    def lipschitz(self, lo: float, hi: float):
        """Diagnostic Lipschitz moduli (C_beta, C_g) on [lo, hi] by the
        difference quotients of 4001 samples; never used in the schemes."""
        if hi <= lo:
            hi = lo + 1.0
        s = np.linspace(lo, hi, 4001)
        def modulus(fn):
            v = np.asarray(fn(s), dtype=float)
            return float(np.abs(np.diff(v) / np.diff(s)).max())
        return modulus(self.beta), modulus(self.g)


def _slogs(s):
    # s*log(s) for s >= smin, extended linearly below (clipped entropy)
    smin = 1e-6
    s = np.asarray(s, dtype=float)
    safe = np.maximum(s, smin)
    out = safe * np.log(safe)
    slope = np.log(smin) + 1.0
    return np.where(s >= smin, out, smin * np.log(smin) + slope * (s - smin))


PAIRS = {
    "id": NonlinearityPair("id", lambda s: np.asarray(s, dtype=float),
                           lambda s: np.asarray(s, dtype=float)),
    "square": NonlinearityPair("square", lambda s: np.square(s),
                               lambda s: np.square(s)),
    "slogs": NonlinearityPair("slogs", _slogs, _slogs),
}


def get_pair(beta_name: str, g_name: str | None = None) -> NonlinearityPair:
    """Look up beta/g from the registry (id, square, slogs)."""
    g_name = beta_name if g_name is None else g_name
    for name in (beta_name, g_name):
        if name not in PAIRS:
            raise KeyError(f"unknown nonlinearity {name!r}; "
                           f"choose from {sorted(PAIRS)}")
    if g_name == beta_name:
        return PAIRS[beta_name]
    b, g = PAIRS[beta_name], PAIRS[g_name]
    return NonlinearityPair(f"{beta_name}/{g_name}", b.beta, g.g)


class BetaFamily(CellScalarField):
    """beta_P^n = beta(q_P^n), levels 0..N."""

    @classmethod
    def from_field(cls, q, pair: NonlinearityPair):
        return cls(q.mesh, q.grid, pair.beta(q.values))


@dataclass
class FluxFamily:
    """One flux per face and time step (n = 0..N-1), single-valued, hence
    conservative by construction.

    ``layout`` is the ``layouts.Layout`` whose rules form F.n and its
    sizes (that of the face velocity for the staggered fluxes), and
    ``dual`` the level's dual mesh (None in 1D).  values: RT ``(N, NF, 2)``
    vectors; MAC ``(N, NF)`` components along the face family axis;
    colocated 1D ``(N, NF)`` x-components.  Boundary faces are filled by
    the boundary policy of the flux rule that formed them.
    """

    layout: Layout
    mesh: object
    grid: object
    values: np.ndarray
    dual: object = None

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)


def dt_beta(betas: BetaFamily, grid) -> np.ndarray:
    """(beta_P^{n+1} - beta_P^n)/(t_{n+1} - t_n), shape (N, NC)."""
    return time_derivative(betas.values, grid.steps)


def time_derivative(levels, steps) -> np.ndarray:
    """(u^{n+1} - u^n)/dt_n per step of the levels n..n+1 of some steps,
    shape (steps, ...)."""
    return np.diff(levels, axis=0) / steps[:, None]


def _convex_value(qp, qq, scheme, lam, signal):
    """Face value between the first cell's qp and the second cell's qq."""
    if scheme == "centered":
        return lam * qp + (1.0 - lam) * qq
    if scheme == "upwind":
        return np.where(signal > 0.0, qp,
                        np.where(signal < 0.0, qq, 0.5 * qp + 0.5 * qq))
    raise ValueError(f"unknown face scheme {scheme!r}")


def check_lambda(lam: float):
    """The weight lam of the centered face value must lie in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")


def staggered_flux_rule(mesh, layout, dual, pair: NonlinearityPair,
                        scheme: str = "upwind", lam: float = 0.5,
                        policy: str = "upwind_zero"):
    """The face fluxes F_zeta^n = g(q_zeta^n) v_zeta^n of the staggered
    ``layout`` (RT or MAC, with its ``dual`` of `mesh`) as a function
    ``fluxes(qv, vv)`` of the q levels (steps, NC) and the v levels of the
    same steps, returning (steps, NF) or (steps, NF, 2); the arguments are
    checked once, here.

    Boundary faces take the policy: ``upwind_zero`` (exterior value 0),
    ``zero_flux``, or (1D only) ``periodic``.
    """
    if policy not in layout.boundary_policies:
        raise ValueError(f"policy {policy!r} not supported for staggered layouts")
    check_lambda(lam)
    ifaces = np.nonzero(mesh.interior_face_mask)[0]
    bfaces = np.nonzero(mesh.boundary_face_mask)[0]

    def fluxes(qv, vv):
        def g_times_v(qf, faces):
            g = pair.g(qf)
            return g.reshape(g.shape + (1,) * (vv.ndim - 2)) * vv[:, faces]

        qp = qv[:, mesh.face_cells[ifaces, 0]]
        qq = qv[:, mesh.face_cells[ifaces, 1]]
        qf = _convex_value(qp, qq, scheme, lam,
                           layout.face_normal(vv, ifaces, mesh, dual))
        values = np.zeros(vv.shape)
        values[:, ifaces] = g_times_v(qf, ifaces)
        # boundary faces: exterior state 0 (upwind) or hard zero flux
        if policy == "upwind_zero" and bfaces.size:
            sig_b = layout.face_normal(vv, bfaces, mesh, dual)
            qp = qv[:, mesh.face_cells[bfaces, 0]]
            qb = np.where(sig_b > 0.0, qp, np.where(sig_b < 0.0, 0.0, 0.5 * qp))
            values[:, bfaces] = g_times_v(qb, bfaces)
        return values

    return fluxes


def flux_staggered(q, v, pair: NonlinearityPair, scheme: str = "upwind",
                   lam: float = 0.5, policy: str = "upwind_zero") -> FluxFamily:
    """F_zeta^n = g(q_zeta^n) v_zeta^n for the RT or MAC layout at every
    step (``staggered_flux_rule``)."""
    if v.mesh is not q.mesh:
        raise ValueError("q and v live on different meshes")
    fluxes = staggered_flux_rule(q.mesh, v.layout, v.dual, pair, scheme,
                                 lam, policy)
    steps = slice(0, q.grid.n_steps)
    return FluxFamily(layout=v.layout, mesh=q.mesh, grid=q.grid,
                      values=fluxes(q.values[steps], v.values[steps]),
                      dual=v.dual)


def upwind_1d_flux_rule(mesh, policy: str = "upwind_zero"):
    """The first-order upwind flux for C(u) = d_t u + d_x u on a 1D mesh as
    a function ``fluxes(qv, vv=None)`` of the u levels (steps, NC),
    returning (steps, NF); the speed is +1, so there are no v levels.

    The flux at the face between P^- (left) and P is u of the upstream cell.
    """
    if mesh.dim != 1:
        raise ValueError("colocated upwind flux needs a 1D mesh")
    if policy not in COLOCATED_1D.boundary_policies:
        raise ValueError(f"unknown boundary policy {policy!r}")
    # the upstream cell of each face: the cell whose right face it is.  The
    # inflow face takes the rightmost cell's value if the interval is
    # periodic and the exterior value 0 otherwise; zero_flux closes the
    # outflow face too
    upstream = np.full(mesh.n_faces, -1, dtype=np.intp)
    upstream[mesh.cell_faces[:, 1]] = np.arange(mesh.n_cells)
    inflow = upstream < 0
    upstream[inflow] = np.argmax(mesh.cell_centroids[:, 0])
    zero = inflow & (policy != "periodic")
    if policy == "zero_flux":
        zero |= mesh.boundary_face_mask
    zero = np.flatnonzero(zero)

    def fluxes(qv, vv=None):
        values = qv.take(upstream, axis=1)
        values[:, zero] = 0.0
        return values

    return fluxes


def flux_rule(mesh, layout, dual, pair: NonlinearityPair, scheme: str,
              lam: float, policy: str):
    """The flux rule ``fluxes(qv, vv)`` of ``layout`` on `mesh` (and its
    ``dual``): ``staggered_flux_rule`` on RT and MAC, and on colocated 1D
    ``upwind_1d_flux_rule``, whose speed is 1 and whose flux is u of the
    upstream cell, for any pair, face scheme and lam."""
    if layout.staggered:
        return staggered_flux_rule(mesh, layout, dual, pair, scheme, lam,
                                   policy)
    return upwind_1d_flux_rule(mesh, policy)


def flux_colocated_upwind_1d(u, policy: str = "upwind_zero") -> FluxFamily:
    """The first-order upwind flux (``upwind_1d_flux_rule``) at every
    step."""
    fluxes = upwind_1d_flux_rule(u.mesh, policy)
    return FluxFamily(layout=COLOCATED_1D, mesh=u.mesh, grid=u.grid,
                      values=fluxes(u.values[:u.grid.n_steps]))


def flux_dot_n(flux: FluxFamily) -> np.ndarray:
    """F_zeta^n . n_{P,zeta} per (step, cell, local face), shape (N, NC, nf)."""
    return flux.layout.cell_normal(flux.values, flux.mesh, flux.dual)


def flux_divergence(flux: FluxFamily) -> np.ndarray:
    """sum_zeta |zeta| F . n per (step, cell); opposite faces paired first."""
    return divergence(flux_dot_n(flux), flux.mesh)


def divergence(dots, mesh) -> np.ndarray:
    """sum_zeta |zeta| F . n per (step, cell) of F . n per (step, cell,
    local face); opposite faces paired first."""
    return sum_opposite_first(mesh.cell_face_measures[None, :, :] * dots,
                              axis=2)


def check_finite_flux(values, mesh, first_step: int = 0):
    """Raise on the first non-finite face flux, in (step, face) order, of
    the flux values of the steps from ``first_step`` on."""
    if np.any(~np.isfinite(values)):
        idx = np.argwhere(~np.isfinite(values.reshape(values.shape[0],
                                                      mesh.n_faces, -1)))
        raise ValueError(f"missing flux on face {int(idx[0][1])} at step "
                         f"{first_step + int(idx[0][0])}")


def convection(dtb, div, mesh) -> np.ndarray:
    """C(U)_P^n = (d_t beta)_P^n + (1/|P|) sum |zeta| F_zeta^n . n_{P,zeta}
    per (step, cell) of some steps."""
    return dtb + div / mesh.cell_volumes[None, :]


def assemble_convection(betas: BetaFamily, flux: FluxFamily) -> CellSlabField:
    """C(U) (``convection``) per slab on the level that ``betas`` and
    ``flux`` share."""
    _same_level("assemble_convection", betas, flux)
    check_finite_flux(flux.values, flux.mesh)
    return CellSlabField(betas.mesh, betas.grid,
                         convection(dt_beta(betas, betas.grid),
                                    flux_divergence(flux), flux.mesh))


def telescoping_defect(flux: FluxFamily):
    """Interior-face conservativity check per step.

    Returns (defect, scale): |sum_P sum_zeta |zeta| F.n - boundary-only sum|
    and the absolute flux mass sum_faces |zeta| ||F||, both shape (N,).
    Each step's cell sum is a row sum of ``quadrature.step_values``.
    """
    mesh = flux.mesh
    total = step_values(flux_divergence(flux))
    bfaces = np.nonzero(mesh.boundary_face_mask)[0]
    layout = flux.layout
    bnd = layout.face_normal(flux.values, bfaces, mesh, flux.dual)
    mags = layout.magnitude(flux.values)
    boundary_sum = (mesh.face_measures[bfaces][None, :] * bnd).sum(axis=1)
    scale = (mesh.face_measures[None, :] * mags).sum(axis=1)
    return np.abs(total - boundary_sum), scale
