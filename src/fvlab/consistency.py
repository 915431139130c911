"""Consistency quantities of the weak Lax-Wendroff machinery: the X1/X2
decomposition of the operator/test-function pairing, the initialization,
time and flux residuals, the staggered jump sums R1/R2, and the weak-form
limit gap.

Flux residuals are evaluated exactly: the integrands are piecewise constant
on half-duals (four diamond pieces per cell for RT, two half-rectangles per
direction for MAC, one piece for colocated 1D), so every integral reduces to
a finite weighted sum.  Term tables keep a documented (step, cell, face,
piece) layout so a brute-force enumeration with the same summation order
reproduces the results bit for bit.

Every space-time sum behind a report column is ``quadrature.step_sum`` of
its terms, formed one chunk of time steps at a time
(``quadrature.chunk_slices``) by the same operations in any chunk.  The
flux-defect table (F_zeta^n - f(U)|_piece) . n_{P,zeta} of the X2 remainder
and the flux residual is thus never held whole.

Stages read mesh, grid, layout and dual from their fields: ``.mesh`` and
``.grid`` of every field and interpolate, ``.layout`` and ``.dual`` of a
``FluxFamily``, ``.dual`` of a face velocity.  ``residual_flux`` (with its
``residual_flux_terms``) is the one exception: ``bench/tracing.py`` reads
mesh, grid and layout from its positional arguments to size the table.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .fields import (InterpolatedTest, SupportError, _reference_at,
                     _same_level, _support_table)
from .layouts import get_layout, layout_of
from .operators import BetaFamily, FluxFamily, dt_beta, flux_divergence, flux_dot_n
from .quadrature import (DEFAULT_ORDER, ORACLE_ORDER, BoxQuadrature,
                         CellQuadrature, chunk_slices, slab_time_integrals,
                         step_sum, tensor_points)

__all__ = [
    "compute_X1", "compute_X2", "residual_init", "residual_time",
    "residual_flux", "residual_flux_terms", "jump_sums", "weak_lhs",
    "weak_rhs", "weak_form_gap", "measured_constant", "RouteMismatchError",
]


class RouteMismatchError(AssertionError):
    """Two algebraically equal evaluation routes disagreed numerically."""


def _check_routes(what: str, a: float, b: float, scale: float, rtol: float):
    """The dual-route contract: |a - b| <= rtol * scale, where the scale is
    the absolute term mass of the two routes."""
    if abs(a - b) > rtol * max(scale, 1e-300):
        raise RouteMismatchError(f"{what} routes disagree: {a!r} vs {b!r} "
                                 f"(scale {scale!r})")


# ----------------------------------------------------------------------
# X1: time-derivative pairing

class X1Result(NamedTuple):
    value: float                # direct sum
    by_parts: float             # discrete summation-by-parts route


def compute_X1(betas: BetaFamily, interp: InterpolatedTest,
               rtol: float = 1e-12) -> X1Result:
    """X1 = sum_n dt_n sum_P |P| (d_t beta)_P^n phi_P^n, plus the
    summation-by-parts route; the two must agree to `rtol`.

    Note the |P| weight: the pairing is the integral of the piecewise
    constant (d_t beta) against the interpolate, so each cell enters with
    its measure.
    """
    _same_level("compute_X1", betas, interp)
    vols, steps = betas.mesh.cell_volumes, betas.grid.steps
    dtb = dt_beta(betas, betas.grid)
    direct, direct_mass = step_sum(
        (steps[ch, None] * (dtb[ch] * interp.cells(ch)) * vols
         for ch in chunk_slices(steps.size, vols.size)), mass=True)
    # by parts: -sum |P| beta^0 phi^0 - sum_{n>=1} |P| beta^n (phi^n - phi^{n-1})
    # with phi^n - phi^{n-1} formed as (tf_n - tf_{n-1}) <B>_P
    phi0 = interp.cells(0)
    bnd = float(np.einsum("c,c->", vols, betas.values[0] * phi0))
    dphi = np.diff(interp.tf)[:, None] * interp.cell_table
    series = float(np.einsum("nc,c->", betas.values[1:] * dphi, vols))
    by_parts = -bnd - series
    # relative scale includes both routes' absolute term masses, so exact
    # zeros on one route compare against the other's cancellation scale
    scale = max(abs(direct), abs(by_parts), direct_mass,
                float(np.einsum("c,c->", vols, np.abs(betas.values[0] * phi0)))
                + float(np.einsum("nc,c->", np.abs(betas.values[1:] * dphi), vols)))
    _check_routes("X1", direct, by_parts, scale, rtol)
    return X1Result(direct, by_parts)


# ----------------------------------------------------------------------
# piecewise-constant flux function f(U)

def _flux_defects(fdotn, q, v, pair, mesh, layout, dual):
    """Per chunk of time steps, the slice of steps and the table
    (F_zeta^n - f(U)|_piece) . n_{P,zeta} on the interior cells (ascending
    id) of those steps, shape (steps, NI, nf, pieces) in C order; ``fdotn``
    is F.n per (step, cell, local face).  The X2 remainder and the flux
    residual weigh it, each in its own product order."""
    nf = mesh.cell_faces.shape[1]
    cells = np.nonzero(mesh.interior_cell_mask)[0]
    for steps in chunk_slices(fdotn.shape[0],
                              mesh.n_cells * nf * layout.pieces):
        piece = layout.flux_pieces(q.values[steps],
                                   None if v is None else v.values[steps],
                                   pair, mesh, dual)
        yield steps, (np.take(fdotn[steps], cells, axis=1)[:, :, :, None]
                      - np.take(piece, cells, axis=1))


# ----------------------------------------------------------------------
# X2: flux pairing, direct and gradient/remainder routes

class X2Result(NamedTuple):
    value: float                # direct face sum
    gradient_route: float       # -int f(U).grad_phi + remainder
    gradient_term: float
    remainder: float


def compute_X2(flux: FluxFamily, interp: InterpolatedTest, q=None, v=None,
               pair=None, rtol: float = 1e-10):
    """X2 = sum_n dt_n sum_P sum_zeta |zeta| F_zeta^n.n_{P,zeta} phi_P^n.

    When the discrete fields are supplied the gradient/remainder route is
    evaluated as well and the two must agree to `rtol` (relative to the
    absolute term mass).  Requires phi to vanish on all non-interior cells
    and their faces at the current resolution.
    """
    _same_level("compute_X2", flux, interp, q, v)
    if not interp.interior_support_clear():
        raise SupportError(
            "test-function support reaches non-interior cells at this resolution")
    mesh, steps = flux.mesh, flux.grid.steps
    div = flux_divergence(flux)
    direct, direct_mass = step_sum(
        (steps[ch, None] * (div[ch] * interp.cells(ch))
         for ch in chunk_slices(steps.size, mesh.n_cells)), mass=True)
    del div
    if q is None:
        return X2Result(direct, np.nan, np.nan, np.nan)
    layout = get_layout(flux.layout)
    cells = np.nonzero(mesh.interior_cell_mask)[0]
    vols = mesh.cell_volumes[cells]

    def gradient_terms(ch):
        # -dt_n |P| f(U)_P^n . G_P^n, the cell mean of f(U) dotted first
        mean_f = layout.flux_cell_means(
            q.values[ch], None if v is None else v.values[ch], pair,
            mesh)[:, cells]
        grad = interp.tf[ch, None, None] * interp.grad_table[cells]
        return -(steps[ch, None] * np.einsum("ncd,ncd->nc", mean_f, grad)
                 * vols)

    grad_term, grad_mass = step_sum(map(gradient_terms, chunk_slices(
        steps.size, mesh.n_cells * mesh.dim)), mass=True)
    # remainder: sum_n dt_n sum_P sum_zeta sum_piece
    # (|D_piece|/|P|) |zeta| (F.n - f(U)|_piece.n) (phi_P - phi_zeta)
    cell_faces = mesh.cell_faces[cells]
    coef = ((layout.piece_measures(mesh)[cells] / vols[:, None, None])
            * mesh.face_measures[cell_faces][:, :, None])

    def remainder_terms():
        for ch, defects in _flux_defects(flux_dot_n(flux), q, v, pair, mesh,
                                         layout, flux.dual):
            tf = interp.tf[ch, None, None]
            dphi = (tf * interp.cell_table[cells, None]
                    - tf * interp.face_table[cell_faces])
            yield (steps[ch, None, None, None]
                   * (coef[None] * (defects * dphi[:, :, :, None])))

    remainder, remainder_mass = step_sum(remainder_terms(), mass=True)
    gradient_route = grad_term + remainder
    scale = max(abs(direct), abs(gradient_route), direct_mass,
                grad_mass + remainder_mass)
    _check_routes("X2", direct, gradient_route, scale, rtol)
    return X2Result(direct, gradient_route, grad_term, remainder)


# ----------------------------------------------------------------------
# hypothesis residuals

class InitResidual(NamedTuple):
    signed: float               # sum_P int (beta_P^0 - beta(q0)) phi(.,0)
    cellwise: float             # sum_P |int ...| : per-cell absolute majorant
    l1_majorant: float          # C_beta ||phi(.,0)||_inf sum int |q0 - q_P^0|


def residual_init(betas: BetaFamily, q0, phi, pair,
                  order: int = ORACLE_ORDER) -> InitResidual:
    """Initialization-consistency residual over interior cells.

    Returns the signed sum, the per-cell absolute sum (a sharper majorant of
    the same quantity) and the Lipschitz L1 majorant.
    """
    mesh = betas.mesh
    quad = CellQuadrature(mesh, order)
    q0_x = quad.values(q0)
    phi_x0 = quad.values(phi.value, 0.0)
    phi0 = quad.cell_integrals(phi_x0)
    bq0 = quad.cell_integrals(pair.beta(q0_x) * phi_x0)
    per_cell = betas.values[0] * phi0 - bq0
    interior = mesh.interior_cell_mask
    signed = float(per_cell[interior].sum())
    cellwise = float(np.abs(per_cell[interior]).sum())
    q_sample = quad.cell_means(q0_x)
    devs = quad.cell_integrals(np.abs(q0_x - q_sample[:, None]))
    qmin = float(min(q_sample.min(), q0_x.min()))
    qmax = float(max(q_sample.max(), q0_x.max()))
    c_beta, _ = pair.lipschitz(qmin, qmax)
    l1 = c_beta * phi.sup_norm_initial() * float(devs[interior].sum())
    return InitResidual(signed, cellwise, l1)


class TimeResidual(NamedTuple):
    signed: float
    majorant: float             # C_beta ||phi||_inf sum dt sum |P| |q jumps|
    c_beta: float


def residual_time(betas: BetaFamily, q, phi, pair,
                  space_order: int = DEFAULT_ORDER,
                  time_order: int = DEFAULT_ORDER) -> TimeResidual:
    """Time-consistency residual for the explicit convention (the discrete
    function takes the level n-1 value on [t_{n-1}, t_n)).

    The integrand is piecewise constant per (cell, slab); only phi needs
    quadrature, factored as phi is: (Gauss rule of tf over the slab) * (cell
    rule of B over P, on the cells meeting its support).  The majorant
    carries the cell measure so that it is the time part of the translate
    functional.
    """
    _same_level("residual_time", betas, q)
    mesh, grid = betas.mesh, betas.grid
    cells = np.nonzero(mesh.interior_cell_mask)[0]
    space_int = _support_table(phi, CellQuadrature, mesh, space_order, 1,
                               CellQuadrature.cell_integrals)[cells]
    time_int = slab_time_integrals(grid.knots, phi._time_factor, time_order)
    chunks = chunk_slices(grid.n_steps, cells.size)

    def jumps(field, ch):
        """Level n+1 minus level n on the interior cells, per step n."""
        return np.diff(field.values[ch.start:ch.stop + 1][:, cells], axis=0)

    signed = step_sum(jumps(betas, ch) * (time_int[ch, None] * space_int)
                      for ch in chunks)
    c_beta, _ = pair.lipschitz(float(q.values.min()), float(q.values.max()))
    total = step_sum(grid.steps[ch, None] * np.abs(jumps(q, ch))
                     * mesh.cell_volumes[cells] for ch in chunks)
    return TimeResidual(signed, c_beta * phi.sup_norm() * total, c_beta)


def _flux_residual_chunks(flux, q, v, pair, mesh, grid, layout, dual):
    """The term table of the flux residual, one chunk of time steps at a
    time (see ``residual_flux_terms``)."""
    dual = dual if dual is not None else flux.dual
    rules = get_layout(layout)
    cells = np.nonzero(mesh.interior_cell_mask)[0]
    coef = (mesh.cell_diameters / mesh.cell_volumes)[cells]
    areas = mesh.face_measures[mesh.cell_faces[cells]]
    meas = rules.piece_measures(mesh)[cells]
    for steps, defects in _flux_defects(flux_dot_n(flux), q, v, pair, mesh,
                                        rules, dual):
        yield (grid.steps[steps, None, None, None]
               * coef[None, :, None, None]
               * areas[None, :, :, None]
               * meas[None, :, :, :]
               * np.abs(defects))


def residual_flux_terms(flux: FluxFamily, q, v, pair, mesh, grid,
                        layout: str, dual=None) -> np.ndarray:
    """Exact term table of the flux-consistency residual.

    terms[n, i, k, p] = dt_n * (diam/|P|)_i * |zeta|_{i,k} * |D_piece|
                        * |(F_zeta^n - f(U)|_piece) . n_{P,zeta}|
    over interior cells i (ascending cell id), local faces k and constancy
    pieces p, in C order; ``residual_flux`` is its ``step_sum``.  A scalar
    enumeration in the same layout reproduces the table bit for bit.
    """
    return np.concatenate(list(_flux_residual_chunks(
        flux, q, v, pair, mesh, grid, layout, dual)))


def residual_flux(flux: FluxFamily, q, v, pair, mesh, grid,
                  layout: str, dual=None) -> float:
    """Flux-consistency residual (exact finite sum over constancy pieces):
    the ``step_sum`` of ``residual_flux_terms``, built chunk by chunk."""
    return step_sum(_flux_residual_chunks(flux, q, v, pair, mesh, grid,
                                          layout, dual))


# ----------------------------------------------------------------------
# jump sums R1 / R2

class JumpSums(NamedTuple):
    r1: float
    r1_reordered: float
    r2: float
    rt_constant: int | None


def jump_sums(q, v, rtol: float = 1e-12) -> JumpSums:
    """Scalar jumps R1 (cell-sum and reordered face-sum forms, asserted
    equal) and staggered velocity jumps R2 across dual edges.

    The layout and dual are those of the face velocity v; with v None the
    layout is colocated 1D and R2 is 0.

    RT dual-edge weights are C*diam(P)^2 with the realized splitting
    constant C (adjacent pairs counted once directly plus at most twice via
    the fixed two-hop opposite-pair splits); MAC weights are
    diam(P)(|zeta| + |zeta'|).
    """
    _same_level("jump_sums", q, v)
    mesh, qv, steps = q.mesh, q.values, q.grid.steps
    fc = mesh.face_cells
    diam = mesh.cell_diameters
    cf = mesh.cell_faces
    # cell-sum form: every cell sees each of its interior faces once, the
    # other cell of a boundary face weighted by 0
    first, second = fc[cf][:, :, 0], fc[cf][:, :, 1]
    other = np.where(first == np.arange(mesh.n_cells)[:, None], second, first)
    w_ck = diam[:, None] * mesh.face_measures[cf] * (other >= 0)
    other = np.maximum(other, 0)
    # reordered face form with omega = (diam P + diam Q)|zeta|
    p, r = fc[mesh.interior_face_mask].T
    omega = (diam[p] + diam[r]) * mesh.face_measures[mesh.interior_face_mask]
    chunks = chunk_slices(steps.size, w_ck.size)
    r1 = step_sum(steps[ch, None, None] * np.abs(qv[ch, :, None]
                                                 - qv[ch][:, other]) * w_ck
                  for ch in chunks)
    r1_face = step_sum(steps[ch, None] * np.abs(qv[ch][:, p] - qv[ch][:, r])
                       * omega for ch in chunks)
    _check_routes("R1", r1, r1_face, max(abs(r1), abs(r1_face)), rtol)
    r2, const = (0.0, None) if v is None else layout_of(v).velocity_jumps(
        v.values, mesh, v.dual, steps)
    return JumpSums(r1, r1_face, r2, const)


def measured_constant(q, v, pair) -> float:
    """Measured product constant dominating R <= C (R1 + R2): the larger of
    C_g * sup|v| and sup|g(q)| over the discrete data."""
    _, c_g = pair.lipschitz(float(q.values.min()), float(q.values.max()))
    sup_v = 1.0 if v is None else v.sup_norm()
    sup_g = float(np.abs(pair.g(q.values)).max())
    return max(c_g * sup_v, sup_g)


# ----------------------------------------------------------------------
# weak-form gap

class WeakRhs(NamedTuple):
    total: float
    init_term: float
    volume_term: float
    volume_time: float = np.nan     # -int int beta(q) d_t phi
    volume_space: float = np.nan    # -int int g(q) v . grad phi
    check_delta: float = np.nan     # |volume - volume at order+2|; NaN unchecked


def weak_rhs(pair, q_exact, v_exact, q0, phi,
             order: int = ORACLE_ORDER, panels: int = 12,
             check: bool = True) -> WeakRhs:
    """Right-hand side of the weak form for a closed-form limit:
    -int beta(q0) phi(.,0) - int int (beta(q) d_t phi + g(q) v . grad phi).

    Both terms use mesh-independent panelised rules over the support box of
    phi (the limit object does not depend on the discretisation level; the
    integrands vanish outside the support).  The space-time box is a tensor
    grid of spatial nodes x time nodes, and each volume integrand is formed
    over chunks of its first spatial axis (``quadrature.chunk_slices``,
    about ``CHUNK_VALUES`` nodes a chunk), written into one vector of the
    box's nodes: the time term, then the space term.  On each chunk the
    limit fields are evaluated on the grid as such: a ``Reference`` q or v
    forms its x-only part once per spatial node and combines it with each
    time node (``Reference.on_grid``), while a plain closure is called once
    on every node.  phi, d_t phi and grad phi come from the bumps and the
    time factor on each axis's 1D nodes (``TestFunction.at_grid``), formed
    in the product order of ``TestFunction``, so they equal
    ``phi.value/dt/grad`` at the nodes bit for bit.  Every value goes
    through the same operations in any chunk, and each term is one flat
    weighted sum of the whole vector in the C order of the box nodes
    (``BoxQuadrature.integrate``), independent of the BLAS thread count.

    With ``check`` the volume term is integrated again at order+2; the
    difference is returned as ``check_delta`` and a warning is emitted
    when it exceeds 1e-7 (1 + |volume|).
    """
    dim = phi.dim
    space_box = BoxQuadrature(list(phi.support), panels, order)
    phi_x0 = phi.at_grid(space_box.grid_axes).value(0.0).ravel()
    init = -space_box.integrate(pair.beta(q0(space_box.points)) * phi_x0)
    bounds = list(phi.support) + [(0.0, phi.t_max)]

    def volume_integrals(box):
        """int beta(q) d_t phi and int g(q) v . grad phi over the box."""
        axes, t_axis = box.grid_axes[:dim], box.grid_axes[dim]
        times = t_axis.ravel()
        on_box = phi.at_grid(axes)

        def time_term(on_chunk, x, qb):
            return pair.beta(qb) * on_chunk.dt(t_axis).ravel()

        def space_term(on_chunk, x, qb):
            grad = on_chunk.grad(t_axis).reshape(-1, dim)
            if v_exact is None:
                return pair.flux(qb) * grad[:, 0]
            vv = np.asarray(_reference_at(v_exact, x, times),
                            dtype=float).reshape(-1, dim)
            return pair.g(qb) * np.einsum("nd,nd->n", vv, grad)

        # the nodes of one index of the first axis are consecutive in C order
        per_row = box.weights.size // axes[0].size
        vals = np.empty(box.weights.size)
        out = []
        for term in (time_term, space_term):
            for rows in chunk_slices(axes[0].size, per_row):
                x = tensor_points([axes[0][rows]] + axes[1:])
                qb = np.asarray(_reference_at(q_exact, x, times),
                                dtype=float).ravel()
                vals[rows.start * per_row:rows.stop * per_row] = term(
                    on_box.first_rows(rows), x, qb)
            out.append(box.integrate(vals))
        return out

    time_int, space_int = volume_integrals(BoxQuadrature(bounds, panels, order))
    vol_time, vol_space = -time_int, -space_int
    volume = vol_time + vol_space
    delta = np.nan
    if check:
        vol2 = -sum(volume_integrals(BoxQuadrature(bounds, panels, order + 2)))
        delta = abs(volume - vol2)
        if delta > 1e-7 * (1.0 + abs(volume)):
            warnings.warn(f"weak-form volume quadrature disagreement "
                          f"{delta:.3e}", stacklevel=2)
    return WeakRhs(init + volume, init, volume, vol_time, vol_space, delta)


def weak_lhs(c_field, interp: InterpolatedTest) -> float:
    """Exact pairing int int C(U) I(phi) of the piecewise constants; C(U)
    (``assemble_convection``) and the interpolate must share their level."""
    _same_level("weak_lhs", c_field, interp)
    steps, vols = interp.grid.steps, interp.mesh.cell_volumes
    return step_sum(steps[ch, None] * (c_field.values[ch] * interp.cells(ch))
                    * vols for ch in chunk_slices(steps.size, vols.size))


class WeakGap(NamedTuple):
    gap: float
    lhs: float
    rhs: float
    rhs_init: float
    rhs_volume: float


def weak_form_gap(c_field, interp, exact, pair, order: int = ORACLE_ORDER,
                  panels: int = 12, rhs: WeakRhs | None = None) -> WeakGap:
    """|LHS - RHS| of the weak-consistency statement.

    ``exact = (q_exact, v_exact, q0)`` gives the closed-form limit fields
    (v_exact None for the colocated 1D operator).  A precomputed ``rhs`` may
    be passed to avoid re-integrating the level-independent right-hand side.

    For fields a scheme produced (``field_source = scheme``) the gap is a
    floor, not a convergence measure: the scheme solves its own discrete
    equation, so C(U) vanishes up to rounding and the LHS is ~1e-19.  The
    gap is then |RHS|, the quadrature error of ``weak_rhs`` for a limit
    that solves the PDE (7.1e-9 at all six levels of the 1D upwind bench
    study), and its fitted rate is not a convergence rate.
    """
    q_exact, v_exact, q0 = exact
    lhs = weak_lhs(c_field, interp)
    if rhs is None:
        rhs = weak_rhs(pair, q_exact, v_exact, q0, interp.phi,
                       order=order, panels=panels)
    return WeakGap(abs(lhs - rhs.total), lhs, rhs.total, rhs.init_term,
                   rhs.volume_term)
