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

Every space-time sum behind a report column is added in one order: each
step's row of C-order terms is reduced by ``quadrature.step_values``, and
the step values are added left to right (``quadrature.add_steps``).  The
terms of each quantity are formed by one term function per chunk of time
steps (``quadrature.chunk_slices``), by the same operations in any chunk.

``level_pass`` computes every quantity of one level in a single walk over
chunks of its steps.  Per chunk it forms once the face fluxes of those
steps, beta on their knots n..n+1, F.n and its divergence, and the
flux-defect table (F_zeta^n - f(U)|_piece) . n_{P,zeta}, and hands them to
the term functions of C(U) and the weak LHS, X1, X2, the time and flux
residuals, R1/R2, the translate functional and the L1 distance; the
sup, min and max reductions ride along.  The step values go into
step-indexed arrays, added at the end, so its results equal those of the
whole-level functions (``compute_X1``, ``compute_X2``, ``residual_time``,
``residual_flux``, ``jump_sums``, ``weak_lhs``, ...), which are thin loops
over the same term functions, bit for bit, for any chunk size.  No table
over all steps of a level is formed.

Stages read mesh, grid, layout and dual from their fields: ``.mesh`` and
``.grid`` of every field and interpolate, ``.layout`` and ``.dual`` of a
``FluxFamily``, ``.dual`` of a face velocity.  ``residual_flux`` (with its
``residual_flux_terms``) is the one exception: ``bench/tracing.py`` reads
mesh, grid and layout from its positional arguments to size the table.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .fields import (InterpolatedTest, SupportError, _reference_at,
                     _same_level, _support_table, l1_steps,
                     translate_space_terms, translate_time_terms)
from .layouts import COLOCATED_1D, get_layout, layout_of
# dt_beta, flux_divergence and flux_dot_n are looked up here by name, so
# rebinding fvlab.consistency.<name> reaches the whole-level stages
from .operators import (BetaFamily, FluxFamily, check_finite_flux,
                        convection, divergence, dt_beta, flux_divergence,
                        flux_dot_n, time_derivative)
from .quadrature import (DEFAULT_ORDER, ORACLE_ORDER, BoxQuadrature,
                         CellQuadrature, add_steps, chunk_slices,
                         slab_time_integrals, step_sum, step_values,
                         tensor_points)

__all__ = [
    "compute_X1", "compute_X2", "residual_init", "residual_time",
    "residual_flux", "residual_flux_terms", "jump_sums", "weak_lhs",
    "weak_rhs", "weak_form_gap", "measured_constant", "level_pass",
    "LevelSums", "RouteMismatchError",
]


# relative tolerances of the X1, X2 and R1 route checks
X1_RTOL, X2_RTOL, R1_RTOL = 1e-12, 1e-10, 1e-12


class RouteMismatchError(AssertionError):
    """Two algebraically equal evaluation routes disagreed numerically."""


def _check_routes(what: str, a: float, b: float, scale: float, rtol: float):
    """The dual-route contract: |a - b| <= rtol * scale, where the scale is
    the absolute term mass of the two routes."""
    if abs(a - b) > rtol * max(scale, 1e-300):
        raise RouteMismatchError(f"{what} routes disagree: {a!r} vs {b!r} "
                                 f"(scale {scale!r})")


class _StepValues(dict):
    """The step values of named sums, appended chunk by chunk in step
    order; ``total`` adds one name's values left to right, and a name
    holding term masses too gives (sum, mass)."""

    def add(self, **chunk):
        for name, values in chunk.items():
            self.setdefault(name, []).append(values)

    def total(self, name):
        values = np.concatenate(self[name], axis=-1)
        if values.ndim == 1:
            return add_steps(values)
        return tuple(add_steps(row) for row in values)


def _paired(dt, values, phi):
    """dt_n * (values_P^n * phi_P^n) per (step, cell)."""
    return dt[:, None] * (values * phi)


# ----------------------------------------------------------------------
# X1: time-derivative pairing

class X1Result(NamedTuple):
    value: float                # direct sum
    by_parts: float             # discrete summation-by-parts route


def _x1_terms(dt, dtb, beta, phi, dtf, table, vols):
    """The step values and masses of X1's two routes on some steps: the
    direct terms dt_n |P| (d_t beta)_P^n phi_P^n and the by-parts series
    terms |P| beta_P^{n+1} (phi_P^{n+1} - phi_P^n), the difference formed
    as (tf_{n+1} - tf_n) <B>_P; beta on the knots n..n+1."""
    return dict(x1=step_values(_paired(dt, dtb, phi) * vols, mass=True),
                x1_series=step_values(beta[1:] * (dtf[:, None] * table)
                                      * vols, mass=True))


def _x1_result(sums, beta0, interp, vols) -> X1Result:
    """X1 from its step values, the by-parts route closed by the boundary
    term -sum |P| beta^0 phi^0; the two routes must agree to ``X1_RTOL``."""
    direct, direct_mass = sums.total("x1")
    series, series_mass = sums.total("x1_series")
    start = beta0 * interp.cells(0)
    by_parts = -float(np.einsum("c,c->", vols, start)) - series
    # relative scale includes both routes' absolute term masses, so exact
    # zeros on one route compare against the other's cancellation scale
    scale = max(abs(direct), abs(by_parts), direct_mass,
                float(np.einsum("c,c->", vols, np.abs(start))) + series_mass)
    _check_routes("X1", direct, by_parts, scale, X1_RTOL)
    return X1Result(direct, by_parts)


def compute_X1(betas: BetaFamily, interp: InterpolatedTest) -> X1Result:
    """X1 = sum_n dt_n sum_P |P| (d_t beta)_P^n phi_P^n, plus the
    summation-by-parts route; the two must agree to ``X1_RTOL``.

    Note the |P| weight: the pairing is the integral of the piecewise
    constant (d_t beta) against the interpolate, so each cell enters with
    its measure.
    """
    _same_level("compute_X1", betas, interp)
    vols, steps = betas.mesh.cell_volumes, betas.grid.steps
    dtb = dt_beta(betas, betas.grid)
    sums = _StepValues()
    for ch in chunk_slices(steps.size, vols.size):
        knots = slice(ch.start, ch.stop + 1)
        sums.add(**_x1_terms(steps[ch], dtb[ch], betas.values[knots],
                             interp.cells(ch), np.diff(interp.tf[knots]),
                             interp.cell_table, vols))
    return _x1_result(sums, betas.values[0], interp, vols)


# ----------------------------------------------------------------------
# X2 and the flux residual: F.n against piecewise-constant f(U)

class X2Result(NamedTuple):
    value: float                # direct face sum
    gradient_route: float       # -int f(U).grad_phi + remainder
    gradient_term: float
    remainder: float


class _FluxDefects:
    """The level constants of the terms that weigh the flux-defect table
    (F_zeta^n - f(U)|_piece) . n_{P,zeta} of the interior cells i
    (ascending id): the X2 gradient term and remainder, and the flux
    residual."""

    def __init__(self, mesh, layout, dual, pair):
        self.mesh, self.layout, self.dual, self.pair = mesh, layout, dual, pair
        self.cells = cells = np.nonzero(mesh.interior_cell_mask)[0]
        self.vols = mesh.cell_volumes[cells]
        self.cell_faces = mesh.cell_faces[cells]
        self.areas = mesh.cell_face_measures[cells]
        self.meas = layout.piece_measures(mesh)[cells]
        self.diam_coef = (mesh.cell_diameters / mesh.cell_volumes)[cells]
        self.x2_coef = ((self.meas / self.vols[:, None, None])
                        * self.areas[:, :, None])

    def table(self, fdotn, qv, vv):
        """The defect table of some steps, shape (steps, NI, nf, pieces) in
        C order: ``fdotn`` is F.n per (step, cell, local face), qv and vv
        the levels of q and v of those steps."""
        piece = self.layout.flux_pieces(qv, vv, self.pair, self.mesh,
                                        self.dual)
        return (np.take(fdotn, self.cells, axis=1)[:, :, :, None]
                - np.take(piece, self.cells, axis=1))

    def residual_terms(self, dt, defects):
        """dt_n * (diam/|P|)_i * |zeta|_{i,k} * |D_piece| * |defect|."""
        return (dt[:, None, None, None]
                * self.diam_coef[None, :, None, None]
                * self.areas[None, :, :, None]
                * self.meas[None, :, :, :]
                * np.abs(defects))

    def x2_terms(self, dt, qv, vv, defects, interp, tf):
        """The step values and masses of X2's gradient term
        -dt_n |P| f(U)_P^n . G_P^n (the cell mean of f(U) dotted first) and
        remainder dt_n sum_zeta sum_piece (|D_piece|/|P|) |zeta| defect
        (phi_P - phi_zeta), tf the time factor at the steps."""
        mean_f = self.layout.flux_cell_means(qv, vv, self.pair,
                                             self.mesh)[:, self.cells]
        grad = tf[:, None, None] * interp.grad_table[self.cells]
        gradient = -(dt[:, None] * np.einsum("ncd,ncd->nc", mean_f, grad)
                     * self.vols)
        tf = tf[:, None, None]
        dphi = (tf * interp.cell_table[self.cells, None]
                - tf * interp.face_table[self.cell_faces])
        remainder = (dt[:, None, None, None]
                     * (self.x2_coef[None] * (defects * dphi[:, :, :, None])))
        return dict(x2_gradient=step_values(gradient, mass=True),
                    x2_remainder=step_values(remainder, mass=True))


def _x2_result(sums) -> X2Result:
    """X2 from its step values; its two routes must agree to ``X2_RTOL``
    (relative to the absolute term mass)."""
    direct, direct_mass = sums.total("x2")
    grad_term, grad_mass = sums.total("x2_gradient")
    remainder, remainder_mass = sums.total("x2_remainder")
    gradient_route = grad_term + remainder
    scale = max(abs(direct), abs(gradient_route), direct_mass,
                grad_mass + remainder_mass)
    _check_routes("X2", direct, gradient_route, scale, X2_RTOL)
    return X2Result(direct, gradient_route, grad_term, remainder)


def _check_support(interp):
    if not interp.interior_support_clear():
        raise SupportError(
            "test-function support reaches non-interior cells at this resolution")


def _levels(field, steps):
    return None if field is None else field.values[steps]


def compute_X2(flux: FluxFamily, interp: InterpolatedTest, q, v,
               pair) -> X2Result:
    """X2 = sum_n dt_n sum_P sum_zeta |zeta| F_zeta^n.n_{P,zeta} phi_P^n.

    The gradient/remainder route of the discrete fields q and v (None for
    colocated 1D) is evaluated as well, and the two must agree to
    ``X2_RTOL`` (relative to the absolute term mass).  Requires phi to
    vanish on all non-interior cells and their faces at the current
    resolution.
    """
    _same_level("compute_X2", flux, interp, q, v)
    _check_support(interp)
    mesh, steps = flux.mesh, flux.grid.steps
    layout = get_layout(flux.layout)
    defects = _FluxDefects(mesh, layout, flux.dual, pair)
    fdotn = flux_dot_n(flux)
    sums = _StepValues()
    for ch in chunk_slices(steps.size,
                           mesh.n_cells * fdotn.shape[2] * layout.pieces):
        qv, vv = q.values[ch], _levels(v, ch)
        sums.add(x2=step_values(_paired(steps[ch], divergence(fdotn[ch], mesh),
                                        interp.cells(ch)), mass=True),
                 **defects.x2_terms(steps[ch], qv, vv,
                                    defects.table(fdotn[ch], qv, vv), interp,
                                    interp.tf[ch]))
    return _x2_result(sums)


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
    return _init_residual(betas.values[0], betas.mesh, q0, phi, pair, order)


def _init_residual(beta0, mesh, q0, phi, pair, order) -> InitResidual:
    """``residual_init`` from beta at the initial level.  The order-``order``
    rule is built on chunks of cell rows (about ``CHUNK_VALUES`` nodes
    each) and never held whole; a row's bits do not depend on its chunk,
    and the per-cell vectors are summed whole, as on the whole rule."""
    phi0, bq0, devs = (np.empty(mesh.n_cells) for _ in range(3))
    qmin, qmax = np.inf, -np.inf
    for rows in chunk_slices(mesh.n_cells, order ** mesh.dim):
        quad = CellQuadrature(mesh, order, rows=np.arange(rows.start,
                                                          rows.stop))
        q0_x = quad.values(q0)
        phi_x0 = quad.values(phi.value, 0.0)
        phi0[rows] = quad.cell_integrals(phi_x0)
        bq0[rows] = quad.cell_integrals(pair.beta(q0_x) * phi_x0)
        q_sample = quad.cell_means(q0_x)
        devs[rows] = quad.cell_integrals(np.abs(q0_x - q_sample[:, None]))
        qmin = min(qmin, float(min(q_sample.min(), q0_x.min())))
        qmax = max(qmax, float(max(q_sample.max(), q0_x.max())))
    per_cell = beta0 * phi0 - bq0
    interior = mesh.interior_cell_mask
    signed = float(per_cell[interior].sum())
    cellwise = float(np.abs(per_cell[interior]).sum())
    c_beta, _ = pair.lipschitz(qmin, qmax)
    l1 = c_beta * phi.sup_norm_initial() * float(devs[interior].sum())
    return InitResidual(signed, cellwise, l1)


class TimeResidual(NamedTuple):
    signed: float
    majorant: float             # C_beta ||phi||_inf sum dt sum |P| |q jumps|
    c_beta: float


class _TimeTerms:
    """The level constants of ``residual_time``: phi's slab integrals
    factored as (Gauss rule of tf over the slab) * (cell rule of B over P,
    on the cells meeting its support), on the interior cells."""

    def __init__(self, phi, mesh, grid, space_order):
        self.cells = np.nonzero(mesh.interior_cell_mask)[0]
        self.vols = mesh.cell_volumes[self.cells]
        self.space_int = _support_table(
            phi, CellQuadrature, mesh, space_order, 1,
            CellQuadrature.cell_integrals)[self.cells]
        self.time_int = slab_time_integrals(grid.knots, phi._time_factor)

    def terms(self, ch, dt, beta, qk):
        """The step values of the signed sum and of the majorant's sum on
        the steps ch; beta and q on their knots n..n+1."""
        jumps = np.diff(beta[:, self.cells], axis=0)
        q_jumps = np.diff(qk[:, self.cells], axis=0)
        return dict(
            time_signed=step_values(
                jumps * (self.time_int[ch, None] * self.space_int)),
            time_total=step_values(dt[:, None] * np.abs(q_jumps) * self.vols))


def _time_result(sums, phi, c_beta) -> TimeResidual:
    return TimeResidual(sums.total("time_signed"),
                        c_beta * phi.sup_norm() * sums.total("time_total"),
                        c_beta)


def residual_time(betas: BetaFamily, q, phi, pair,
                  space_order: int = DEFAULT_ORDER) -> TimeResidual:
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
    time_terms = _TimeTerms(phi, mesh, grid, space_order)
    sums = _StepValues()
    for ch in chunk_slices(grid.n_steps, time_terms.cells.size):
        knots = slice(ch.start, ch.stop + 1)
        sums.add(**time_terms.terms(ch, grid.steps[ch], betas.values[knots],
                                    q.values[knots]))
    c_beta, _ = pair.lipschitz(float(q.values.min()), float(q.values.max()))
    return _time_result(sums, phi, c_beta)


def _flux_residual_chunks(flux, q, v, pair, mesh, grid, layout, dual):
    """The term table of the flux residual, one chunk of time steps at a
    time (see ``residual_flux_terms``)."""
    rules = get_layout(layout)
    defects = _FluxDefects(mesh, rules, dual if dual is not None else flux.dual,
                           pair)
    fdotn = flux_dot_n(flux)
    for ch in chunk_slices(fdotn.shape[0],
                           mesh.n_cells * fdotn.shape[2] * rules.pieces):
        qv, vv = q.values[ch], _levels(v, ch)
        yield defects.residual_terms(grid.steps[ch],
                                     defects.table(fdotn[ch], qv, vv))


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


class _JumpTerms:
    """The level constants of R1 (both forms) and R2.

    RT dual-edge weights are C*diam(P)^2 with the realized splitting
    constant C (adjacent pairs counted once directly plus at most twice via
    the fixed two-hop opposite-pair splits); MAC weights are
    diam(P)(|zeta| + |zeta'|)."""

    def __init__(self, mesh, layout, dual):
        self.mesh = mesh
        fc, cf = mesh.face_cells, mesh.cell_faces
        diam = mesh.cell_diameters
        # cell-sum form: every cell sees each of its interior faces once,
        # the other cell of a boundary face weighted by 0
        first, second = fc[cf][:, :, 0], fc[cf][:, :, 1]
        other = np.where(first == np.arange(mesh.n_cells)[:, None], second,
                         first)
        self.w_ck = diam[:, None] * mesh.face_measures[cf] * (other >= 0)
        self.other = np.maximum(other, 0)
        # reordered face form with omega = (diam P + diam Q)|zeta|
        self.p, self.r = fc[mesh.interior_face_mask].T
        self.omega = ((diam[self.p] + diam[self.r])
                      * mesh.face_measures[mesh.interior_face_mask])
        self.layout = layout if layout.staggered else None
        self.edges, self.weights, self.const = (
            (None, None, None) if self.layout is None
            else layout.jump_edges(mesh, dual))

    def terms(self, dt, qv, vv):
        """The step values of both R1 forms and of R2 on some steps, qv
        and vv the levels of q and v of those steps."""
        out = dict(
            r1=step_values(dt[:, None, None] * np.abs(
                qv[:, :, None] - qv[:, self.other]) * self.w_ck),
            r1_face=step_values(dt[:, None] * np.abs(
                qv[:, self.p] - qv[:, self.r]) * self.omega))
        if vv is not None:
            out["r2"] = step_values(self.layout.velocity_jump_terms(
                vv, dt, self.mesh, self.edges, self.weights))
        return out

    def result(self, sums) -> JumpSums:
        r1, r1_face = sums.total("r1"), sums.total("r1_face")
        _check_routes("R1", r1, r1_face, max(abs(r1), abs(r1_face)), R1_RTOL)
        r2 = 0.0 if self.layout is None else sums.total("r2")
        return JumpSums(r1, r1_face, r2, self.const)


def jump_sums(q, v) -> JumpSums:
    """Scalar jumps R1 (cell-sum and reordered face-sum forms, which must
    agree to ``R1_RTOL``) and staggered velocity jumps R2 across dual
    edges.

    The layout and dual are those of the face velocity v; with v None the
    layout is colocated 1D and R2 is 0.  The weights are those of
    ``_JumpTerms``.
    """
    _same_level("jump_sums", q, v)
    steps = q.grid.steps
    jumps = _JumpTerms(q.mesh, COLOCATED_1D if v is None else layout_of(v),
                       None if v is None else v.dual)
    sums = _StepValues()
    for ch in chunk_slices(steps.size, jumps.w_ck.size):
        sums.add(**jumps.terms(steps[ch], q.values[ch], _levels(v, ch)))
    return jumps.result(sums)


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
    volume_time: float             # -int int beta(q) d_t phi
    volume_space: float            # -int int g(q) v . grad phi
    check_delta: float             # |volume - volume at order+2|


def weak_rhs(pair, q_exact, v_exact, phi,
             order: int = ORACLE_ORDER, panels: int = 12) -> WeakRhs:
    """Right-hand side of the weak form for a closed-form limit q = q_exact:
    -int beta(q(.,0)) phi(.,0) - int int (beta(q) d_t phi + g(q) v.grad phi).

    Both terms use mesh-independent panelised rules over the support box of
    phi (the limit object does not depend on the discretisation level; the
    integrands vanish outside the support).  The space-time box is a tensor
    grid of spatial nodes x time nodes, and the volume integrands are
    formed over chunks of its first spatial axis
    (``quadrature.chunk_slices``, about ``CHUNK_VALUES`` nodes a chunk).
    On each chunk the limit fields are evaluated on the grid as such: a
    ``Reference`` q or v forms its x-only part once per spatial node and
    combines it with each time node (``Reference.on_grid``), while a plain
    closure is called once on every node.  phi, d_t phi and grad phi come
    from the bumps and the time factor on each axis's 1D nodes
    (``TestFunction.at_grid``), formed in the product order of
    ``TestFunction``, so they equal ``phi.value/dt/grad`` at the nodes bit
    for bit; v . grad phi adds its components from +0.0 in axis order,
    written out rather than left to ``einsum``.  Every value goes through
    the same operations in any chunk.

    The reported terms are each written into one vector of the box's
    nodes, the time term and then the space term, and each is one flat
    weighted sum of the whole vector in the C order of the box nodes
    (``BoxQuadrature.integrate``), independent of the BLAS thread count.

    The volume term is integrated again at order+2 as a self-check, in one
    pass over the chunks of that box, which is never held whole: per
    chunk the weighted integrand w (beta(q) d_t phi + g(q) v . grad phi)
    forms a table of one row per first-axis node (``row_weights``),
    reduced by ``quadrature.step_sum`` like every reported space-time sum,
    so its value does not depend on ``CHUNK_VALUES``.  The difference is
    returned as ``check_delta`` and a warning is emitted when it exceeds
    1e-7 (1 + |volume|).
    """
    dim = phi.dim
    space_box = BoxQuadrature(list(phi.support), panels, order)
    phi_x0 = phi.at_grid(space_box.grid_axes).value(0.0).ravel()
    init = -space_box.integrate(pair.beta(q_exact(space_box.points, 0.0))
                                * phi_x0)
    bounds = list(phi.support) + [(0.0, phi.t_max)]

    def time_term(on_chunk, t_axis, x, qb):
        return pair.beta(qb) * on_chunk.dt(t_axis).ravel()

    def space_term(on_chunk, t_axis, x, qb):
        grad = [g.ravel() for g in on_chunk.grad_components(t_axis)]
        if v_exact is None:
            return pair.flux(qb) * grad[0]
        vv = np.asarray(_reference_at(v_exact, x, t_axis.ravel()),
                        dtype=float).reshape(-1, dim)
        dot = 0.0
        for d, g in enumerate(grad):
            dot = dot + vv[:, d] * g
        return pair.g(qb) * dot

    def chunk_values(box, terms):
        """Per chunk of the box's first-axis nodes, the slice ``rows`` of
        them and the values of each of ``terms`` on the chunk's nodes, in
        C order; q is evaluated once for all the terms."""
        axes, t_axis = box.grid_axes[:dim], box.grid_axes[dim]
        times = t_axis.ravel()
        on_box = phi.at_grid(axes)
        per_row = math.prod(a.size for a in box.grid_axes[1:])
        for rows in chunk_slices(axes[0].size, per_row):
            x = tensor_points([axes[0][rows]] + axes[1:])
            qb = np.asarray(_reference_at(q_exact, x, times),
                            dtype=float).ravel()
            on_chunk = on_box.first_rows(rows)
            yield rows, [term(on_chunk, t_axis, x, qb) for term in terms]

    box = BoxQuadrature(bounds, panels, order)
    # the nodes of one index of the first axis are consecutive in C order
    per_row = box.weights.size // box.grid_axes[0].size
    vals = np.empty(box.weights.size)
    integrals = []
    for term in (time_term, space_term):
        for rows, (values,) in chunk_values(box, [term]):
            vals[rows.start * per_row:rows.stop * per_row] = values
        integrals.append(box.integrate(vals))
    vol_time, vol_space = -integrals[0], -integrals[1]
    volume = vol_time + vol_space
    box = BoxQuadrature(bounds, panels, order + 2)
    chunks = chunk_values(box, [time_term, space_term])
    vol2 = -step_sum(box.row_weights(rows)
                     * (t + s).reshape(rows.stop - rows.start, -1)
                     for rows, (t, s) in chunks)
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
    return step_sum(_paired(steps[ch], c_field.values[ch], interp.cells(ch))
                    * vols for ch in chunk_slices(steps.size, vols.size))


class WeakGap(NamedTuple):
    gap: float
    lhs: float
    rhs: float
    rhs_init: float
    rhs_volume: float


def weak_form_gap(c_field, interp, rhs: WeakRhs) -> WeakGap:
    """|LHS - RHS| of the weak-consistency statement: the pairing
    ``weak_lhs`` of C(U) with the interpolate against ``rhs``, the
    level-independent ``weak_rhs`` of the closed-form limit.

    For fields a scheme produced (``field_source = scheme``) the gap is a
    floor, not a convergence measure: the scheme steps with the flux rule
    that C(U) is assembled with, so C(U) vanishes up to rounding and the
    LHS is ~1e-19.  The gap is then |RHS|, the quadrature error of
    ``weak_rhs`` for a limit that solves the PDE (7.1e-9 at all six levels
    of the 1D upwind bench study), and its fitted rate is not a
    convergence rate.  The exception is a ``face_scheme`` other than the
    scheme's upwind (or a pair other than ``id``), which assembles C(U)
    with another flux.
    """
    return _gap(weak_lhs(c_field, interp), rhs)


def _gap(lhs: float, rhs: WeakRhs) -> WeakGap:
    return WeakGap(abs(lhs - rhs.total), lhs, rhs.total, rhs.init_term,
                   rhs.volume_term)


# ----------------------------------------------------------------------
# one level in one pass

class LevelSums(NamedTuple):
    """Every quantity of one level that ``level_pass`` computes."""
    x1: X1Result
    x2: X2Result
    init: InitResidual
    time: TimeResidual
    res_flux: float
    jumps: JumpSums
    translate: float
    gap: WeakGap
    l1_distance: float
    sup_norm: float             # sup |q|, and sup |v| when larger
    measured_c: float           # as ``measured_constant``
    q_min: float                # over all levels 0..N
    q_max: float
    l1_cauchy: float            # to the ``cauchy`` reference, nan without


def level_pass(levels, pair, fluxes, interp: InterpolatedTest, q_exact,
               weights, rhs: WeakRhs, order: int = DEFAULT_ORDER,
               init_order: int = ORACLE_ORDER, cauchy=None,
               keep=None) -> LevelSums:
    """Every consistency quantity of one level in one walk over chunks of
    its time steps.

    ``levels`` is the level's ``schemes.LevelSource``: it hands out the q
    and v levels (v None for colocated 1D) of the knots n..m+1 of each
    chunk n..m as the walk reaches it, so q and v are never held whole.
    ``fluxes(qv, vv)`` gives the face fluxes of the levels of some steps
    (``operators.staggered_flux_rule`` or ``upwind_1d_flux_rule``),
    ``q_exact(x, t)`` the limit (q0 = q_exact(., 0)), ``weights`` the
    face/step translate weights and ``rhs`` the level-independent
    ``weak_rhs``.  ``order`` is the spatial order of the time residual;
    the L1 distance uses the source's cell rule (``levels.quad``), and
    ``init_order`` is the order of the initialization residual.  With a
    ``cauchy`` reference (the coarser level's q, with a ``Reference``'s
    ``at``), its order-2 L1 distance is taken per chunk too.  ``keep(start,
    levels)``, when given, is handed the q levels of the knots start.. of
    each chunk in turn (the source's reused buffer, to be copied).

    Per chunk the face fluxes, beta on the knots n..n+1, F.n, its
    divergence and the flux-defect table are formed once each and feed the
    term functions of the whole-level stages; every result equals that
    stage's bit for bit, and the route checks, the support check and the
    non-finite flux error are theirs.
    """
    _same_level("level_pass", levels, interp)
    _check_support(interp)
    mesh, grid = levels.mesh, levels.grid
    layout, dual = levels.layout, levels.dual
    q0 = lambda x: q_exact(x, 0.0)
    vols, phi = mesh.cell_volumes, interp.phi
    defects = _FluxDefects(mesh, layout, dual, pair)
    time_terms = _TimeTerms(phi, mesh, grid, order)
    jumps = _JumpTerms(mesh, layout, dual)
    l1 = l1_steps(levels.quad, grid, levels.on_nodes(q_exact))
    l1_cauchy = None
    if cauchy is not None:
        quad = CellQuadrature(mesh, 2)
        l1_cauchy = l1_steps(quad, grid, cauchy.at(quad.flat_points()))
    kx, lx = mesh.face_cells[mesh.interior_face_mask].T
    sums = _StepValues()
    q_min, q_max, sup_q, sup_v, sup_g = np.inf, -np.inf, 0.0, 0.0, 0.0
    slices = chunk_slices(grid.n_steps, mesh.n_cells
                          * mesh.cell_faces.shape[1] * layout.pieces)
    for ch, (qk, vk) in zip(slices, levels.chunks(slices)):
        if ch.start == 0:
            # the level buffers are reused: keep beta^0 of its own
            beta0 = np.array(pair.beta(qk[0]))
            init = _init_residual(beta0, mesh, q0, phi, pair, init_order)
        if keep is not None:
            keep(ch.start, qk)
        # the level pairs (n, n+1) of the steps n < N - 1 of the chunk
        pairs = min(ch.stop, grid.n_steps - 1) - ch.start
        knots = slice(ch.start, ch.stop + 1)
        dt = grid.steps[ch]
        qv, vv = qk[:-1], None if vk is None else vk[:-1]
        beta = pair.beta(qk)
        flux = fluxes(qv, vv)
        check_finite_flux(flux, mesh, ch.start)
        fdotn = layout.cell_normal(flux, mesh, dual)
        div = divergence(fdotn, mesh)
        dtb = time_derivative(beta, dt)
        phi_cells = interp.cells(ch)
        table = defects.table(fdotn, qv, vv)
        sums.add(
            weak_lhs=step_values(_paired(dt, convection(dtb, div, mesh),
                                         phi_cells) * vols),
            x2=step_values(_paired(dt, div, phi_cells), mass=True),
            res_flux=step_values(defects.residual_terms(dt, table)),
            translate_space=step_values(translate_space_terms(
                qv, dt, kx, lx, weights.omega_face)),
            translate_time=step_values(translate_time_terms(
                qk[:pairs], qk[1:pairs + 1],
                weights.delta_half[ch.start:ch.start + pairs], vols)),
            l1=l1(ch, qv),
            **_x1_terms(dt, dtb, beta, phi_cells,
                        np.diff(interp.tf[knots]), interp.cell_table, vols),
            **defects.x2_terms(dt, qv, vv, table, interp, interp.tf[ch]),
            **time_terms.terms(ch, dt, beta, qk),
            **jumps.terms(dt, qv, vv))
        if l1_cauchy is not None:
            sums.add(l1_cauchy=l1_cauchy(ch, qv))
        q_min, q_max = min(q_min, qk.min()), max(q_max, qk.max())
        sup_g = max(sup_g, float(np.abs(pair.g(qk)).max()))
        sup_q = max(sup_q, float(np.abs(qv).max()))
        if vv is not None:
            sup_v = max(sup_v, float(layout.magnitude(vv).max()))
    q_min, q_max = float(q_min), float(q_max)
    c_beta, c_g = pair.lipschitz(q_min, q_max)
    return LevelSums(
        x1=_x1_result(sums, beta0, interp, vols),
        x2=_x2_result(sums),
        init=init,
        time=_time_result(sums, phi, c_beta),
        res_flux=sums.total("res_flux"),
        jumps=jumps.result(sums),
        translate=sums.total("translate_space") + sums.total("translate_time"),
        gap=_gap(sums.total("weak_lhs"), rhs),
        l1_distance=sums.total("l1"),
        sup_norm=max(sup_q, sup_v),
        measured_c=max(c_g * (1.0 if layout.velocity_field is None
                              else sup_v), sup_g),
        q_min=q_min, q_max=q_max,
        l1_cauchy=np.nan if l1_cauchy is None else sums.total("l1_cauchy"))
