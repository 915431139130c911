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
the step values are added left to right (``quadrature.add_steps``).

Each quantity is a term, ``_Term(terms, result)``: ``terms(chunk)`` gives
its values on a chunk of time steps (``quadrature.chunk_slices``), by the
same operations in any chunk, and ``result(sums)`` reduces those of all
chunks to the quantity; what spans chunks (beta^0 and the init residual
from the first chunk, the range of q and the sups from every chunk) is a
chunk value too.  One walk, ``_walk``, runs terms over the chunks of a
level, and its ``_Chunk`` forms each value they share once, when a term
first asks: dt and the knots, beta and d_t beta, the face fluxes (checked
finite), F.n and its divergence, C(U), phi on the cells, the
flux-defect table (F_zeta^n - f(U)|_piece) . n_{P,zeta}, and the jumps
dt_n |q_K^n - q_L^n| across the interior faces and |q^{n+1} - q^n| per
cell.  The terms weighted by phi (X1, X2, the weak LHS and the signed time
residual) run on each chunk's ``head`` only, its steps before phi's last
live step (``InterpolatedTest.live``): past it each of their terms is a
signed zero, which ``add_steps`` adds without moving a bit.  ``level_pass`` is
the walk over a level source with every term; each whole-level stage
(``compute_X1``, ``compute_X2``, ``residual_time``, ``residual_flux``,
``jump_sums``, ``weak_lhs``) is the walk with its one term over the fields
it is handed, their values set on each chunk as views, so it gives the
pass's value bit for bit, for any chunk size.

Stages read mesh, grid, layout and dual from their fields: ``.mesh`` and
``.grid`` of every field and interpolate, ``.layout`` (a
``layouts.Layout``) and ``.dual`` of a ``FluxFamily`` and of a face
velocity.  ``residual_flux`` (with its ``residual_flux_terms``) is the one
exception: ``bench/tracing.py`` reads mesh, grid and the layout's name
from its positional arguments to size the table.
"""

from __future__ import annotations

import math
import warnings
import weakref
from functools import cached_property
from itertools import repeat
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .fields import (InterpolatedTest, SupportError, _reference_at,
                     _same_level, _support_table, face_jumps, l1_steps,
                     live_steps, time_jumps, translate_space_terms,
                     translate_time_terms)
from .layouts import COLOCATED_1D, get_layout
# dt_beta and flux_dot_n are looked up here by name, so rebinding
# fvlab.consistency.<name> reaches the whole-level stages; flux_divergence
# is not called here, but bench/tracing.py rebinds it here too
from .operators import (BetaFamily, FluxFamily, check_finite_flux,
                        convection, divergence, dt_beta,
                        flux_divergence, flux_dot_n,  # noqa: F401
                        time_derivative)
from .quadrature import (DEFAULT_ORDER, ORACLE_ORDER, BoxQuadrature,
                         CellQuadrature, Workspace, add_steps, chunk_slices,
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
    """One term's step values by name, appended chunk by chunk in step
    order; ``total`` adds one name's values left to right, and with
    ``mass`` (values that hold the term masses too) gives (sum, mass).  A
    name that no chunk gave totals to +0.0."""

    def add(self, chunk):
        for name, values in (chunk or {}).items():
            self.setdefault(name, []).append(values)

    def total(self, name, mass=False):
        values = np.concatenate(
            self.get(name, [np.zeros((2, 0) if mass else 0)]), axis=-1)
        if mass:
            return tuple(add_steps(row) for row in values)
        return add_steps(values)


def _paired(dt, values, phi, vols=None, out=None):
    """dt_n * (values_P^n * phi_P^n) per (step, cell), times |P| when
    ``vols`` is given, written into ``out`` when given."""
    out = np.multiply(values, phi, out=out)
    np.multiply(dt[:, None], out, out=out)
    return out if vols is None else np.multiply(out, vols, out=out)


# ----------------------------------------------------------------------
# the walk over the chunks of a level

class _Chunk:
    """The steps n..m of a level as its terms see them: the q and v levels
    of the knots n..m+1 (``qk``, ``vk``; vk None without a face velocity)
    and each value derived from them, formed from what the level's chunks
    share (``level``, see ``_walk``) when a term first asks for it.  A
    value the stage holds whole is its view instead (``level.held``): q, v
    and beta on the knots, d_t beta, F.n and C(U) on the steps.

    The terms weighted by phi (X1, X2, the weak LHS and the signed time
    residual) read ``head``, the steps before the level's ``live``: past
    it every phi factor is a signed zero, each term there is one, and
    ``add_steps`` leaves a sum unchanged by it."""

    def __init__(self, level, steps, qk, vk):
        self.level, self.steps, self.start = level, steps, steps.start
        self.knots = slice(steps.start, steps.stop + 1)
        self.qk, self.vk = qk, vk
        for name, values in level.held.items():
            if values is not None:
                on_knots = name in ("qk", "vk", "beta")
                setattr(self, name, values[self.knots if on_knots else steps])

    dt = cached_property(lambda c: c.level.grid.steps[c.steps])
    # the q and v levels of the steps, and the range of q on the knots
    qv = cached_property(lambda c: c.qk[:-1])
    vv = cached_property(lambda c: None if c.vk is None else c.vk[:-1])
    q_range = cached_property(lambda c: (c.qk.min(), c.qk.max()))
    beta = cached_property(lambda c: c.level.pair.beta(c.qk))
    dtb = cached_property(lambda c: time_derivative(c.beta, c.dt))

    @cached_property
    def flux(self):
        # the face fluxes of the steps, each checked finite
        flux = self.level.fluxes(self.qv, self.vv)
        check_finite_flux(flux, self.level.mesh, self.start)
        return flux

    # F.n per (step, cell, local face), its divergence, C(U), phi_P^n at
    # the steps and the flux-defect table of the interior cells
    fdotn = cached_property(lambda c: c.level.layout.cell_normal(
        c.flux, c.level.mesh, c.level.dual))
    div = cached_property(lambda c: divergence(c.fdotn, c.level.mesh))
    conv = cached_property(lambda c: convection(c.dtb, c.div, c.level.mesh))
    phi = cached_property(lambda c: c.level.interp.cells(c.steps))
    table = cached_property(lambda c: c.level.defects.table(c.fdotn, c.qv,
                                                            c.vv))
    # dt_n |q_K^n - q_L^n| over the interior faces (K, L) = ``level.pairs``
    # (R1's face form and the translate functional's space terms), and
    # |q^{n+1} - q^n| per cell (the time residual's majorant and the
    # translate functional's time terms), in the buffers of ``level.work``
    face_jumps = cached_property(lambda c: face_jumps(
        c.qv, c.dt, *c.level.pairs, c.level.work))
    time_jumps = cached_property(lambda c: time_jumps(c.qk[1:], c.qk[:-1],
                                                      c.level.work))

    @property
    def head(self):
        """This chunk's steps before the level's ``live``: the chunk
        itself when it ends there or before, None when it starts there or
        after, and else a ``_Head`` (formed once)."""
        stop = min(self.steps.stop, self.level.live)
        if stop <= self.start:
            return None
        return self if stop == self.steps.stop else self._cut

    _cut = cached_property(lambda c: _Head(c, c.level.live))


class _Head(_Chunk):
    """The first steps of a chunk, up to ``stop``: the chunk's face
    fluxes, F.n, defect table, beta and jumps sliced (the jumps live in
    buffers that a head of its own would overwrite), every other value
    formed on these steps only.  Each is formed step by step, so a slice
    has the bits of the same value formed on the slice.  The chunk is held
    weakly: a cycle would keep each chunk's tables until the garbage
    collector ran."""

    def __init__(self, chunk, stop):
        n = stop - chunk.start
        super().__init__(chunk.level, slice(chunk.start, stop),
                         None if chunk.qk is None else chunk.qk[:n + 1],
                         None if chunk.vk is None else chunk.vk[:n + 1])
        self.chunk, self.n = weakref.proxy(chunk), n

    flux = cached_property(lambda h: h.chunk.flux[:h.n])
    fdotn = cached_property(lambda h: h.chunk.fdotn[:h.n])
    table = cached_property(lambda h: h.chunk.table[:h.n])
    beta = cached_property(lambda h: h.chunk.beta[:h.n + 1])
    face_jumps = cached_property(lambda h: h.chunk.face_jumps[:h.n])
    time_jumps = cached_property(lambda h: h.chunk.time_jumps[:h.n])


class _Term(NamedTuple):
    """A level quantity, by its chunk values and their reduction."""
    terms: Callable             # chunk -> chunk values by name, or None
    result: Callable            # _StepValues -> the quantity


def _q_range(sums) -> tuple[float, float]:
    """The range of q over the knots of every chunk (its ``q_range``)."""
    lows, highs = zip(*sums["q_range"])
    return float(min(lows)), float(max(highs))


def _measured_c(pair, q_range, sup_v, sup_g) -> float:
    """The measured product constant max(C_g sup|v|, sup|g(q)|), C_g on
    the range of q; sup_v None for the speed 1 of colocated 1D."""
    _, c_g = pair.lipschitz(*q_range)
    return max(c_g * (1.0 if sup_v is None else sup_v), sup_g)


def _walk(level, terms):
    """The results of ``terms`` (term objects by name) on one level, by
    the same names: per chunk of its steps, in step order, each term adds
    ``terms(chunk)`` to its own ``_StepValues``, and ``result`` reads them.
    ``level`` holds ``mesh``, ``grid``, the chunk size ``per_step``
    (``chunk_slices``), the ``schemes.LevelSource`` ``source`` that forms
    each chunk's q and v levels (or None), the arrays the stage holds whole
    by chunk value (``held``), and what the chunk values are formed from:
    ``layout``, ``dual``, ``pair``, the flux rule ``fluxes(qv, vv)``,
    ``interp``, the ``_FluxDefects`` ``defects``, the cells (K, L) of the
    interior faces (``pairs``), the ``quadrature.Workspace`` ``work`` of
    the shared jumps and phi's ``live`` steps (``_Chunk.head``)."""
    sums = {name: _StepValues() for name in terms}
    slices = chunk_slices(level.grid.n_steps, level.per_step)
    streamed = (repeat((None, None)) if level.source is None
                else level.source.chunks(slices))
    for steps, (qk, vk) in zip(slices, streamed):
        chunk = _Chunk(level, steps, qk, vk)
        for name, term in terms.items():
            sums[name].add(term.terms(chunk))
    return {name: term.result(sums[name]) for name, term in terms.items()}


def _stage(term, mesh, grid, per_step, held, work=None, **shared):
    """A whole-level stage: the walk with one term over ``held``, the
    chunk values in the ``quadrature.Workspace`` work (a new one by
    default)."""
    level = SimpleNamespace(mesh=mesh, grid=grid, per_step=per_step,
                            source=None, held=held,
                            work=Workspace() if work is None else work,
                            **shared)
    return _walk(level, dict(stage=term))["stage"]


# ----------------------------------------------------------------------
# X1: time-derivative pairing

class X1Result(NamedTuple):
    value: float                # direct sum
    by_parts: float             # discrete summation-by-parts route


def _x1_term(interp, vols, work) -> _Term:
    """X1 from the terms dt_n |P| (d_t beta)_P^n phi_P^n, and its by-parts
    route from the series terms |P| beta_P^{n+1} (phi_P^{n+1} - phi_P^n),
    the difference formed as (tf_{n+1} - tf_n) <B>_P, both on each chunk's
    ``head``, closed by -sum |P| beta^0 phi^0, whose value and mass the
    first chunk gives; the tables go into the ``quadrature.Workspace``
    work."""

    def terms(c):
        out, h = {}, c.head
        if h is not None:
            shape = h.dtb.shape
            out["direct"] = step_values(_paired(
                h.dt, h.dtb, h.phi, vols, out=work("terms", shape)), mass=True)
            series = np.multiply(np.diff(interp.tf[h.knots])[:, None],
                                 interp.cell_table, out=work("terms", shape))
            np.multiply(h.beta[1:], series, out=series)
            out["series"] = step_values(
                np.multiply(series, vols, out=series), mass=True)
        if c.start == 0:
            start = c.beta[0] * interp.cells(0)
            out["start"] = (float(np.einsum("c,c->", vols, start)),
                            float(np.einsum("c,c->", vols, np.abs(start))))
        return out

    def result(sums) -> X1Result:
        direct, direct_mass = sums.total("direct", mass=True)
        series, series_mass = sums.total("series", mass=True)
        (start, start_mass), = sums["start"]
        by_parts = -start - series
        # relative scale includes both routes' absolute term masses, so exact
        # zeros on one route compare against the other's cancellation scale
        scale = max(abs(direct), abs(by_parts), direct_mass,
                    start_mass + series_mass)
        _check_routes("X1", direct, by_parts, scale, X1_RTOL)
        return X1Result(direct, by_parts)

    return _Term(terms, result)


def compute_X1(betas: BetaFamily, interp: InterpolatedTest) -> X1Result:
    """X1 = sum_n dt_n sum_P |P| (d_t beta)_P^n phi_P^n, plus the
    summation-by-parts route; the two must agree to ``X1_RTOL``.

    Note the |P| weight: the pairing is the integral of the piecewise
    constant (d_t beta) against the interpolate, so each cell enters with
    its measure.
    """
    _same_level("compute_X1", betas, interp)
    mesh = betas.mesh
    return _stage(_x1_term(interp, mesh.cell_volumes, Workspace()), mesh,
                  betas.grid, mesh.n_cells,
                  dict(beta=betas.values, dtb=dt_beta(betas, betas.grid)),
                  interp=interp, live=interp.live)


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
    residual.  Its tables go into the ``quadrature.Workspace`` work; each
    (step, cell, face, piece) table is formed one face and piece at a time
    with the cells innermost, by the elementwise operations of its
    broadcasting form."""

    def __init__(self, mesh, layout, dual, pair, work):
        self.mesh, self.layout, self.dual, self.pair = mesh, layout, dual, pair
        self.cells = cells = np.nonzero(mesh.interior_cell_mask)[0]
        self.vols = mesh.cell_volumes[cells]
        self.cell_faces = mesh.cell_faces[cells]
        self.areas = mesh.cell_face_measures[cells]
        self.meas = layout.piece_measures(mesh)[cells]
        self.diam_coef = (mesh.cell_diameters / mesh.cell_volumes)[cells]
        self.x2_coef = ((self.meas / self.vols[:, None, None])
                        * self.areas[:, :, None])
        self.work = work

    def table(self, fdotn, qv, vv):
        """The defect table of some steps, shape (steps, NI, nf, pieces) in
        C order: ``fdotn`` is F.n per (step, cell, local face), qv and vv
        the levels of q and v of those steps."""
        out = self.layout.flux_pieces(qv, vv, self.pair, self.mesh,
                                      self.dual, self.cells, self.work)
        own = np.take(fdotn, self.cells, axis=1, mode="clip",
                      out=self.work("terms", out.shape[:3]))
        for k, p in np.ndindex(out.shape[2:]):
            np.subtract(own[:, :, k], out[:, :, k, p], out=out[:, :, k, p])
        return out

    def residual_terms(self, dt, defects):
        """dt_n * (diam/|P|)_i * |zeta|_{i,k} * |D_piece| * |defect|."""
        out = np.abs(defects, out=self.work("terms", defects.shape))
        coef = np.multiply(dt[:, None], self.diam_coef,
                           out=self.work("a", defects.shape[:2]))
        piece = self.work("b", coef.shape)
        for k, p in np.ndindex(out.shape[2:]):
            np.multiply(coef, self.areas[:, k], out=piece)
            np.multiply(piece, self.meas[:, k, p], out=piece)
            np.multiply(piece, out[:, :, k, p], out=out[:, :, k, p])
        return out

    def x2_terms(self, dt, qv, vv, defects, interp, tf):
        """The step values and masses of X2's gradient term
        -dt_n |P| f(U)_P^n . G_P^n (the cell mean of f(U) dotted first) and
        remainder dt_n sum_zeta sum_piece (|D_piece|/|P|) |zeta| defect
        (phi_P - phi_zeta), tf the time factor at the steps."""
        work, cells = self.work, self.cells
        means = self.layout.flux_cell_means(qv, vv, self.pair, self.mesh)
        means = np.take(means, cells, axis=1, mode="clip",
                        out=work("a", (len(dt), cells.size, means.shape[2])))
        grad = np.multiply(tf[:, None, None], interp.grad_table[cells],
                           out=work("b", means.shape))
        gradient = np.einsum("ncd,ncd->nc", means, grad,
                             out=work("terms", defects.shape[:2]))
        np.multiply(dt[:, None], gradient, out=gradient)
        np.negative(np.multiply(gradient, self.vols, out=gradient),
                    out=gradient)
        sums = dict(x2_gradient=step_values(gradient, mass=True))
        phi_cell = np.multiply(tf[:, None], interp.cell_table[cells],
                               out=work("a", defects.shape[:2]))
        dphi = work("b", phi_cell.shape)
        remainder = work("terms", defects.shape)
        for k, p in np.ndindex(defects.shape[2:]):
            if p == 0:
                np.multiply(tf[:, None],
                            interp.face_table[self.cell_faces[:, k]], out=dphi)
                np.subtract(phi_cell, dphi, out=dphi)
            np.multiply(defects[:, :, k, p], dphi, out=remainder[:, :, k, p])
        np.multiply(self.x2_coef, remainder, out=remainder)
        np.multiply(dt[:, None, None, None], remainder, out=remainder)
        return dict(sums, x2_remainder=step_values(remainder, mass=True))

    @property
    def term(self) -> _Term:
        """The flux residual's term."""
        return _Term(lambda c: dict(t=step_values(self.residual_terms(
            c.dt, c.table))), lambda sums: sums.total("t"))


def _x2_term(defects, interp) -> _Term:
    """X2 and its gradient/remainder route (``defects.x2_terms``); the two
    must agree to ``X2_RTOL`` (relative to the absolute term mass)."""

    def terms(c):
        h = c.head
        if h is None:
            return None
        direct = _paired(h.dt, h.div, h.phi,
                         out=defects.work("terms", h.div.shape))
        return dict(x2=step_values(direct, mass=True), **defects.x2_terms(
            h.dt, h.qv, h.vv, h.table, interp, interp.tf[h.steps]))

    def result(sums) -> X2Result:
        direct, direct_mass = sums.total("x2", mass=True)
        grad_term, grad_mass = sums.total("x2_gradient", mass=True)
        remainder, remainder_mass = sums.total("x2_remainder", mass=True)
        gradient_route = grad_term + remainder
        scale = max(abs(direct), abs(gradient_route), direct_mass,
                    grad_mass + remainder_mass)
        _check_routes("X2", direct, gradient_route, scale, X2_RTOL)
        return X2Result(direct, gradient_route, grad_term, remainder)

    return _Term(terms, result)


def _check_support(interp):
    if not interp.interior_support_clear():
        raise SupportError(
            "test-function support reaches non-interior cells at this resolution")


def _flux_stage(term, flux, q, v, pair, mesh, grid, layout, dual, **shared):
    """The walk of ``compute_X2`` and ``residual_flux``: ``term(defects)``
    over F.n and the q and v levels, with their ``_FluxDefects``."""
    defects = _FluxDefects(mesh, layout, flux.dual if dual is None else dual,
                           pair, Workspace())
    return _stage(term(defects), mesh, grid,
                  mesh.n_cells * mesh.cell_faces.shape[1] * layout.pieces,
                  dict(fdotn=flux_dot_n(flux), qk=q.values,
                       vk=getattr(v, "values", None)),
                  defects=defects, **shared)


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
    return _flux_stage(lambda defects: _x2_term(defects, interp), flux, q, v,
                       pair, flux.mesh, flux.grid, flux.layout, None,
                       interp=interp, live=interp.live)


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


def _init_term(*args) -> _Term:
    """The init residual, ``_init_residual(beta0, *args)`` with beta0 at
    the first knot of the first chunk."""
    return _Term(lambda c: None if c.start else dict(
        init=_init_residual(c.beta[0], *args)), lambda sums: sums["init"][0])


class TimeResidual(NamedTuple):
    signed: float
    majorant: float             # C_beta ||phi||_inf sum dt sum |P| |q jumps|
    c_beta: float


def _time_term(phi, mesh, grid, space_order, pair) -> _Term:
    """The time residual on the interior cells, phi's slab integrals
    factored as in ``residual_time``, the signed part on the chunk's
    ``head``; C_beta on the range of q."""
    cells = np.nonzero(mesh.interior_cell_mask)[0]
    vols = mesh.cell_volumes[cells]
    space_int = _support_table(phi, CellQuadrature, mesh, space_order, 1,
                               CellQuadrature.cell_integrals)[cells]
    time_int = slab_time_integrals(grid.knots, phi._time_factor)

    def terms(c):
        work = c.level.work
        total = np.take(c.time_jumps, cells, axis=1, mode="clip",
                        out=work("terms", (len(c.dt), cells.size)))
        np.multiply(c.dt[:, None], total, out=total)
        out = dict(q_range=c.q_range, total=step_values(
            np.multiply(total, vols, out=total)))
        h = c.head
        if h is not None:
            # (beta^{n+1} - beta^n) (time_int * space_int) on the cells
            shape = (len(h.dt), cells.size)
            jumps = np.take(h.beta[1:], cells, axis=1, mode="clip",
                            out=work("terms", shape))
            weights = np.take(h.beta[:-1], cells, axis=1, mode="clip",
                              out=work("a", shape))
            np.subtract(jumps, weights, out=jumps)
            np.multiply(time_int[h.steps, None], space_int, out=weights)
            out["signed"] = step_values(np.multiply(jumps, weights,
                                                    out=jumps))
        return out

    def result(sums) -> TimeResidual:
        c_beta, _ = pair.lipschitz(*_q_range(sums))
        return TimeResidual(sums.total("signed"), c_beta * phi.sup_norm()
                            * sums.total("total"), c_beta)

    return _Term(terms, result)


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
    return _stage(_time_term(phi, mesh, grid, space_order, pair), mesh, grid,
                  mesh.n_cells, dict(beta=betas.values, qk=q.values),
                  live=live_steps(phi, grid.knots))


def residual_flux_terms(flux: FluxFamily, q, v, pair, mesh, grid,
                        layout: str, dual=None) -> np.ndarray:
    """Exact term table of the flux-consistency residual.

    terms[n, i, k, p] = dt_n * (diam/|P|)_i * |zeta|_{i,k} * |D_piece|
                        * |(F_zeta^n - f(U)|_piece) . n_{P,zeta}|
    over interior cells i (ascending cell id), local faces k and constancy
    pieces p, in C order; ``residual_flux`` is its ``step_sum``.  A scalar
    enumeration in the same layout reproduces the table bit for bit.
    """
    # each chunk's table is a view of the workspace: copy it out
    return _flux_stage(lambda defects: _Term(
        lambda c: dict(t=defects.residual_terms(c.dt, c.table).copy()),
        lambda sums: np.concatenate(sums["t"])),
        flux, q, v, pair, mesh, grid, get_layout(layout), dual)


def residual_flux(flux: FluxFamily, q, v, pair, mesh, grid,
                  layout: str, dual=None) -> float:
    """Flux-consistency residual (exact finite sum over constancy pieces):
    the ``step_sum`` of ``residual_flux_terms``, built chunk by chunk;
    ``layout`` is the layout's name (a key of ``layouts.LAYOUTS``)."""
    return _flux_stage(lambda defects: defects.term, flux, q, v, pair, mesh,
                       grid, get_layout(layout), dual)


# ----------------------------------------------------------------------
# jump sums R1 / R2

class JumpSums(NamedTuple):
    r1: float
    r1_reordered: float
    r2: float
    rt_constant: int | None


class _JumpTerms:
    """The level constants of R1 (both forms) and R2, the tables in the
    ``quadrature.Workspace`` work; ``term`` is their term.

    RT dual-edge weights are C*diam(P)^2 with the realized splitting
    constant C (adjacent pairs counted once directly plus at most twice via
    the fixed two-hop opposite-pair splits); MAC weights are
    diam(P)(|zeta| + |zeta'|)."""

    def __init__(self, mesh, layout, dual, work):
        self.mesh, self.work = mesh, work
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

    @property
    def term(self) -> _Term:
        return _Term(lambda c: self.terms(c.dt, c.qv, c.vv, c.face_jumps),
                     self.result)

    def terms(self, dt, qv, vv, jumps):
        """The step values of both R1 forms and of R2 on some steps, qv
        and vv the levels of q and v of those steps and ``jumps`` their
        ``fields.face_jumps`` over the faces (p, r); each local face's
        R1 differences are formed with the cells innermost."""
        work, n = self.work, len(qv)
        other = np.take(qv, self.other, axis=1, mode="clip",
                        out=work("terms", (n,) + self.other.shape))
        for k in range(self.other.shape[1]):
            np.subtract(qv, other[:, :, k], out=other[:, :, k])
        np.multiply(dt[:, None, None], np.abs(other, out=other), out=other)
        out = dict(r1=step_values(np.multiply(other, self.w_ck, out=other)))
        out["r1_face"] = step_values(np.multiply(
            jumps, self.omega, out=work("terms", jumps.shape)))
        if vv is not None:
            out["r2"] = step_values(self.layout.velocity_jump_terms(
                vv, dt, self.mesh, self.edges, self.weights, work))
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
    jumps = _JumpTerms(q.mesh, COLOCATED_1D if v is None else v.layout,
                       getattr(v, "dual", None), Workspace())
    return _stage(jumps.term, q.mesh, q.grid, jumps.w_ck.size,
                  dict(qk=q.values, vk=getattr(v, "values", None)),
                  work=jumps.work, pairs=(jumps.p, jumps.r))


def measured_constant(q, v, pair) -> float:
    """Measured product constant dominating R <= C (R1 + R2): the larger of
    C_g * sup|v| and sup|g(q)| over the discrete data."""
    return _measured_c(pair, (float(q.values.min()), float(q.values.max())),
                       None if v is None else v.sup_norm(),
                       float(np.abs(pair.g(q.values)).max()))


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
    combines it with each time node (``Reference.on_grid``; a steady v is
    broadcast over the time nodes, never repeated), while a plain closure
    is called once on every node.  phi, d_t phi and grad phi come from the
    bumps and the time factor on each axis's 1D nodes
    (``TestFunction.at_grid``), formed in the product order of
    ``TestFunction``, so they equal ``phi.value/dt/grad`` at the nodes bit
    for bit; v . grad phi adds its components v_d d_d phi, each read from
    the broadcast v, from +0.0 in axis order, written out rather than left
    to ``einsum``.  Every value goes through the same operations in any
    chunk, and each node value is formed once, with ``out=`` into its
    destination.

    The reported terms are each written into one vector of the box's
    nodes, the time term and then the space term (a pass each: one pass
    for both would hold two such vectors), and each is one flat weighted
    sum of the whole vector in the C order of the box nodes
    (``BoxQuadrature.integrate``), independent of the BLAS thread count.

    The volume term is integrated again at order+2 as a self-check, in one
    pass over the chunks of that box, which is never held whole: per
    chunk both integrands go into reused ``Workspace`` buffers, and the
    weighted integrand w (beta(q) d_t phi + g(q) v . grad phi), formed in
    place, is a table of one row per first-axis node (``row_weights``),
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

    def time_term(on_chunk, t_axis, x, qb, out):
        dt = on_chunk.dt(t_axis).reshape(out.shape)
        np.multiply(pair.beta(qb), dt, out=out)

    def space_term(on_chunk, t_axis, x, qb, out):
        grad = [g.reshape(out.shape)
                for g in on_chunk.grad_components(t_axis)]
        if v_exact is None:
            np.multiply(pair.g(qb), grad[0], out=out)
            return
        # v . grad phi from +0.0 in axis order, ((0.0 + v_0 g_0) + v_1 g_1)
        # ..., v shaped (space nodes, time nodes, dim) and each product
        # formed in its own grad component
        v = _reference_at(v_exact, x, t_axis.ravel())
        np.multiply(v[..., 0], grad[0], out=out)
        out += 0.0
        for d in range(1, dim):
            out += np.multiply(v[..., d], grad[d], out=grad[d])
        np.multiply(pair.g(qb), out, out=out)

    def chunks(box):
        """Per chunk of the box's first-axis nodes, the slice ``rows`` of
        them and the chunk's phi, time nodes, spatial nodes x and q on
        its (space, time) nodes, shaped (space nodes, time nodes)."""
        axes, t_axis = box.grid_axes[:dim], box.grid_axes[dim]
        times = t_axis.ravel()
        on_box = phi.at_grid(axes)
        per_row = math.prod(a.size for a in box.grid_axes[1:])
        for rows in chunk_slices(axes[0].size, per_row):
            x = tensor_points([axes[0][rows]] + axes[1:])
            qb = np.asarray(_reference_at(q_exact, x, times), dtype=float)
            yield rows, (on_box.first_rows(rows), t_axis, x, qb)

    box = BoxQuadrature(bounds, panels, order)
    # the nodes of one index of the first axis are consecutive in C order
    per_row = box.weights.size // box.grid_axes[0].size
    vals = np.empty(box.weights.size)
    integrals = []
    for term in (time_term, space_term):
        for rows, chunk in chunks(box):
            out = vals[rows.start * per_row:rows.stop * per_row]
            term(*chunk, out.reshape(chunk[-1].shape[:2]))
        integrals.append(box.integrate(vals))
    vol_time, vol_space = -integrals[0], -integrals[1]
    volume = vol_time + vol_space
    box = BoxQuadrature(bounds, panels, order + 2)
    work = Workspace()

    def weighted(rows, chunk):
        """w (beta(q) d_t phi + g(q) v . grad phi) on the chunk, one row
        per first-axis node, formed in the chunk buffers of ``work``."""
        shape = chunk[-1].shape[:2]
        t, s = work("rhs_time", shape), work("rhs_space", shape)
        time_term(*chunk, t)
        space_term(*chunk, s)
        t += s
        table = t.reshape(rows.stop - rows.start, -1)
        weights = box.row_weights(rows, out=work("rhs_weights", table.shape))
        return np.multiply(weights, table, out=table)

    vol2 = -step_sum(weighted(*chunk) for chunk in chunks(box))
    delta = abs(volume - vol2)
    if delta > 1e-7 * (1.0 + abs(volume)):
        warnings.warn(f"weak-form volume quadrature disagreement "
                      f"{delta:.3e}", stacklevel=2)
    return WeakRhs(init + volume, init, volume, vol_time, vol_space, delta)




def _lhs_term(vols, work) -> _Term:
    """The weak LHS, from the terms dt_n |P| C(U)_P^n phi_P^n on each
    chunk's ``head``."""
    return _Term(lambda c: None if c.head is None else dict(
        lhs=step_values(_paired(c.head.dt, c.head.conv, c.head.phi, vols,
                                out=work("terms", c.head.conv.shape)))),
        lambda sums: sums.total("lhs"))


def weak_lhs(c_field, interp: InterpolatedTest) -> float:
    """Exact pairing int int C(U) I(phi) of the piecewise constants; C(U)
    (``assemble_convection``) and the interpolate must share their level."""
    _same_level("weak_lhs", c_field, interp)
    mesh = interp.mesh
    return _stage(_lhs_term(mesh.cell_volumes, Workspace()), mesh,
                  interp.grid, mesh.n_cells, dict(conv=c_field.values),
                  interp=interp, live=interp.live)


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

def _translate_term(mesh, grid, weights) -> _Term:
    """The translate functional with the face/step weights, from the
    chunk's face and time jumps."""

    def terms(c):
        work = c.level.work
        # the level pairs (n, n+1) of the steps n < N - 1 of the chunk
        pairs = min(c.steps.stop, grid.n_steps - 1) - c.start
        return dict(
            space=step_values(translate_space_terms(
                c.face_jumps, weights.omega_face, work)),
            time=step_values(translate_time_terms(
                c.time_jumps[:pairs],
                weights.delta_half[c.start:c.start + pairs],
                mesh.cell_volumes, work)))

    return _Term(terms, lambda sums: sums.total("space") + sums.total("time"))


def _bounds_term(pair, layout) -> _Term:
    """sup |q| over the steps (and sup |v| when larger), the range of q
    over the knots, and the constant of ``measured_constant``."""

    def terms(c):
        sups = dict(q_range=c.q_range, sup_q=float(np.abs(c.qv).max()),
                    sup_g=float(np.abs(pair.g(c.qk)).max()))
        if c.vv is not None:
            sups["sup_v"] = float(layout.magnitude(c.vv).max())
        return sups

    def result(sums) -> dict:
        q_range, sup_q = _q_range(sums), max(sums["sup_q"])
        sup_v = max(sums["sup_v"]) if "sup_v" in sums else None
        return dict(sup_norm=sup_q if sup_v is None else max(sup_q, sup_v),
                    measured_c=_measured_c(pair, q_range, sup_v,
                                           max(sums["sup_g"])),
                    q_min=q_range[0], q_max=q_range[1])

    return _Term(terms, result)


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
               keep=None, work=None) -> LevelSums:
    """Every consistency quantity of one level: the walk (``_walk``) over
    chunks of its time steps with every term, each chunk's face fluxes,
    beta, F.n, the flux-defect table and the face and time jumps of q
    formed once for all.  The terms weighted by phi (X1, X2, the weak LHS
    and the signed time residual) are formed on each chunk's ``head``, the
    steps before ``interp.live``, with d_t beta, the divergence, C(U) and
    phi formed there only and the fluxes, F.n, the table and beta sliced
    from the chunk's; no chunk past it forms them.

    ``levels`` is the level's ``schemes.LevelSource``: it hands out the q
    and v levels (v None for colocated 1D) of the knots n..m+1 of each
    chunk n..m as the walk reaches it, so q and v are never held whole.
    ``fluxes(qv, vv)`` gives the face fluxes of the levels of some steps
    (the layout's ``operators.flux_rule``), ``q_exact(x, t)`` the limit
    (q0 = q_exact(., 0)), ``weights`` the face/step translate weights and
    ``rhs`` the level-independent ``weak_rhs``.  ``order`` is the spatial order of the time residual;
    the L1 distance uses the source's cell rule (``levels.quad``), and
    ``init_order`` is the order of the initialization residual.  With a
    ``cauchy`` reference (the coarser level's q, with a ``Reference``'s
    ``at``), its order-2 L1 distance is a term too.  ``keep(start,
    levels)``, when given, is handed the q levels of the knots start.. of
    each chunk in turn (the source's reused buffer, to be copied).

    The terms are the stages' (X1, X2, the init, time and flux residuals,
    R1/R2, the weak LHS), whose results, route checks, support check and
    non-finite flux error are theirs, bit for bit, and the translate
    functional, the L1 distances and the sup/min/max reductions.  Their
    chunk tables go into the ``quadrature.Workspace`` ``work`` (a new one
    by default): each term's into its buffer "terms", reduced before the
    next term forms its own, the defect table into "table", the face and
    time jumps into "face_jumps" and "time_jumps", scratch into "a" and
    "b", the L1 distances into their own (``fields.l1_steps``).
    """
    _same_level("level_pass", levels, interp)
    _check_support(interp)
    mesh, grid, layout, dual = (levels.mesh, levels.grid, levels.layout,
                                levels.dual)
    vols, phi = mesh.cell_volumes, interp.phi
    work = Workspace() if work is None else work
    defects = _FluxDefects(mesh, layout, dual, pair, work)
    jumps = _JumpTerms(mesh, layout, dual, work)

    def l1_term(quad, ev):
        l1 = l1_steps(quad, grid, ev, work)
        return _Term(lambda c: dict(l1=l1(c.steps, c.qv)),
                     lambda sums: sums.total("l1"))

    terms = {} if keep is None else dict(keep=_Term(
        lambda c: keep(c.start, c.qk), lambda sums: None))
    terms.update(
        x1=_x1_term(interp, vols, work), x2=_x2_term(defects, interp),
        init=_init_term(mesh, lambda x: q_exact(x, 0.0), phi, pair,
                        init_order),
        time=_time_term(phi, mesh, grid, order, pair), res_flux=defects.term,
        jumps=jumps.term, translate=_translate_term(mesh, grid, weights),
        lhs=_lhs_term(vols, work),
        l1=l1_term(levels.quad, levels.on_nodes(q_exact)),
        bounds=_bounds_term(pair, layout))
    if cauchy is not None:
        quad = CellQuadrature(mesh, 2)
        terms["l1_cauchy"] = l1_term(quad, cauchy.at(quad.flat_points()))
    got = _walk(SimpleNamespace(
        mesh=mesh, grid=grid,
        per_step=mesh.n_cells * mesh.cell_faces.shape[1] * layout.pieces,
        source=levels, held={}, layout=layout, dual=dual, pair=pair,
        fluxes=fluxes, interp=interp, defects=defects, live=interp.live,
        pairs=(jumps.p, jumps.r), work=work), terms)
    return LevelSums(
        got["x1"], got["x2"], got["init"], got["time"], got["res_flux"],
        got["jumps"], got["translate"], _gap(got["lhs"], rhs), got["l1"],
        **got["bounds"], l1_cauchy=got.get("l1_cauchy", np.nan))
