import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlab import consistency, geometry, quadrature
from fvlab.consistency import (RouteMismatchError, compute_X1, compute_X2,
                               jump_sums, level_pass, measured_constant,
                               residual_flux, residual_flux_terms,
                               residual_init, residual_time, weak_form_gap,
                               weak_lhs, weak_rhs)
from fvlab.fields import (TIME_PROFILES, CellScalarField, FaceField,
                          InterpolatedTest, Reference,
                          SupportError, TestFunction,
                          default_translate_weights, face_jumps,
                          interpolate_test,
                          translate_functional)
from fvlab.geometry import (build_cartesian, build_dual_mac, build_dual_rt,
                            build_intervals, build_time_grid)
from fvlab.operators import (FACE_SCHEMES, BetaFamily, FluxFamily,
                             assemble_convection, flux_colocated_upwind_1d,
                             flux_dot_n, flux_rule, flux_staggered,
                             get_pair, staggered_flux_rule,
                             telescoping_defect, upwind_1d_flux_rule)
from fvlab.quadrature import BoxQuadrature, Workspace
from fvlab.layouts import COLOCATED_1D, MAC, RT, get_layout
from fvlab.schemes import (CFLError, LevelSource, ManufacturedLevels,
                           SchemeConfig, sample_manufactured, scheme_levels)
from fvlab.study import StudyConfig, build_level, manufactured_solution

from _oracles import (assert_bitwise, brute_force_flux_residual,
                      defect_table_broadcast, flux_pieces_broadcast,
                      jump_tables_broadcast,
                      materialise, per_step_sum, phi_weighted_full,
                      residual_terms_broadcast, residual_time_slab,
                      separable_phi, weak_rhs_whole, x2_tables_broadcast)
from _strategies import (constant_levels, flux_levels, graded_meshes,
                         interior_support_boxes, interval_meshes,
                         perturbed_meshes, support_boxes, time_grids)


def bump2d():
    return TestFunction(((0.2, 0.8), (0.2, 0.8)), 0.35, time_profile="initial")


def manufactured_mac(n=8, T=0.5, scheme="upwind"):
    mesh = build_cartesian(n, n)
    grid = build_time_grid(T, n)
    dual = build_dual_mac(mesh)
    qf = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) * np.cos(t)
    vf = lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                      (x.shape[0], 2)).copy()
    pair = get_pair("id")
    q, v = sample_manufactured(qf, vf, "mac", mesh, dual, grid)
    flux = flux_staggered(q, v, pair, scheme=scheme)
    return mesh, grid, dual, pair, q, v, flux, qf, vf


# ---------------------------------------------------------------- X1

def test_x1_constant_beta_zero():
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 4)
    betas = BetaFamily(mesh, grid, np.full((5, 16), 3.0))
    interp = interpolate_test(bump2d(), mesh, grid)
    res = compute_X1(betas, interp)
    assert res.value == 0.0 and res.by_parts == 0.0


def test_x1_zero_interpolate():
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(1.0, 4)

    class Zero(TestFunction):
        def _time_factor(self, t, derivative=False):
            return np.zeros(np.shape(t))

    betas = BetaFamily(mesh, grid,
                       np.random.default_rng(0).normal(size=(5, 64)))
    interp = interpolate_test(Zero(((0.3, 0.7), (0.3, 0.7)), 0.5), mesh, grid)
    assert compute_X1(betas, interp).value == 0.0


def test_x1_linear_beta_against_double_loop_oracle():
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(1.0, 8)
    betas = BetaFamily(mesh, grid, np.tile(grid.knots[:, None], (1, 64)))
    interp = interpolate_test(bump2d(), mesh, grid)
    res = compute_X1(betas, interp)
    # independent double loop: dt_beta = 1, so X1 = sum dt |P| phi_P^n
    phi_cell = interp.cells()
    oracle = 0.0
    for n in range(grid.n_steps):
        for c in range(mesh.n_cells):
            oracle += grid.steps[n] * mesh.cell_volumes[c] * phi_cell[n, c]
    assert res.value == pytest.approx(oracle, rel=1e-13)
    assert res.by_parts == pytest.approx(oracle, rel=1e-12)


def test_x1_routes_agree_on_random_data():
    mesh = build_cartesian(6, 6, grading=1.1)
    grid = build_time_grid(0.7, 5, pattern="alternating", ratio=1.4)
    rng = np.random.default_rng(7)
    betas = BetaFamily(mesh, grid, rng.normal(size=(6, 36)))
    interp = interpolate_test(bump2d(), mesh, grid)
    res = compute_X1(betas, interp)  # raises on route mismatch
    assert np.isfinite(res.value)


# ---------------------------------------------------------------- X2

def test_x2_zero_flux():
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    interp = interpolate_test(bump2d(), mesh, grid)
    zero = flux
    zero.values = np.zeros_like(flux.values)
    res = compute_X2(zero, interp, q=q, v=v, pair=pair)
    assert res.value == 0.0


def test_x2_support_violation_raises():
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    wide = TestFunction(((0.05, 0.95), (0.05, 0.95)), 0.35)
    interp = interpolate_test(wide, mesh, grid)
    with pytest.raises(SupportError):
        compute_X2(flux, interp, q=q, v=v, pair=pair)


def test_x2_constant_flux_two_routes():
    # constant F: the direct route reduces to the face-mean/gradient route
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    qc, vc = sample_manufactured(
        lambda x, t: np.ones(x.shape[0]),
        lambda x, t: np.broadcast_to(np.array([0.8, -0.4]),
                                     (x.shape[0], 2)).copy(),
        "mac", mesh, dual, grid)
    fluxc = flux_staggered(qc, vc, pair)
    interp = interpolate_test(bump2d(), mesh, grid)
    res = compute_X2(fluxc, interp, q=qc, v=vc, pair=pair)
    # oracle: direct sum with the constant vector F = (0.8, -0.4)
    interior = mesh.interior_cell_mask
    phi_cell, _, grad_phi = materialise(interp)
    direct = 0.0
    F = np.array([0.8, -0.4])
    for n in range(grid.n_steps):
        for c in np.nonzero(interior)[0]:
            acc = 0.0
            for k in range(4):
                f = mesh.cell_faces[c, k]
                acc += mesh.face_measures[f] * np.dot(F, mesh.cell_face_normals[c, k]) \
                    * phi_cell[n, c]
            direct += grid.steps[n] * acc
    assert res.value == pytest.approx(direct, abs=1e-13)
    # and the gradient form: -sum dt |P| F . grad_phi
    grad_form = -float(np.einsum(
        "n,ncd,d,c->", grid.steps, grad_phi[:-1][:, interior],
        F, mesh.cell_volumes[interior]))
    assert res.value == pytest.approx(grad_form, abs=1e-12)


def test_x2_route_agreement_manufactured():
    for layout in ("mac", "rt"):
        mesh = build_cartesian(8, 8)
        grid = build_time_grid(0.5, 8)
        dual = build_dual_mac(mesh) if layout == "mac" else build_dual_rt(mesh)
        qf = lambda x, t: 1.0 + 0.4 * np.sin(np.pi * x[:, 0]) \
            * np.sin(np.pi * x[:, 1]) * np.cos(t)
        vf = lambda x, t: np.stack([np.cos(x[:, 1]) + 0.2,
                                    0.5 * np.sin(x[:, 0])], axis=-1)
        pair = get_pair("square")
        q, v = sample_manufactured(qf, vf, layout, mesh, dual, grid)
        flux = flux_staggered(q, v, pair, scheme="centered")
        interp = interpolate_test(bump2d(), mesh, grid)
        # raises on a >1e-10 route mismatch
        res = compute_X2(flux, interp, q=q, v=v, pair=pair)
        assert np.isfinite(res.value)
        assert res.gradient_route == pytest.approx(res.value, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_x1_x2_routes_agree_on_random_levels(data):
    # random fields and their flux on MAC, RT and colocated 1D levels, and
    # a test function of either profile that clears the non-interior cells:
    # both pairings' route checks hold (each raises on a mismatch)
    layout, dual, pair, q, v, flux = data.draw(flux_levels(min_cells=3))
    mesh, grid = q.mesh, q.grid
    phi = TestFunction(data.draw(interior_support_boxes(mesh)),
                       data.draw(st.floats(0.1, 0.95)) * grid.final_time,
                       data.draw(st.sampled_from(TIME_PROFILES)))
    interp = interpolate_test(phi, mesh, grid)
    assert interp.interior_support_clear()
    x1 = compute_X1(BetaFamily.from_field(q, pair), interp)
    x2 = compute_X2(flux, interp, q=q, v=v, pair=pair)
    assert np.isfinite([x1.value, x1.by_parts, x2.value, x2.gradient_route]).all()


def test_stages_reject_an_interpolate_on_another_time_grid():
    # interp on an alternating grid with the step count of the fields: X2
    # used to come out as 0.0012677 instead of 0.0012129, silently
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    alternating = build_time_grid(0.5, 8, pattern="alternating", ratio=2.0)
    interp = interpolate_test(bump2d(), mesh, alternating)
    betas = BetaFamily.from_field(q, pair)
    with pytest.raises(ValueError, match="compute_X2: .* time grids"):
        compute_X2(flux, interp, q=q, v=v, pair=pair)
    with pytest.raises(ValueError, match="compute_X1: .* time grids"):
        compute_X1(betas, interp)
    # the same knots on another grid object are the same level
    same = interpolate_test(bump2d(), mesh, build_time_grid(0.5, 8))
    assert compute_X2(flux, same, q=q, v=v, pair=pair).value == \
        compute_X2(flux, interpolate_test(bump2d(), mesh, grid), q=q, v=v,
                   pair=pair).value


def test_stages_reject_fields_on_another_mesh():
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    # equal geometry, another object: a field of another level
    _, _, _, _, q2, v2, _, _, _ = manufactured_mac(8)
    betas = BetaFamily.from_field(q, pair)
    interp = interpolate_test(bump2d(), q2.mesh, grid)
    with pytest.raises(ValueError, match="compute_X1: .* meshes"):
        compute_X1(betas, interp)
    with pytest.raises(ValueError, match="compute_X2: .* meshes"):
        compute_X2(flux, interp, q=q, v=v, pair=pair)
    with pytest.raises(ValueError, match="compute_X2: .* meshes"):
        compute_X2(flux, interpolate_test(bump2d(), mesh, grid), q=q, v=v2,
                   pair=pair)
    with pytest.raises(ValueError, match="jump_sums: .* meshes"):
        jump_sums(q, v2)
    with pytest.raises(ValueError, match="residual_time: .* meshes"):
        residual_time(betas, q2, bump2d(), pair)


def test_weak_lhs_rejects_convection_of_another_level():
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    c_values = assemble_convection(BetaFamily.from_field(q, pair), flux)
    finer = interpolate_test(bump2d(), mesh, build_time_grid(0.5, 16))
    with pytest.raises(ValueError, match="weak_lhs"):
        weak_lhs(c_values, finer)
    with pytest.raises(ValueError, match="weak_lhs"):
        weak_form_gap(c_values, finer, weak_rhs(pair, qf, vf, finer.phi))


def test_weak_lhs_rejects_convection_on_another_time_grid():
    # C(U) of 8 uniform steps against an interpolate on an alternating grid
    # of 8 steps: the shapes agree, and the pairing used to come out as
    # 0.0010332817 instead of 0.0010380342, silently
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    conv = assemble_convection(BetaFamily.from_field(q, pair), flux)
    assert conv.mesh is mesh and conv.grid is grid
    assert not conv.values.flags.writeable
    alternating = build_time_grid(0.5, 8, pattern="alternating", ratio=2.0)
    interp = interpolate_test(bump2d(), mesh, alternating)
    assert interp.cells(np.s_[:-1]).shape == conv.values.shape
    with pytest.raises(ValueError, match="weak_lhs: .* time grids"):
        weak_lhs(conv, interp)
    with pytest.raises(ValueError, match="weak_lhs: .* time grids"):
        weak_form_gap(conv, interp, weak_rhs(pair, qf, vf, interp.phi))
    assert weak_lhs(conv, interpolate_test(bump2d(), mesh, grid)) == \
        pytest.approx(0.0010380342, rel=1e-7)


# ---------------------------------------------------------------- residuals

def test_residual_init_constant_q0():
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(1.0, 4)
    pair = get_pair("id")
    q, _ = sample_manufactured(lambda x, t: np.full(x.shape[0], 2.0),
                               lambda x, t: np.zeros((x.shape[0], 2)),
                               "mac", mesh, build_dual_mac(mesh), grid)
    betas = BetaFamily.from_field(q, pair)
    res = residual_init(betas, lambda x: np.full(x.shape[0], 2.0),
                        bump2d(), pair)
    assert res.signed == 0.0
    assert res.cellwise == 0.0
    assert res.l1_majorant == 0.0


def test_residual_init_zero_initial_testfunction():
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(1.0, 4)
    pair = get_pair("id")
    phi = TestFunction(((0.2, 0.8), (0.2, 0.8)), 0.35, time_profile="interior")
    q, _ = sample_manufactured(lambda x, t: x[:, 0],
                               lambda x, t: np.zeros((x.shape[0], 2)),
                               "mac", mesh, build_dual_mac(mesh), grid)
    betas = BetaFamily.from_field(q, pair)
    res = residual_init(betas, lambda x: x[:, 0], phi, pair)
    assert res.signed == 0.0


def test_residual_init_decay_orders():
    pair = get_pair("id")
    q0 = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    cellwise = []
    l1 = []
    hs = []
    for n in (8, 16, 32):
        mesh = build_cartesian(n, n)
        grid = build_time_grid(1.0, 2)
        q, _ = sample_manufactured(lambda x, t: q0(x),
                                   lambda x, t: np.zeros((x.shape[0], 2)),
                                   "mac", mesh, build_dual_mac(mesh), grid)
        betas = BetaFamily.from_field(q, pair)
        res = residual_init(betas, q0, bump2d(), pair)
        assert abs(res.signed) <= res.cellwise * (1 + 1e-12)
        cellwise.append(res.cellwise)
        l1.append(res.l1_majorant)
        hs.append(mesh.delta())
    r_cell = np.polyfit(np.log(hs), np.log(cellwise), 1)[0]
    r_l1 = np.polyfit(np.log(hs), np.log(l1), 1)[0]
    assert r_cell >= 1.7          # per-cell signed majorant: order ~ 2
    # Lipschitz L1 majorant: order 1 asymptotically; the growing P_int
    # coverage drags the coarse-level slope below 1
    assert np.all(np.diff(l1) < 0)
    assert 0.4 <= r_l1 <= 1.4


def test_residual_time_constant_in_time():
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    qc, _ = sample_manufactured(lambda x, t: x[:, 0] + x[:, 1],
                                vf, "mac", mesh, dual, grid)
    betas = BetaFamily.from_field(qc, pair)
    res = residual_time(betas, qc, bump2d(), pair)
    assert res.signed == 0.0 and res.majorant == 0.0


def test_residual_time_single_step():
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(1.0, 1)
    dual = build_dual_mac(mesh)
    pair = get_pair("id")
    q, _ = sample_manufactured(lambda x, t: x[:, 0],
                               lambda x, t: np.zeros((x.shape[0], 2)),
                               "mac", mesh, dual, grid)
    betas = BetaFamily.from_field(q, pair)
    res = residual_time(betas, q, bump2d(), pair)
    assert res.signed == 0.0 and res.majorant == 0.0


def test_residual_time_majorant_decay_and_ordering():
    vals = []
    hs = []
    for n in (8, 16, 32):
        mesh = build_cartesian(n, n)
        grid = build_time_grid(0.5, n)
        dual = build_dual_mac(mesh)
        pair = get_pair("id")
        qf = lambda x, t: np.sin(np.pi * x[:, 0]) * np.cos(t)
        q, _ = sample_manufactured(qf, lambda x, t: np.zeros((x.shape[0], 2)),
                                   "mac", mesh, dual, grid)
        betas = BetaFamily.from_field(q, pair)
        res = residual_time(betas, q, bump2d(), pair)
        assert abs(res.signed) <= res.majorant * (1 + 1e-12)
        vals.append(res.majorant)
        hs.append(grid.dt_max)
    # order 1 in dt up to the growing P_int coverage at coarse levels
    pair_rates = np.diff(np.log(vals)) / np.diff(np.log(hs))
    assert np.all(np.diff(vals) < 0)
    assert pair_rates[-1] >= 0.8


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residual_time_matches_the_unfactored_slab_rule(data):
    # phi's slab integrals as (time rule of tf) * (cell rule of B on the
    # support cells) against phi.value on every node of the slab rule of
    # every cell, on graded, perturbed and interval levels: the signed sums
    # agree within a few ulps of their term mass
    layout, dual, pair, q, v, flux = data.draw(flux_levels(min_cells=3))
    mesh, grid = q.mesh, q.grid
    phi = TestFunction(data.draw(support_boxes(mesh.dim, mesh)),
                       data.draw(st.floats(0.1, 0.95)) * grid.final_time,
                       data.draw(st.sampled_from(TIME_PROFILES)))
    betas = BetaFamily.from_field(q, pair)
    want, mass = residual_time_slab(betas, phi)
    got = residual_time(betas, q, phi, pair).signed
    assert abs(got - want) <= 8 * np.finfo(float).eps * mass


# ---------------------------------------------------------------- flux residual

def test_residual_flux_constant_states_zero():
    for layout in ("mac", "rt"):
        mesh = build_cartesian(4, 4)
        grid = build_time_grid(1.0, 3)
        dual = build_dual_mac(mesh) if layout == "mac" else build_dual_rt(mesh)
        pair = get_pair("slogs")
        q, v = sample_manufactured(
            lambda x, t: np.full(x.shape[0], 1.5),
            lambda x, t: np.broadcast_to(np.array([1.0, -2.0]),
                                         (x.shape[0], 2)).copy(),
            layout, mesh, dual, grid)
        flux = flux_staggered(q, v, pair)
        r = residual_flux(flux, q, v, pair, mesh, grid, layout, dual)
        assert r == 0.0


def test_residual_flux_1d_two_cell_upwind_defect():
    # two interior cells of width h with u = (0, 1), one step dt:
    # R = dt * diam(P) * |u_P - u_{P-}| summed over interior cells
    mesh = build_intervals(4)
    h = 0.25
    grid = build_time_grid(0.1, 1)
    u = CellScalarField(mesh, grid, np.tile([0.0, 0.0, 1.0, 1.0], (2, 1)))
    pair = get_pair("id")
    flux = flux_colocated_upwind_1d(u)
    r = residual_flux(flux, u, None, pair, mesh, grid, "colocated1d")
    # interior cells are 1 and 2; only cell 2's left face carries |1-0|
    assert r == pytest.approx(0.1 * h * 1.0, rel=1e-14)


def test_residual_flux_1d_centroid_data_every_defect_h():
    mesh = build_intervals(8)
    grid = build_time_grid(1.0, 2)
    u = CellScalarField(mesh, grid,
                        np.tile(mesh.cell_centroids[:, 0], (3, 1)))
    pair = get_pair("id")
    flux = flux_colocated_upwind_1d(u)
    h = 1.0 / 8
    # oracle: every interior cell contributes dt*h*h per left face per step
    interior = int(mesh.interior_cell_mask.sum())
    expect = 1.0 * h * h * interior
    r = residual_flux(flux, u, None, pair, mesh, grid, "colocated1d")
    assert r == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("layout", ["mac", "rt"])
def test_residual_flux_bitwise_matches_enumeration(layout):
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(0.5, 3)
    dual = build_dual_mac(mesh) if layout == "mac" else build_dual_rt(mesh)
    rng = np.random.default_rng(42)
    pair = get_pair("square")
    q = CellScalarField(mesh, grid, rng.normal(size=(4, 16)))
    if layout == "mac":
        v = FaceField(MAC, mesh, grid, dual,
                      rng.normal(size=(4, mesh.n_faces)))
    else:
        v = FaceField(RT, mesh, grid, dual,
                      rng.normal(size=(4, mesh.n_faces, 2)))
    flux = flux_staggered(q, v, pair, scheme="centered")
    table = residual_flux_terms(flux, q, v, pair, mesh, grid, layout, dual)
    oracle = brute_force_flux_residual(flux, q, v, pair, mesh, grid, layout, dual)
    assert np.array_equal(table, oracle)
    assert residual_flux(flux, q, v, pair, mesh, grid, layout, dual) \
        == per_step_sum(oracle)


@settings(max_examples=30, deadline=None)
@given(flux_levels())
def test_residual_flux_chunks_match_enumeration(case):
    # chunks of 1 step, of N - 1, N and N + 1 steps: the term table is the
    # oracle's byte for byte, and the residual is its per-step sum
    layout, dual, pair, q, v, flux = case
    mesh, grid = q.mesh, q.grid
    oracle = brute_force_flux_residual(flux, q, v, pair, mesh, grid, layout,
                                       dual)
    n = grid.n_steps
    per_step = mesh.n_cells * mesh.cell_faces.shape[1] * oracle.shape[3]
    for steps in sorted({1, max(1, n - 1), n, n + 1}):
        with mock.patch.object(quadrature, "CHUNK_VALUES", steps * per_step):
            table = residual_flux_terms(flux, q, v, pair, mesh, grid, layout,
                                        dual)
            assert table.shape == oracle.shape
            assert table.tobytes() == oracle.tobytes()
            assert residual_flux(flux, q, v, pair, mesh, grid, layout, dual) \
                == per_step_sum(oracle)


def _signed_zeros(values, rng):
    """A copy of values with about a fifth of them +0.0 and a fifth -0.0."""
    values = np.array(values, dtype=float)
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.2] = -0.0
    return values


@settings(max_examples=40, deadline=None)
@given(flux_levels(), st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
def test_chunk_tables_equal_their_broadcasting_forms(case, values, seed):
    # the defect table, the flux residual's terms, X2's gradient and
    # remainder and the R1/R2 tables, formed one face and piece at a time
    # into one workspace reused over chunks of any CHUNK_VALUES, equal
    # their broadcasting forms byte for byte, signs of zeros included:
    # colocated 1D (nf 2, one piece), MAC (4, 2) and RT (4, 4)
    name, dual, pair, q, v, flux = case
    mesh, grid, layout = q.mesh, q.grid, get_layout(name)
    rng = np.random.default_rng(seed)
    qv = _signed_zeros(q.values[:-1], rng)
    vv = None if v is None else _signed_zeros(v.values[:-1], rng)
    fdotn = _signed_zeros(flux_dot_n(flux), rng)
    interp = InterpolatedTest(None, mesh, grid, *(
        _signed_zeros(rng.normal(size=shape), rng) for shape in (
            grid.n_steps + 1, mesh.n_cells, mesh.n_faces,
            (mesh.n_cells, mesh.dim))))
    work = Workspace()
    defects = consistency._FluxDefects(mesh, layout, dual, pair, work)
    jumps = consistency._JumpTerms(mesh, layout, dual, work)
    reduced, step_values = [], consistency.step_values

    def spy(table, mass=False):
        reduced.append(np.array(table))
        return step_values(table, mass)

    per_step = mesh.n_cells * mesh.cell_faces.shape[1] * layout.pieces
    with mock.patch.object(quadrature, "CHUNK_VALUES", values), \
            mock.patch.object(consistency, "step_values", spy):
        for ch in quadrature.chunk_slices(grid.n_steps, per_step):
            dt, tf, qc = grid.steps[ch], interp.tf[ch], qv[ch]
            vc = None if vv is None else vv[ch]
            assert_bitwise(
                layout.flux_pieces(qc, vc, pair, mesh, dual, defects.cells,
                                   Workspace()),
                flux_pieces_broadcast(layout, qc, vc, pair, mesh,
                                      dual)[:, defects.cells])
            want = defect_table_broadcast(defects, fdotn[ch], qc, vc)
            table = defects.table(fdotn[ch], qc, vc)
            assert_bitwise(table, want)
            assert_bitwise(defects.residual_terms(dt, table),
                           residual_terms_broadcast(defects, dt, want))
            reduced.clear()
            defects.x2_terms(dt, qc, vc, table, interp, tf)
            jumps.terms(dt, qc, vc, face_jumps(qc, dt, jumps.p, jumps.r,
                                               Workspace()))
            wants = (x2_tables_broadcast(defects, dt, qc, vc, want, interp, tf)
                     + jump_tables_broadcast(jumps, dt, qc, vc))
            wants = [w for w in wants if w is not None]
            assert len(reduced) == len(wants) == 4 + (vv is not None)
            for got, oracle in zip(reduced, wants):
                assert_bitwise(got, oracle)


class _HeldLevels(LevelSource):
    """Whole q and v levels (v None in 1D) handed out chunk by chunk."""

    def __init__(self, layout, mesh, dual, grid, q, v):
        super().__init__(layout, mesh, dual, grid, 2, None)
        self.q, self.v = q, v

    def chunks(self, slices):
        for ch in slices:
            knots = slice(ch.start, ch.stop + 1)
            yield self.q[knots], None if self.v is None else self.v[knots]


@st.composite
def phi_levels(draw):
    """A level of a layout with random q and v levels, signed zeros among
    them, a flux rule, and a test function on the interior cells that ends
    anywhere in (0, T) with either time profile: graded intervals for
    colocated 1D, graded tensor meshes for MAC and perturbed quadrangles
    for RT, on uniform or alternating time grids."""
    name = draw(st.sampled_from(["colocated1d", "mac", "rt"]))
    layout = get_layout(name)
    mesh = draw({"colocated1d": interval_meshes(min_cells=3),
                 "mac": graded_meshes(max_cells=5, min_cells=3),
                 "rt": perturbed_meshes(max_cells=5, min_cells=3)}[name])
    grid = draw(time_grids(max_steps=8))
    dual = getattr(geometry, layout.dual_builder)(mesh) \
        if layout.dual_builder else None
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = grid.n_steps + 1
    q = _signed_zeros(rng.normal(size=(levels, mesh.n_cells)), rng)
    v = None if not layout.staggered else _signed_zeros(rng.normal(
        size=(levels, mesh.n_faces) + layout.components), rng)
    pair = get_pair(draw(st.sampled_from(["id", "square", "slogs"])))
    fluxes = flux_rule(mesh, layout, dual, pair,
                       draw(st.sampled_from(FACE_SCHEMES)), 0.5,
                       "upwind_zero")
    phi = TestFunction(draw(interior_support_boxes(mesh)),
                       draw(st.floats(0.02, 0.98)) * grid.final_time,
                       draw(st.sampled_from(TIME_PROFILES)))
    return layout, dual, pair, fluxes, q, v, interpolate_test(phi, mesh, grid)


@settings(max_examples=60, deadline=None)
@given(phi_levels(), st.sampled_from([1, None, quadrature.CHUNK_VALUES]),
       st.integers(1, 400))
def test_phi_weighted_terms_stop_at_phi_s_last_live_step(case, values,
                                                         drawn):
    # X1 (both routes), X2 (direct, gradient term, remainder), the weak
    # LHS and the signed time residual, walked over each chunk's head only
    # (the steps before interp.live) by the one-pass level_pass and by the
    # whole-level stages, equal their tables over every step bit for bit,
    # signs of zeros included: at one value a chunk (single steps, each
    # head the whole chunk or none), at the default (one chunk, cut at
    # live) and at a drawn size (chunks that end before, at and after
    # live)
    layout, dual, pair, fluxes, q, v, interp = case
    mesh, grid, phi = interp.mesh, interp.grid, interp.phi
    want = phi_weighted_full(q, v, pair, fluxes, interp, layout, dual)
    qf = CellScalarField(mesh, grid, q)
    vf = None if v is None else FaceField(layout, mesh, grid, dual, v)
    betas = BetaFamily.from_field(qf, pair)
    flux = FluxFamily(layout, mesh, grid,
                      fluxes(q[:-1], None if v is None else v[:-1]), dual)
    with mock.patch.object(quadrature, "CHUNK_VALUES", values or drawn):
        sums = level_pass(
            _HeldLevels(layout, mesh, dual, grid, q, v), pair, fluxes,
            interp, lambda x, t: np.zeros(len(x)),
            default_translate_weights(mesh, grid),
            consistency.WeakRhs(*[0.0] * 6), init_order=2)
        x1, x2 = compute_X1(betas, interp), compute_X2(flux, interp, qf, vf,
                                                        pair)
        stages = dict(
            x1=x1.value, x1_by_parts=x1.by_parts, x2=x2.value,
            x2_gradient=x2.gradient_term, x2_remainder=x2.remainder,
            x2_gradient_route=x2.gradient_route,
            lhs=weak_lhs(assemble_convection(betas, flux), interp),
            time_signed=residual_time(betas, qf, phi, pair).signed)
    passed = dict(
        x1=sums.x1.value, x1_by_parts=sums.x1.by_parts, x2=sums.x2.value,
        x2_gradient=sums.x2.gradient_term, x2_remainder=sums.x2.remainder,
        x2_gradient_route=sums.x2.gradient_route, lhs=sums.gap.lhs,
        time_signed=sums.time.signed)
    hexes = {name: float(value).hex() for name, value in want.items()}
    assert {name: float(value).hex() for name, value in passed.items()} \
        == hexes
    assert {name: float(value).hex() for name, value in stages.items()} \
        == hexes


def test_streamed_flux_stages_stay_in_bounded_memory(transient_mib):
    # 64^2 MAC level, 64 steps: the full (N, NC, nf, pieces) defect table is
    # 16 MiB, and building it whole with its temporaries took 95 MiB
    # (compute_X2) and 62 MiB (residual_flux) above the stage's start
    n = 64
    mesh = build_cartesian(n, n)
    grid = build_time_grid(0.5, n)
    dual = build_dual_mac(mesh)
    sol = manufactured_solution("sinsin_cos")
    pair = get_pair("id")
    q, v = sample_manufactured(sol["q"], sol["v"], "mac", mesh, dual, grid)
    flux = flux_staggered(q, v, pair)
    interp = interpolate_test(bump2d(), mesh, grid)
    stages = {
        "compute_X2": lambda: compute_X2(flux, interp, q=q, v=v, pair=pair),
        "residual_flux": lambda: residual_flux(flux, q, v, pair, mesh, grid,
                                               "mac", dual)}
    transient = {name: transient_mib(stage) for name, stage in stages.items()}
    assert all(size <= 32 for size in transient.values()), transient


def _finest_upwind_1d_level():
    """The scheme source of the finest level of the 1D upwind bench study
    (1024 cells, 512 steps) with the rest of what ``level_pass`` takes."""
    config = StudyConfig(levels=6, nx0=32, layout="colocated1d",
                         field_source="scheme", T=0.25)
    mesh, _, _ = build_level(config, 5)
    sol = manufactured_solution(config.solution)
    levels = scheme_levels(COLOCATED_1D, mesh, None, SchemeConfig(
        q0=lambda x: sol["q"](x, 0.0), T=config.T))
    phi = config.test_function()
    pair = get_pair("id")
    return (levels, pair, upwind_1d_flux_rule(mesh),
            interpolate_test(phi, mesh, levels.grid), sol["q"],
            default_translate_weights(mesh, levels.grid),
            weak_rhs(pair, sol["q"], None, phi))


def test_level_pass_stays_in_bounded_memory(transient_mib):
    # one (N + 1, NC) table of this level is 4 MiB; run stage by stage over
    # the whole level, compute_X2 alone peaked about 20 MiB above its start.
    # The pass marches the scheme chunk by chunk, so not even q is whole
    args = _finest_upwind_1d_level()
    assert (args[0].grid.n_steps, args[0].mesh.n_cells) == (512, 1024)
    size = transient_mib(lambda: level_pass(*args))
    assert size <= 8, size


def _mac_pass_args(source, qf, vf, fluxes=None):
    """What ``level_pass`` takes with the level source of a MAC level,
    whose L1 reference is qf; the identity pair and its upwind flux unless
    ``fluxes`` is given."""
    mesh, grid, pair, phi = source.mesh, source.grid, get_pair("id"), bump2d()
    if fluxes is None:
        fluxes = staggered_flux_rule(mesh, MAC, source.dual, pair)
    return (source, pair, fluxes, interpolate_test(phi, mesh, grid),
            qf, default_translate_weights(mesh, grid),
            weak_rhs(pair, qf, vf, phi))


def _steps_a_chunk(mesh, steps):
    """A CHUNK_VALUES that gives the pass of a MAC level on `mesh` chunks
    of `steps` steps."""
    return steps * mesh.n_cells * mesh.cell_faces.shape[1] * MAC.pieces


def test_streamed_mac_scheme_raises_the_cfl_error_of_the_whole_run():
    # v = (1 + 20 (t - 0.1)^+, 0.5) outgrows the CFL bound of dt (chosen
    # from v at t = 0) at the first knot past 0.1; marched inside the pass
    # two steps a chunk, that step lies in the second chunk, and the pass
    # raises the whole run's CFLError with the same step
    mesh = build_cartesian(8, 8)
    dual = build_dual_mac(mesh)
    velocity = lambda x, t: np.stack(np.broadcast_arrays(
        1.0 + 20.0 * np.maximum(t - 0.1, 0.0), np.full(x.shape[0], 0.5)),
        axis=-1)
    qf = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    cfg = SchemeConfig(q0=lambda x: qf(x, 0.0), T=0.5, velocity=velocity)
    with pytest.raises(CFLError) as whole:
        scheme_levels(MAC, mesh, dual, cfg).collect()
    assert str(whole.value) == "CFL violated at step 3"
    args = _mac_pass_args(scheme_levels(MAC, mesh, dual, cfg), qf, velocity)
    with mock.patch.object(quadrature, "CHUNK_VALUES", _steps_a_chunk(mesh, 2)):
        with pytest.raises(CFLError) as streamed:
            level_pass(*args)
    assert str(streamed.value) == str(whole.value)


def test_streamed_pass_raises_the_missing_flux_of_the_whole_level():
    # a flux rule that loses face 7 from step 3 on, on a sampled level
    # whose cell means are t_n exactly: two steps a chunk, the pass meets
    # it in its second chunk and names the face and step that the whole-
    # level assembly names
    mesh = build_cartesian(8, 8)
    dual = build_dual_mac(mesh)
    grid = build_time_grid(0.5, 8)
    pair = get_pair("id")
    qf = lambda x, t: np.full(x.shape[0], t)
    vf = lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                      (x.shape[0], 2)).copy()
    rule = staggered_flux_rule(mesh, MAC, dual, pair)

    def fluxes(qv, vv):
        values = rule(qv, vv)
        values[qv[:, 0] >= grid.knots[3], 7] = np.nan
        return values

    q, v = sample_manufactured(qf, vf, "mac", mesh, dual, grid)
    flux = FluxFamily(MAC, mesh, grid, fluxes(q.values[:-1], v.values[:-1]),
                      dual)
    with pytest.raises(ValueError) as whole:
        assemble_convection(BetaFamily.from_field(q, pair), flux)
    assert str(whole.value) == "missing flux on face 7 at step 3"
    args = _mac_pass_args(ManufacturedLevels(qf, vf, MAC, mesh, dual, grid),
                          qf, vf, fluxes)
    with mock.patch.object(quadrature, "CHUNK_VALUES", _steps_a_chunk(mesh, 2)):
        with pytest.raises(ValueError) as streamed:
            level_pass(*args)
    assert str(streamed.value) == str(whole.value)


@pytest.mark.parametrize("broken", ["q", "v"])
def test_streamed_level_rejects_non_finite_values(broken):
    # a sampled q (or face velocity) that turns NaN from knot 3 on: two
    # steps a chunk, knot 3 is the first new level of the second chunk,
    # and both the pass and the whole-level collect stop there
    mesh = build_cartesian(8, 8)
    dual = build_dual_mac(mesh)
    grid = build_time_grid(0.5, 8)
    qf = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    vf = lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                      (x.shape[0], 2)).copy()

    def late(f):
        return lambda x, t: f(x, t) + (np.nan if t >= grid.knots[3] else 0.0)

    source = lambda: ManufacturedLevels(
        late(qf) if broken == "q" else qf, late(vf) if broken == "v" else vf,
        MAC, mesh, dual, grid)
    args = _mac_pass_args(source(), qf, vf)
    with mock.patch.object(quadrature, "CHUNK_VALUES", _steps_a_chunk(mesh, 2)):
        with pytest.raises(ValueError, match="^non-finite field values$"):
            level_pass(*args)
    with mock.patch.object(quadrature, "CHUNK_VALUES", 2 * mesh.n_cells):
        with pytest.raises(ValueError, match="^non-finite field values$"):
            source().collect()


def test_level_fields_reject_non_finite_values():
    mesh = build_cartesian(2, 2)
    grid = build_time_grid(1.0, 1)
    dual = build_dual_mac(mesh)
    q = np.zeros((2, mesh.n_cells))
    v = np.zeros((2, mesh.n_faces))
    q[1, 3] = v[0, 2] = np.inf
    with pytest.raises(ValueError, match="^non-finite field values$"):
        CellScalarField(mesh, grid, q)
    with pytest.raises(ValueError, match="^non-finite field values$"):
        FaceField(MAC, mesh, grid, dual, v)


# ---------------------------------------------------------------- constant states

@settings(max_examples=60, deadline=None)
@given(constant_levels())
def test_constant_states_are_exact(case):
    # a constant state makes each quantity below exactly zero on every
    # drawn level; the X1 by-parts route is left out, as its series of
    # beta^n (phi^n - phi^{n-1}) cancels only to rounding (~1e-17)
    layout, pair, q, v, flux, phi = case
    mesh, grid = q.mesh, q.grid
    betas = BetaFamily.from_field(q, pair)
    conv = assemble_convection(betas, flux)
    assert np.all(conv.values[:, mesh.interior_cell_mask] == 0.0)
    assert compute_X1(betas, interpolate_test(phi, mesh, grid)).value == 0.0
    assert residual_flux(flux, q, v, pair, mesh, grid, layout) == 0.0
    jumps = jump_sums(q, v)
    assert jumps.r1 == 0.0 and jumps.r2 == 0.0
    times = residual_time(betas, q, phi, pair)
    assert times.signed == 0.0 and times.majorant == 0.0
    assert translate_functional(q, default_translate_weights(mesh, grid)) \
        == 0.0


# ---------------------------------------------------------------- jump sums

def test_jump_sums_constants():
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(4)
    qc, vc = sample_manufactured(
        lambda x, t: np.full(x.shape[0], 2.0),
        lambda x, t: np.broadcast_to(np.array([1.0, 1.0]),
                                     (x.shape[0], 2)).copy(),
        "mac", mesh, dual, grid)
    res = jump_sums(qc, vc)
    assert res.r1 == 0.0 and res.r2 == 0.0


def test_jump_sums_single_jump_closed_form():
    # single q-jump of 1 across one interior face of a uniform 2D mesh
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(2.0, 4)
    vals = np.where(mesh.cell_centroids[:, 0] < 0.25, 1.0, 0.0)
    # jump across the three faces of the first column boundary... restrict to
    # a single face by a field that differs only across one face
    vals = np.zeros(mesh.n_cells)
    # cells 5 and 9 are adjacent interior cells (structured numbering)
    c_a = 5
    f_shared = None
    for k in range(4):
        f = mesh.cell_faces[c_a, k]
        p, qq = mesh.face_cells[f]
        if qq >= 0:
            other = qq if p == c_a else p
            if mesh.interior_cell_mask[other]:
                f_shared = f
                c_b = other
                break
    vals[c_b] = 1.0
    q = CellScalarField(mesh, grid, np.tile(vals, (5, 1)))
    res = jump_sums(q, None)
    # oracle: cell c_b has up to 4 interior faces each with jump 1
    direct = 0.0
    for n in range(grid.n_steps):
        for c in range(mesh.n_cells):
            for k in range(4):
                f = mesh.cell_faces[c, k]
                p, qq = mesh.face_cells[f]
                if qq < 0:
                    continue
                other = qq if p == c else p
                direct += grid.steps[n] * mesh.cell_diameters[c] \
                    * mesh.face_measures[f] * abs(vals[c] - vals[other])
    assert res.r1 == pytest.approx(direct, rel=1e-13)


def test_jump_sums_mac_quiet_direction():
    # v varying only in x1: the direction-2 dual-edge sum contributes nothing
    mesh = build_cartesian(6, 6)
    grid = build_time_grid(1.0, 2)
    dual = build_dual_mac(mesh)
    vf = lambda x, t: np.stack([np.sin(3.0 * x[:, 0]),
                                np.zeros(x.shape[0])], axis=-1)
    q, v = sample_manufactured(lambda x, t: x[:, 0], vf, "mac", mesh, dual, grid)
    res = jump_sums(q, v)
    # oracle: direction-1 only (left/right opposite pairs)
    direct = 0.0
    cf = mesh.cell_faces
    for n in range(grid.n_steps):
        for c in range(mesh.n_cells):
            a, b = 3, 1   # left, right local faces
            fa, fb = cf[c, a], cf[c, b]
            jump = abs(v.values[n, fa] - v.values[n, fb])
            w = mesh.cell_diameters[c] * (mesh.face_measures[fa]
                                          + mesh.face_measures[fb])
            direct += grid.steps[n] * w * jump
    assert res.r2 == pytest.approx(direct, rel=1e-12)


def test_jump_sums_rt_constant_and_weights():
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 2)
    rt = build_dual_rt(mesh)
    qf = lambda x, t: x[:, 0]
    vf = lambda x, t: np.stack([x[:, 1], x[:, 0]], axis=-1)
    q, v = sample_manufactured(qf, vf, "rt", mesh, rt, grid)
    res = jump_sums(q, v)
    assert res.rt_constant == 3
    # oracle: per cell, 4 adjacent dual-edge jumps with weight 3*diam^2
    direct = 0.0
    for n in range(grid.n_steps):
        for c in range(mesh.n_cells):
            for a, b in rt.dual_edges_local:
                fa, fb = mesh.cell_faces[c, a], mesh.cell_faces[c, b]
                jump = np.sqrt(((v.values[n, fa] - v.values[n, fb]) ** 2).sum())
                direct += grid.steps[n] * 3.0 * mesh.cell_diameters[c] ** 2 * jump
    assert res.r2 == pytest.approx(direct, rel=1e-12)


def test_majorant_ordering_flux_vs_jumps():
    # R <= C_meas (R1 + R2) with the measured product constant
    for layout in ("mac", "rt"):
        mesh = build_cartesian(8, 8)
        grid = build_time_grid(0.5, 4)
        dual = build_dual_mac(mesh) if layout == "mac" else build_dual_rt(mesh)
        pair = get_pair("id")
        qf = lambda x, t: 1.0 + 0.5 * np.sin(np.pi * x[:, 0]) * np.cos(t)
        vf = lambda x, t: np.stack([1.0 + 0.2 * np.sin(x[:, 1]),
                                    0.5 * np.cos(x[:, 0])], axis=-1)
        q, v = sample_manufactured(qf, vf, layout, mesh, dual, grid)
        flux = flux_staggered(q, v, pair, scheme="upwind")
        r = residual_flux(flux, q, v, pair, mesh, grid, layout, dual)
        js = jump_sums(q, v)
        c_meas = measured_constant(q, v, pair)
        assert r <= c_meas * (js.r1 + js.r2) * (1 + 1e-12)


# ---------------------------------------------------------------- weak form

def test_weak_gap_constant_fields_quadrature_floor():
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(0.5, 4)
    dual = build_dual_mac(mesh)
    pair = get_pair("id")
    qf = lambda x, t: np.full(x.shape[0], 2.0)
    vf = lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                      (x.shape[0], 2)).copy()
    q, v = sample_manufactured(qf, vf, "mac", mesh, dual, grid)
    flux = flux_staggered(q, v, pair)
    betas = BetaFamily.from_field(q, pair)
    c = assemble_convection(betas, flux)
    interp = interpolate_test(bump2d(), mesh, grid)
    res = weak_form_gap(c, interp, weak_rhs(pair, qf, vf, interp.phi, panels=24))
    assert res.lhs == 0.0
    assert res.gap <= 1e-12


def test_weak_gap_zero_testfunction():
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)

    class Zero(TestFunction):
        def _time_factor(self, t, derivative=False):
            return np.zeros(np.shape(t))

    betas = BetaFamily.from_field(q, pair)
    c = assemble_convection(betas, flux)
    interp = interpolate_test(Zero(((0.3, 0.7), (0.3, 0.7)), 0.35), mesh, grid)
    res = weak_form_gap(c, interp, weak_rhs(pair, qf, vf, interp.phi))
    assert res.gap == 0.0


def test_weak_gap_manufactured_decay():
    gaps = []
    hs = []
    for n in (8, 16, 32):
        mesh = build_cartesian(n, n)
        grid = build_time_grid(0.5, n)
        dual = build_dual_mac(mesh)
        pair = get_pair("id")
        qf = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) \
            * np.cos(t)
        vf = lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                          (x.shape[0], 2)).copy()
        q, v = sample_manufactured(qf, vf, "mac", mesh, dual, grid)
        flux = flux_staggered(q, v, pair)
        betas = BetaFamily.from_field(q, pair)
        c = assemble_convection(betas, flux)
        interp = interpolate_test(bump2d(), mesh, grid)
        res = weak_form_gap(c, interp, weak_rhs(pair, qf, vf, interp.phi))
        gaps.append(res.gap)
        hs.append(mesh.delta() + grid.dt_max)
    rate = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
    assert np.all(np.diff(gaps) < 0)
    assert rate >= 0.8


def test_boundary_policy_independence_bitwise():
    # switching the boundary flux policy changes no interior-restricted value
    results = {}
    for policy in ("upwind_zero", "zero_flux"):
        mesh = build_cartesian(8, 8)
        grid = build_time_grid(0.5, 4)
        dual = build_dual_mac(mesh)
        pair = get_pair("id")
        qf = lambda x, t: 1.0 + 0.3 * np.sin(np.pi * x[:, 0]) * np.cos(t)
        vf = lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                          (x.shape[0], 2)).copy()
        q, v = sample_manufactured(qf, vf, "mac", mesh, dual, grid)
        flux = flux_staggered(q, v, pair, policy=policy)
        betas = BetaFamily.from_field(q, pair)
        c = assemble_convection(betas, flux)
        interp = interpolate_test(bump2d(), mesh, grid)
        x1 = compute_X1(betas, interp).value
        x2 = compute_X2(flux, interp, q=q, v=v, pair=pair).value
        r = residual_flux(flux, q, v, pair, mesh, grid, "mac", dual)
        js = jump_sums(q, v)
        lhs = weak_lhs(c, interp)
        results[policy] = (x1, x2, r, js.r1, js.r2, lhs)
    a, b = results["upwind_zero"], results["zero_flux"]
    assert a == b


def test_x1_x2_converge_to_their_separate_limits():
    # the time pairing tends to -int beta(q0) phi(.,0) - int int beta d_t phi
    # and the flux pairing to -int int g(q) v . grad phi, each at order ~ 1
    pair = get_pair("id")
    qf = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) \
        * np.cos(t)
    vf = lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                      (x.shape[0], 2)).copy()
    phi = bump2d()
    rhs = weak_rhs(pair, qf, vf, phi, panels=16)
    e1 = []
    e2 = []
    hs = []
    for n in (8, 16, 32):
        mesh = build_cartesian(n, n)
        grid = build_time_grid(0.5, n)
        dual = build_dual_mac(mesh)
        q, v = sample_manufactured(qf, vf, "mac", mesh, dual, grid)
        interp = interpolate_test(phi, mesh, grid)
        betas = BetaFamily.from_field(q, pair)
        flux = flux_staggered(q, v, pair)
        x1 = compute_X1(betas, interp).value
        x2 = compute_X2(flux, interp, q=q, v=v, pair=pair).value
        # the limits of the X1 and X2 pairings: -int beta(q0) phi(., 0)
        # - int int beta d_t phi, and -int int f(q, v) . grad phi
        e1.append(abs(x1 - (rhs.init_term + rhs.volume_time)))
        e2.append(abs(x2 - rhs.volume_space))
        hs.append(mesh.delta() + grid.dt_max)
    for errs in (e1, e2):
        assert np.all(np.diff(errs) < 0)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate >= 0.7


# ---------------------------------------------------------------- route guards
# each guard compares two algebraically equal routes; corrupting one entry
# of one route must make it fire

def test_x1_guard_fires_on_one_corrupt_time_derivative(monkeypatch):
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    interp = interpolate_test(bump2d(), mesh, grid)
    betas = BetaFamily.from_field(q, pair)
    compute_X1(betas, interp)
    centre = int(np.argmax(interp.cells()[0]))
    real = consistency.dt_beta

    def corrupt(betas, grid):
        out = real(betas, grid).copy()
        out[0, centre] += 1.0
        return out

    monkeypatch.setattr(consistency, "dt_beta", corrupt)
    with pytest.raises(RouteMismatchError, match="X1"):
        compute_X1(betas, interp)


def test_x2_guard_fires_on_one_corrupt_face_flux(monkeypatch):
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    interp = interpolate_test(bump2d(), mesh, grid)
    compute_X2(flux, interp, q=q, v=v, pair=pair)
    centre = int(np.argmax(interp.cells()[0]))
    real = consistency.flux_dot_n

    def corrupt(flux):
        out = real(flux).copy()
        out[0, centre, 0] += 1.0
        return out

    monkeypatch.setattr(consistency, "flux_dot_n", corrupt)
    with pytest.raises(RouteMismatchError, match="X2"):
        compute_X2(flux, interp, q=q, v=v, pair=pair)


def test_x2_guard_fires_on_a_corrupt_face_flux_in_the_last_chunk(monkeypatch):
    # the same corruption at the last step, with the remainder streamed over
    # chunks of 3 steps; phi lasts until t = 0.49, past the last knot 0.4375
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    phi = TestFunction(((0.2, 0.8), (0.2, 0.8)), 0.49, time_profile="initial")
    interp = interpolate_test(phi, mesh, grid)
    per_step = mesh.n_cells * 4 * 2
    monkeypatch.setattr(quadrature, "CHUNK_VALUES", 3 * per_step)
    assert len(quadrature.chunk_slices(grid.n_steps, per_step)) == 3
    compute_X2(flux, interp, q=q, v=v, pair=pair)
    centre = int(np.argmax(interp.cells()[-2]))
    real = consistency.flux_dot_n

    def corrupt(flux):
        out = real(flux).copy()
        out[-1, centre, 0] += 1.0
        return out

    monkeypatch.setattr(consistency, "flux_dot_n", corrupt)
    with pytest.raises(RouteMismatchError, match="X2"):
        compute_X2(flux, interp, q=q, v=v, pair=pair)


class _MeshView:
    """A mesh with some attributes replaced."""

    def __init__(self, mesh, **replaced):
        self._mesh = mesh
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._mesh, name)


def test_r1_guard_fires_on_one_dropped_face_pairing():
    mesh, grid, dual, pair, q, v, flux, qf, vf = manufactured_mac(8)
    jump_sums(q, v)
    # the face route loses one interior face; the cell route keeps it
    mask = mesh.interior_face_mask.copy()
    fc = mesh.face_cells
    jumps = np.where(mask, np.abs(q.values[0, fc[:, 0]] - q.values[0, fc[:, 1]]),
                     0.0)
    mask[int(np.argmax(jumps))] = False
    view = _MeshView(mesh, interior_face_mask=mask)
    with pytest.raises(RouteMismatchError, match="R1"):
        jump_sums(CellScalarField(view, grid, q.values),
                  FaceField(MAC, view, grid, dual, v.values))


def test_a_flipped_cell_normal_makes_the_flux_checks_fail():
    # mutation: one interior RT cell sees its faces with inward normals
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(0.5, 8)
    dual = build_dual_rt(mesh)
    qf = lambda x, t: 1.0 + 0.4 * np.sin(np.pi * x[:, 0]) \
        * np.sin(np.pi * x[:, 1]) * np.cos(t)
    vf = lambda x, t: np.stack([np.cos(x[:, 1]) + 0.2,
                                0.5 * np.sin(x[:, 0])], axis=-1)
    pair = get_pair("square")
    q, v = sample_manufactured(qf, vf, "rt", mesh, dual, grid)
    flux = flux_staggered(q, v, pair, scheme="centered")
    interp = interpolate_test(bump2d(), mesh, grid)
    compute_X2(flux, interp, q=q, v=v, pair=pair)
    defect, scale = telescoping_defect(flux)
    assert np.all(defect <= 1e-12 * scale)
    centre = int(np.argmax(interp.cells()[0]))
    assert mesh.interior_cell_mask[centre]
    normals = mesh.cell_face_normals.copy()
    normals[centre] *= -1.0
    view = _MeshView(mesh, cell_face_normals=normals)
    q_view = CellScalarField(view, grid, q.values)
    v_view = FaceField(RT, view, grid, dual, v.values)
    flux_view = FluxFamily(RT, view, grid, flux.values, dual)
    defect, scale = telescoping_defect(flux_view)
    assert np.any(defect > 1e-12 * scale)
    with pytest.raises(RouteMismatchError, match="X2"):
        compute_X2(flux_view, interpolate_test(bump2d(), view, grid),
                   q=q_view, v=v_view, pair=pair)


def test_weak_rhs_self_check_warns_on_coarse_rule():
    # one 2-point panel per axis cannot resolve the bump: the order+2 rerun
    # disagrees and the self-check reports it
    sol = manufactured_solution("sinsin_cos")
    with pytest.warns(UserWarning,
                      match="weak-form volume quadrature disagreement"):
        rhs = weak_rhs(get_pair("id"), sol["q"], sol["v"], bump2d(),
                       order=2, panels=1)
    assert rhs.check_delta > 1e-7 * (1.0 + abs(rhs.volume_term))


def _plain(f):
    """f as a plain closure: no ``at`` or ``on_grid``, so the evaluation
    falls back to one call on every node."""
    return None if f is None else (lambda x, t: f(x, t))


@pytest.mark.parametrize("closure", ["reference", "plain"])
@pytest.mark.parametrize("beta", ["id", "square", "slogs"])
@pytest.mark.parametrize("solution", ["constant", "sinsin_cos",
                                      "sinsin_shear", "bump_advect_1d"])
def test_weak_rhs_equals_pointwise_evaluation(solution, beta, closure):
    # every reported term is one flat dot of the box weights with the
    # integrand at the box nodes; the limit fields and phi evaluated point
    # by point give the same bits, and so does the order+2 rerun of the
    # self-check, reduced row by row
    sol = manufactured_solution(solution)
    q_exact, v_exact = sol["q"], sol["v"]
    if closure == "plain":
        q_exact, v_exact = _plain(q_exact), _plain(v_exact)
    support = ((0.3, 0.8),) if sol["dim"] == 1 else ((0.2, 0.8), (0.3, 0.7))
    phi = TestFunction(support, 0.3)
    pair = get_pair(beta)
    dim = phi.dim
    with warnings.catch_warnings():
        # the coarse rule may be reported by the self-check
        warnings.simplefilter("ignore")
        rhs = weak_rhs(pair, q_exact, v_exact, phi, order=4, panels=3)
    space = BoxQuadrature(list(support), 3, 4)
    x0 = space.points
    init = -space.integrate(pair.beta(q_exact(x0, 0.0))
                            * separable_phi(phi, x0, 0.0))

    def time_part(pts):
        x, t = pts[:, :dim], pts[:, dim]
        return pair.beta(q_exact(x, t)) * separable_phi(phi, x, t, "dt")

    def space_part(pts):
        x, t = pts[:, :dim], pts[:, dim]
        grad = separable_phi(phi, x, t, "grad")
        if v_exact is None:
            return pair.g(q_exact(x, t)) * grad[:, 0]
        return pair.g(q_exact(x, t)) * np.einsum("nd,nd->n", v_exact(x, t),
                                                 grad)

    box = BoxQuadrature(list(support) + [(0.0, 0.3)], 3, 4)
    time_int = box.integrate(time_part(box.points))
    space_int = box.integrate(space_part(box.points))
    assert rhs.init_term == init
    assert rhs.volume_time == -time_int
    assert rhs.volume_space == -space_int
    volume = -time_int + -space_int
    # the order+2 check: the documented summation order of the weighted
    # integrand, one row per node of the first axis
    box = BoxQuadrature(list(support) + [(0.0, 0.3)], 3, 6)
    terms = box.weights * (time_part(box.points) + space_part(box.points))
    vol2 = -per_step_sum(terms.reshape(box.grid_axes[0].size, -1))
    assert rhs.check_delta == abs(volume - vol2)


# a velocity that changes in time, next to the steady ones of the solutions
_UNSTEADY_V = Reference(
    lambda x: np.stack([1.0 + 0.3 * np.sin(np.pi * x[:, 0]),
                        0.5 + 0.2 * np.cos(np.pi * x[:, 1])], axis=-1),
    lambda s, t: s * (1.0 + 0.5 * np.sin(3.0 * t)))


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       solution=st.sampled_from(["constant", "sinsin_cos", "sinsin_shear",
                                 "bump_advect_1d"]),
       closure=st.sampled_from(["reference", "plain"]),
       beta=st.sampled_from(["id", "square", "slogs"]),
       order=st.integers(2, 5), panels=st.integers(1, 3))
def test_weak_rhs_chunks_match_whole_box(data, solution, closure, beta,
                                         order, panels):
    # the integrands formed over chunks of the first axis, the last one
    # ragged, give all six fields of the whole-box evaluation bit for bit;
    # "constant" is a plain closure q in either case
    sol = manufactured_solution(solution)
    q_exact, v_exact = sol["q"], sol["v"]
    if v_exact is not None and data.draw(st.booleans()):
        v_exact = _UNSTEADY_V
    if closure == "plain":
        q_exact, v_exact = _plain(q_exact), _plain(v_exact)
    phi = TestFunction(data.draw(support_boxes(sol["dim"])),
                       data.draw(st.floats(0.05, 0.5)),
                       data.draw(st.sampled_from(["initial", "interior"])))
    pair = get_pair(beta)
    n_first = order * panels
    per_row = (order * panels) ** sol["dim"] // n_first
    rows = data.draw(st.sampled_from(
        [r for r in range(1, n_first) if n_first % r] or [1]))
    with warnings.catch_warnings():
        # the coarse rules may be reported by the self-check
        warnings.simplefilter("ignore")
        want = weak_rhs_whole(pair, q_exact, v_exact, phi, order, panels)
        with mock.patch.object(quadrature, "CHUNK_VALUES", rows * per_row):
            assert len(quadrature.chunk_slices(n_first, per_row)) > 1
            got = weak_rhs(pair, q_exact, v_exact, phi, order, panels)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_weak_rhs_stays_in_bounded_memory(transient_mib):
    # the study defaults (order 8, 12 panels, and the order-10 self-check
    # box of 1.7 M nodes): forming each integrand on the whole box took
    # 93.5 MiB above the call's start, and the check box's flat weights
    # and integrand vector 29.3 MiB; streamed, the check adds nothing to
    # the order-8 box, whose flat weights and integrand vector take 6.75
    # MiB each.  With v broadcast over time and each integrand written
    # into its destination the call peaks at 16.0 MiB (18.4 MiB before),
    # and the bound is that plus 10 %
    sol = manufactured_solution("sinsin_cos")
    size = transient_mib(lambda: weak_rhs(
        get_pair("id"), sol["q"], sol["v"], bump2d()))
    assert size <= 17.6, size


def test_weak_rhs_check_box_is_never_held_whole():
    # the order+2 box is reduced chunk by chunk from its per-axis weights:
    # neither its flat weights nor its points are ever built
    boxes = []

    class Recorded(BoxQuadrature):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            boxes.append(self)

    sol = manufactured_solution("sinsin_cos")
    with mock.patch.object(consistency, "BoxQuadrature", Recorded):
        rhs = weak_rhs(get_pair("id"), sol["q"], sol["v"], bump2d())
    assert np.isfinite(rhs.check_delta)
    space, volume, check = boxes
    assert "weights" in vars(volume)
    assert "weights" not in vars(check) and "points" not in vars(check)
