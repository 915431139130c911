import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (CLOSED_FORMS, assert_bitwise, bump_masked,
                      interpolate_test_all_rows, l1_distance_per_slab,
                      materialise, separable_phi)
from _strategies import (graded_meshes, interval_meshes, perturbed_meshes,
                         support_boxes, time_grids)
from fvlab.fields import (TIME_PROFILES, CellScalarField, FaceField,
                          Reference, SupportError, TestFunction, _bump,
                          interpolate_test, lp_distance, sample_cell_means)
from fvlab.geometry import (build_cartesian, build_dual_mac, build_dual_rt,
                            build_intervals, build_time_grid)
from fvlab.layouts import MAC, RT
from fvlab.quadrature import CellQuadrature, gauss_legendre, gauss_times
from fvlab.study import BUMP_1D, manufactured_solution


def bump2d(t_profile="initial"):
    return TestFunction(((0.2, 0.8), (0.2, 0.8)), 0.8, time_profile=t_profile)


# ---------------------------------------------------------------- level fields

def _level_fields():
    """A cell field and an RT and a MAC face velocity on one 3x2 level of 2
    steps, each with its largest value at level N."""
    mesh, grid = build_cartesian(3, 2), build_time_grid(1.0, 2)
    rng = np.random.default_rng(7)
    q = rng.uniform(-1.0, 1.0, size=(3, mesh.n_cells))
    rt = rng.uniform(-1.0, 1.0, size=(3, mesh.n_faces, 2))
    mac = rng.uniform(-1.0, 1.0, size=(3, mesh.n_faces))
    q[2, 4], rt[2, 5], mac[2, 1] = -9.0, (6.0, -8.0), 9.0
    return mesh, grid, q, rt, mac


def test_sup_norms_skip_level_n_and_take_the_layouts_magnitude():
    # the space-time function takes the levels 0..N-1 only, so the large
    # values of level N do not count; RT's size is the Euclidean norm
    mesh, grid, q, rt, mac = _level_fields()
    rt[1, 3] = (3.0, -4.0)
    cells = CellScalarField(mesh, grid, q)
    rt_field = FaceField(RT, mesh, grid, build_dual_rt(mesh), rt)
    mac_field = FaceField(MAC, mesh, grid, build_dual_mac(mesh), mac)
    assert cells.sup_norm() == np.abs(q[:2]).max() < 9.0
    assert rt_field.sup_norm() == 5.0
    assert rt_field.sup_norm() == np.sqrt((rt[:2] ** 2).sum(-1)).max()
    assert mac_field.sup_norm() == np.abs(mac[:2]).max() < 9.0
    assert rt_field.layout is RT and mac_field.layout is MAC


def test_face_fields_reject_the_other_layouts_shape():
    mesh, grid, _, rt, mac = _level_fields()
    with pytest.raises(ValueError, match="expected shape"):
        FaceField(MAC, mesh, grid, build_dual_mac(mesh), rt)
    with pytest.raises(ValueError, match="expected shape"):
        FaceField(RT, mesh, grid, build_dual_rt(mesh), mac)


# ---------------------------------------------------------------- TestFunction

def test_bump_vanishes_outside_support():
    phi = bump2d()
    pts = np.array([[0.1, 0.5], [0.85, 0.5], [0.5, 0.19], [0.2, 0.5], [0.8, 0.5]])
    assert np.all(phi.value(pts, 0.3) == 0.0)
    assert np.all(phi.grad(pts, 0.3) == 0.0)
    inside = np.array([[0.5, 0.5]])
    assert phi.value(inside, 0.9) == 0.0      # past t_max
    assert phi.value(inside, 0.3) > 0.0


def test_bump_initial_profile_nonzero_at_t0():
    phi = bump2d("initial")
    x = np.array([[0.5, 0.5]])
    assert phi.value(x, 0.0) > 0.0
    assert bump2d("interior").value(x, 0.0) == 0.0


@pytest.mark.parametrize("profile", ["initial", "interior"])
def test_bump_derivatives_match_finite_differences(profile):
    phi = TestFunction(((0.25, 0.75), (0.3, 0.7)), 0.6, time_profile=profile)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.3, 0.65, size=(40, 2))
    t = rng.uniform(0.05, 0.5, size=40)
    eps = 1e-6
    for i in range(40):
        xi = x[i:i + 1]
        ti = t[i]
        dt_fd = (phi.value(xi, ti + eps) - phi.value(xi, ti - eps)) / (2 * eps)
        assert abs(phi.dt(xi, ti) - dt_fd) < 1e-7
        for d in range(2):
            e = np.zeros((1, 2))
            e[0, d] = eps
            g_fd = (phi.value(xi + e, ti) - phi.value(xi - e, ti)) / (2 * eps)
            assert abs(phi.grad(xi, ti)[0, d] - g_fd) < 1e-7


@st.composite
def phi_points_time(draw):
    """A test function, points inside and outside its support, and a time
    before 0, inside [0, t_max) or at or past t_max."""
    dim = draw(st.sampled_from([1, 2]))
    support = [(a, a + draw(st.floats(0.05, 0.6)))
               for a in draw(st.lists(st.floats(0.0, 0.4), min_size=dim,
                                      max_size=dim))]
    t_max = draw(st.floats(0.1, 1.0))
    phi = TestFunction(support, t_max,
                       draw(st.sampled_from(["initial", "interior"])))
    n = draw(st.integers(1, 12))
    x = np.array([[draw(st.floats(a - 0.1, b + 0.1)) for a, b in support]
                  for _ in range(n)])
    t = draw(st.one_of(st.floats(-t_max, 0.0, exclude_max=True),
                       st.floats(0.0, t_max, exclude_max=True),
                       st.floats(t_max, 2.0 * t_max)))
    return phi, x, t


@settings(max_examples=80, deadline=None)
@given(phi_points_time())
def test_evaluator_bitwise_equal_to_phi(case):
    phi, x, t = case
    at = phi.at(x)
    for kind in ("value", "dt", "grad"):
        direct = getattr(phi, kind)(x, t)
        assert np.array_equal(getattr(at, kind)(t), direct)
        assert np.array_equal(direct, separable_phi(phi, x, t, kind))
    # the tensor grid of the point coordinates, times on a trailing axis
    k = phi.dim + 1
    nodes = [x[:, d] for d in range(phi.dim)] + [np.array([t, 0.5 * t])]
    axes = [a.reshape([-1 if e == d else 1 for e in range(k)])
            for d, a in enumerate(nodes)]
    grids = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids[:-1]], axis=-1)
    on_grid = phi.at_grid(axes[:-1])
    for kind in ("value", "dt", "grad"):
        out = getattr(on_grid, kind)(axes[-1])
        ref = separable_phi(phi, pts, grids[-1].ravel(), kind)
        assert np.array_equal(out.reshape(ref.shape), ref)


@settings(max_examples=40, deadline=None)
@given(phi_points_time())
def test_grad_stacks_the_grad_components(case):
    # each component is its own contiguous array in the product order of
    # TestFunction, and grad is their stack, bit for bit with signs of
    # zeros, on points and on a tensor grid with times on a trailing axis
    phi, x, t = case
    k = phi.dim + 1
    axes = [x[:, d].reshape([-1 if e == d else 1 for e in range(k)])
            for d in range(phi.dim)]
    times = np.array([t, 0.5 * t]).reshape((1,) * phi.dim + (-1,))
    direct = separable_phi(phi, x, t, "grad")
    for ev, at_t in ((phi.at(x), t), (phi.at_grid(axes), times)):
        components = ev.grad_components(at_t)
        assert len(components) == phi.dim
        assert all(c.flags.c_contiguous for c in components)
        assert_bitwise(ev.grad(at_t), np.stack(components, axis=-1))
    for d, component in enumerate(phi.at(x).grad_components(t)):
        assert_bitwise(component, direct[:, d])


def test_sup_norm_analytic():
    phi = bump2d()
    # product of three bump factors, each peaking at exp(-1)
    grid = np.linspace(0.2, 0.8, 101)
    xx, yy = np.meshgrid(grid, grid)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    dense = max(phi.value(pts, t).max() for t in np.linspace(0.0, 0.79, 41))
    assert dense <= phi.sup_norm() + 1e-15
    assert phi.sup_norm() == pytest.approx(np.exp(-3.0))
    assert dense == pytest.approx(np.exp(-3.0), rel=1e-3)


# ---------------------------------------------------------------- sampling

def test_sample_constant():
    mesh = build_cartesian(3, 3)
    grid = build_time_grid(1.0, 2)
    q = sample_cell_means(lambda x, t: np.full(x.shape[0], 3.0), mesh, grid)
    assert np.all(q.values == 3.0)


def test_sample_affine_column_means():
    # affine data: the cell mean is the value at the centroid
    mesh = build_cartesian(2, 2)
    grid = build_time_grid(1.0, 1)
    q = sample_cell_means(lambda x, t: x[:, 0], mesh, grid)
    assert np.abs(q.values[0] - mesh.cell_centroids[:, 0]).max() < 1e-15
    assert sorted(np.unique(np.round(q.values[0], 14))) == [0.25, 0.75]


def test_sample_matches_highorder_tensor_oracle():
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 1)
    f = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    q = sample_cell_means(f, mesh, grid)
    q8 = sample_cell_means(f, mesh, grid, order=8, check=False)
    # independent 64-point tensor rule per cell
    nodes, w = gauss_legendre(8)
    h = 0.25
    for c in range(mesh.n_cells):
        x0, y0 = mesh.vertices[mesh.cell_vertices[c, 0]]
        gx = x0 + 0.5 * h * (nodes + 1.0)
        gy = y0 + 0.5 * h * (nodes + 1.0)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        ww = np.outer(w, w) * (0.5 * h) ** 2
        ref = (ww * np.sin(np.pi * xx) * np.sin(np.pi * yy)).sum() / h ** 2
        assert abs(q.values[0, c] - ref) < 1e-9      # default order-4 rule
        assert abs(q8.values[0, c] - ref) < 1e-13    # oracle-order rule


def test_sample_warns_on_rough_integrand():
    mesh = build_cartesian(2, 2)
    grid = build_time_grid(1.0, 1)
    rough = lambda x, t: np.sin(73.0 * x[:, 0]) * np.cos(61.0 * x[:, 1])
    with pytest.warns(UserWarning, match="disagreement"):
        sample_cell_means(rough, mesh, grid)


# ---------------------------------------------------------------- interpolates

class _Negated(TestFunction):
    """phi with a negative time factor: products outside the support are
    -0.0 before the means."""

    def _time_factor(self, t, derivative=False):
        return -super()._time_factor(t, derivative)


class _Zero(TestFunction):
    """phi with a time factor that is zero at every time."""

    def _time_factor(self, t, derivative=False):
        return np.zeros(np.shape(t))


@st.composite
def interpolate_cases(draw):
    """A perturbed, graded or interval mesh, a time grid, and a test
    function of either time profile on a support box of that mesh, with
    its time factor as is, negated or zero."""
    mesh = draw(st.one_of(perturbed_meshes(), graded_meshes(),
                          interval_meshes(max_cells=16)))
    grid = draw(time_grids(max_steps=8))
    support = draw(support_boxes(mesh.dim, mesh))
    t_max = draw(st.floats(0.1, 0.95)) * grid.final_time
    kind = draw(st.sampled_from([TestFunction, _Negated, _Zero]))
    phi = kind(support, t_max, draw(st.sampled_from(TIME_PROFILES)))
    return mesh, grid, phi, draw(st.sampled_from([1, 2, 4]))


@settings(max_examples=60, deadline=None)
@given(interpolate_cases())
def test_interpolate_on_support_matches_all_rows(case):
    # tf(t_n) times the spatial tables, built on the support rows only,
    # against the means of phi(., t_n) formed on every row at every knot,
    # with the same zeros.  The two routes round the products and the sum
    # of a row's nodes differently: they agree within 16 ulps of sup |phi|,
    # the gradient within 16 ulps of sup |phi| times max sum |zeta| / |P|
    # (25 000 draws: at most 11.4, 1.3 and 0.7, the largest on 2D cells
    # with 256 nodes)
    mesh, grid, phi, panels = case
    got = materialise(interpolate_test(phi, mesh, grid, panels=panels))
    want = interpolate_test_all_rows(phi, mesh, grid, panels=panels)
    ulp = np.finfo(float).eps * phi.sup_norm()
    face_sum = mesh.face_measures[mesh.cell_faces].sum(axis=1)
    grad_ulp = ulp * (face_sum / mesh.cell_volumes).max()
    for a, b, tol in zip(got, want, (16 * ulp, 16 * ulp, 16 * grad_ulp)):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= tol, np.abs(a - b).max() / tol
        assert np.array_equal(a == 0.0, b == 0.0)


@settings(max_examples=60, deadline=None)
@given(interpolate_cases())
def test_interior_support_clear_matches_the_materialised_check(case):
    # the factored check against phi_P^n and phi_zeta^n formed at every
    # knot on the non-interior cells and their faces
    mesh, grid, phi, panels = case
    interp = interpolate_test(phi, mesh, grid, panels=panels)
    outside = ~mesh.interior_cell_mask
    faces = mesh.cell_faces[outside].ravel()
    phi_cell, phi_face, _ = materialise(interp)
    want = not (np.any(phi_cell[:, outside] != 0.0)
                or np.any(phi_face[:, faces] != 0.0))
    assert interp.interior_support_clear() == want
    if isinstance(phi, _Zero):
        assert want


def test_interpolate_stays_in_bounded_memory(transient_mib):
    # the criterion-7 MAC level at 32^2 (32 steps) and a 128^2 level (128
    # steps) take 5.1 and 7.8 MiB above the call's start: the tables are
    # built on chunks of the support rows, whatever the level
    phi = TestFunction(((0.2, 0.8), (0.2, 0.8)), 0.35)
    for n, bound in ((32, 7.5), (128, 12)):
        mesh = build_cartesian(n, n)
        grid = build_time_grid(0.5, n)
        size = transient_mib(lambda: interpolate_test(phi, mesh, grid))
        assert size <= bound, (n, size)


def test_interpolate_zero_function():
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(1.0, 4)
    phi = _Zero(((0.3, 0.7), (0.3, 0.7)), 0.5)
    interp = interpolate_test(phi, mesh, grid)
    for table in materialise(interp):
        assert np.all(table == 0.0)


def test_test_function_rejects_an_unknown_profile_and_a_bad_t_max():
    # the library checks behind the config domains, for API callers
    with pytest.raises(ValueError, match="unknown time profile 'late'"):
        TestFunction(((0.2, 0.8),), 0.5, time_profile="late")
    for t_max in (0.0, -0.5):
        with pytest.raises(ValueError, match="t_max must be positive"):
            TestFunction(((0.2, 0.8),), t_max)


def test_interpolate_support_validation():
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 4)
    with pytest.raises(SupportError):
        interpolate_test(TestFunction(((0.0, 0.5), (0.2, 0.8)), 0.5), mesh, grid)
    with pytest.raises(SupportError):
        interpolate_test(TestFunction(((0.2, 0.8), (0.2, 0.8)), 1.0), mesh, grid)


def test_interpolate_vanishes_on_boundary_cells():
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(1.0, 4)
    interp = interpolate_test(bump2d(), mesh, grid)
    outside = ~mesh.interior_cell_mask
    assert np.all(interp.cells()[:, outside] == 0.0)
    assert interp.interior_support_clear()


def test_gradient_identity_against_volume_oracle():
    # max over cells/levels of |(grad phi)_P^n - volume mean of grad phi|
    mesh = build_cartesian(16, 16)
    grid = build_time_grid(1.0, 3)
    phi = bump2d()
    interp = interpolate_test(phi, mesh, grid)
    grad_phi = materialise(interp)[2]
    oracle = CellQuadrature(mesh, 8, panels=8)
    worst = 0.0
    for n, t in enumerate(grid.knots):
        ref = oracle.cell_vector_means(oracle.values(phi.grad, t))
        worst = max(worst, float(np.sqrt(
            ((grad_phi[n] - ref) ** 2).sum(-1)).max()))
    assert worst <= 1e-8


# an affine or constant phi is neither separable nor compactly supported,
# so interpolate_test does not take it: the face-mean gradient formula is
# checked on the all-rows oracle, which the factored interpolate matches at
# rounding level (test_interpolate_on_support_matches_all_rows)

def test_gradient_of_affine_is_exact_constant():
    mesh = build_cartesian(5, 5)
    grid = build_time_grid(1.0, 2)

    class Affine(TestFunction):
        def at(self, x):
            x = np.atleast_2d(x)
            return SimpleNamespace(
                value=lambda t: 3.0 * x[:, 0] - 2.0 * x[:, 1] + 0.25)

    phi = Affine(((0.2, 0.8), (0.2, 0.8)), 0.5)
    _, _, grad = interpolate_test_all_rows(phi, mesh, grid)
    assert np.abs(grad[0, :, 0] - 3.0).max() < 1e-12
    assert np.abs(grad[0, :, 1] + 2.0).max() < 1e-12


def test_gradient_of_constant_is_zero_on_rectangles():
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 2)

    class Const(TestFunction):
        def at(self, x):
            n = np.atleast_2d(x).shape[0]
            return SimpleNamespace(value=lambda t: np.full(n, 7.0))

    _, _, grad = interpolate_test_all_rows(
        Const(((0.2, 0.8), (0.2, 0.8)), 0.5), mesh, grid)
    assert np.all(grad == 0.0)


def test_dt_phi_uniform_convergence_order():
    # sup |dt_phi - exact d_t phi at (centroid, t_n)| decays under combined
    # refinement, dt_phi the slab difference quotient of the cell means;
    # asymptotic order 1, measured past the bump-edge preasymptotic level
    errs = []
    hs = []
    for n in (16, 32, 64):
        mesh = build_cartesian(n, n)
        grid = build_time_grid(1.0, n)
        phi = bump2d()
        interp = interpolate_test(phi, mesh, grid, panels=2)
        dt_phi = np.diff(interp.cells(), axis=0) / grid.steps[:, None]
        worst = 0.0
        for m in range(grid.n_steps):
            exact = phi.dt(mesh.cell_centroids, grid.knots[m])
            worst = max(worst, float(np.abs(dt_phi[m] - exact).max()))
        errs.append(worst)
        hs.append(mesh.delta() + grid.dt_max)
    assert errs[1] < errs[0] and errs[2] < errs[1]
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate >= 0.85


# ---------------------------------------------------------------- distances

def test_lp_distance_zero_for_sampled_constant():
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 2)
    q = sample_cell_means(lambda x, t: np.full(x.shape[0], 2.5), mesh, grid)
    res = lp_distance(q, lambda x, t: np.full(x.shape[0], 2.5))
    assert res.distance == 0.0
    assert res.sup_field == 2.5


def test_lp_distance_l1_constant_gap():
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 4)
    zero = sample_cell_means(lambda x, t: np.zeros(x.shape[0]), mesh, grid)
    res = lp_distance(zero, lambda x, t: np.ones(x.shape[0]))
    assert abs(res.distance - 1.0) < 1e-12


def test_lp_distance_l1_cell_mean_of_x():
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(1.0, 1)
    q = sample_cell_means(lambda x, t: x[:, 0], mesh, grid)
    res = lp_distance(q, lambda x, t: x[:, 0])
    # per cell: integral of |x1 - centroid| = h^3/4, 64 cells, T = 1
    expect = 64 * (1.0 / 8) ** 3 / 4
    assert res.distance == pytest.approx(expect, rel=0.05)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), name=st.sampled_from(
    ["sinsin_cos", "sinsin_shear", "bump_advect_1d"]))
def test_reference_evaluator_matches_plain_closure(data, name):
    # a solution's evaluator (Reference.at) against its closed form as a
    # plain f(x, t), called once per time: equal bytes for the sampled cell
    # means (also against one cell_means per knot), for the L1 distance,
    # and for the L1 distance of one call per Gauss time; the
    # order-2 sampling may warn of its order+2 check, which is not tested
    ref = manufactured_solution(name)["q"]
    plain = CLOSED_FORMS[name]
    mesh = data.draw(interval_meshes() if name == "bump_advect_1d"
                     else perturbed_meshes(max_cells=4))
    grid = data.draw(time_grids(max_steps=5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = sample_cell_means(ref, mesh, grid, order=2)
        assert_bitwise(q.values,
                       sample_cell_means(plain, mesh, grid, order=2).values)
    quad = CellQuadrature(mesh, 2)
    assert_bitwise(q.values, [quad.cell_means(quad.values(plain, t))
                              for t in grid.knots])
    assert_bitwise(lp_distance(q, ref).distance,
                   lp_distance(q, plain).distance)
    assert_bitwise(lp_distance(q, ref).distance,
                   l1_distance_per_slab(q, plain))


@pytest.mark.parametrize("ref, steady", [
    (manufactured_solution("sinsin_shear")["v"], True),
    (manufactured_solution("constant")["v"], True),
    (Reference(lambda x: np.stack([np.sin(3.0 * x[:, 0]), x[:, 1]], axis=-1),
               lambda s, t: s * np.cos(t)), False),
], ids=["steady", "uniform", "unsteady"])
def test_vector_reference_evaluations_agree(ref, steady):
    # __call__, at and on_grid share one broadcasting rule: the same bits
    # in (point, time, component) order, one time per point or not; on the
    # grid a steady v (the sinsin_shear v, the uniform v of "constant" and
    # "sinsin_cos") is its space part broadcast over time, read-only with
    # time stride 0, never a repeated copy
    points = np.random.default_rng(3).uniform(size=(7, 2))
    times = np.array([0.0, 0.25, 1.5])
    grid = ref.on_grid(points, times)
    assert grid.shape == (7, 3, 2) and not grid.flags.writeable
    assert (grid.strides[1] == 0) == steady
    per_node = ref(np.repeat(points, times.size, axis=0),
                   np.tile(times, len(points)))
    assert_bitwise(grid, per_node.reshape(grid.shape))
    assert_bitwise(grid, ref.at(points)(times).transpose(1, 0, 2))
    for j, t in enumerate(times):
        assert_bitwise(grid[:, j], ref(points, t))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 64), grading=st.one_of(st.just(1.0),
                                               st.floats(0.8, 1.25)),
       order=st.integers(1, 4), T=st.floats(0.05, 1.0),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       steps=st.integers(1, 8), time_order=st.integers(1, 5),
       data=st.data())
def test_bump_nodes_classed_steady_are_positive_zero_across_the_span(
        n, grading, order, T, ends, steps, time_order, data):
    # the advected bump names a node steady over a span [first, last] of
    # [0, T] only where its full evaluation is +0.0, sign bit included, at
    # both ends and at every Gauss time of the span's slabs; some spans end
    # where a node's x0 - t sits on a support edge, or a few ulps off it
    q = manufactured_solution("bump_advect_1d")["q"]
    x = CellQuadrature(build_intervals(n, grading=grading),
                       order).flat_points()
    first, last = sorted(T * e for e in ends)
    if data.draw(st.booleans()):
        x0 = float(data.draw(st.sampled_from(x[:, 0].tolist())))
        edge = x0 - data.draw(st.sampled_from(BUMP_1D))
        ulps = data.draw(st.integers(-2, 2))
        for _ in range(abs(ulps)):
            edge = np.nextafter(edge, np.copysign(np.inf, ulps))
        if 0.0 <= edge <= T:
            first, last = ((edge, max(edge, last)) if data.draw(st.booleans())
                           else (min(first, edge), edge))
    steady = ~q.at(x).varying(np.array([[first, last]]))
    tn, _ = gauss_times(np.linspace(first, last, steps + 1), time_order)
    for t in np.concatenate([[first, last], tn.ravel()]):
        assert first <= t <= last
        vals = q(x[steady], t)
        assert_bitwise(vals, np.zeros_like(vals))
        assert_bitwise(vals, CLOSED_FORMS["bump_advect_1d"](x[steady], t))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-2.0, 2.0), width=st.floats(1e-3, 3.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bump_in_place_matches_the_masked_bump(a, width, seed):
    # the maskless bump, allocated or written over its argument, and its
    # derivative, against the formulas on the points |u| < 1 only: the
    # same bytes on and past the support edges, next to them and at the
    # centre
    b = a + width
    rng = np.random.default_rng(seed)
    s = np.concatenate([rng.uniform(a - width, b + width, 200),
                        [a, b, 0.5 * (a + b), np.nextafter(a, b),
                         np.nextafter(b, a), np.nextafter(a, -np.inf),
                         np.nextafter(b, np.inf), -0.0]])
    want = bump_masked(s, a, b)
    assert_bitwise(_bump(s, a, b), want)
    buf = s.copy()
    assert _bump(buf, a, b, out=buf) is buf
    assert_bitwise(buf, want)
    assert_bitwise(_bump(s[3], a, b), want[3])
    assert_bitwise(_bump(s, a, b, derivative=True),
                   bump_masked(s, a, b, derivative=True))
