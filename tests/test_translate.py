import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _strategies import perturbed_meshes, time_grids
from fvlab.fields import (CellScalarField, TranslateWeights,
                          default_translate_weights, generalize_weights,
                          sample_cell_means, translate_functional,
                          translate_functional_general)
from fvlab.geometry import (build_cartesian, build_intervals, build_time_grid)


def field_from_array(mesh, grid, arr):
    return CellScalarField(mesh, grid, np.asarray(arr, dtype=float))


@settings(max_examples=40, deadline=None)
@given(mesh=perturbed_meshes(), grid=time_grids(),
       c=st.floats(-1e3, 1e3), theta=st.floats(0.1, 3.0))
@example(mesh=build_cartesian(4, 4), grid=build_time_grid(1.0, 4), c=2.0,
         theta=1.0)
def test_constant_field_gives_zero(mesh, grid, c, theta):
    u = field_from_array(mesh, grid,
                         np.full((grid.n_steps + 1, mesh.n_cells), c))
    w = default_translate_weights(mesh, grid, theta=theta)
    assert translate_functional(u, w) == 0.0
    assert translate_functional_general(u, generalize_weights(w)).value == 0.0


def test_1d_centroid_field_closed_form():
    # uniform cells of width h, u_K = x_K, one time level, omega = h:
    # T = T_total * (K-1) * h * h
    K, T = 8, 1.0
    mesh = build_intervals(K)
    grid = build_time_grid(T, 1)
    h = 1.0 / K
    u = field_from_array(mesh, grid,
                         np.tile(mesh.cell_centroids[:, 0], (2, 1)))
    faces = np.nonzero(mesh.interior_face_mask)[0]
    w = TranslateWeights(mesh=mesh, grid=grid,
                         omega_face=np.full(faces.size, h),
                         delta_half=np.zeros(0))
    val = translate_functional(u, w)
    # oracle: direct loop over faces and levels
    direct = 0.0
    for n in range(grid.n_steps):
        for f in faces:
            p, q = mesh.face_cells[f]
            direct += grid.steps[n] * h * abs(u.values[n, p] - u.values[n, q])
    assert val == pytest.approx(direct, rel=1e-15)
    assert val == pytest.approx(T * (K - 1) * h * h, rel=1e-12)


def test_single_jump_single_weight():
    # one jump of height 1 across one face sigma*, omega_{sigma*} = w
    mesh = build_intervals(4)
    grid = build_time_grid(2.0, 4)
    vals = np.tile(np.array([0.0, 0.0, 1.0, 1.0]), (5, 1))
    u = field_from_array(mesh, grid, vals)
    faces = np.nonzero(mesh.interior_face_mask)[0]
    omega = np.zeros(faces.size)
    # the face between cells 1 and 2
    for i, f in enumerate(faces):
        if set(mesh.face_cells[f]) == {1, 2}:
            omega[i] = 0.7
    w = TranslateWeights(mesh=mesh, grid=grid, omega_face=omega,
                         delta_half=np.zeros(3))
    assert translate_functional(u, w) == pytest.approx(2.0 * 0.7, rel=1e-14)


def test_absolute_homogeneity_in_jumps():
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 3)
    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 16))
    w = default_translate_weights(mesh, grid)
    t1 = translate_functional(field_from_array(mesh, grid, base), w)
    for lam in (-2.5, 0.5, 3.0):
        tl = translate_functional(field_from_array(mesh, grid, lam * base), w)
        assert tl == pytest.approx(abs(lam) * t1, rel=1e-12)


def test_negative_weights_rejected():
    mesh = build_cartesian(2, 2)
    grid = build_time_grid(1.0, 2)
    faces = np.nonzero(mesh.interior_face_mask)[0]
    with pytest.raises(ValueError):
        TranslateWeights(mesh=mesh, grid=grid,
                         omega_face=np.full(faces.size, -1.0),
                         delta_half=np.zeros(1))


@settings(max_examples=40, deadline=None)
@given(mesh=perturbed_meshes(), grid=time_grids(),
       seed=st.integers(0, 2 ** 32 - 1), theta=st.floats(0.1, 3.0))
@example(mesh=build_cartesian(5, 3),
         grid=build_time_grid(1.0, 4, pattern="alternating", ratio=1.5),
         seed=11, theta=1.3)
def test_specialization_identity_exact(mesh, grid, seed, theta):
    # generalized functional with faces / consecutive levels == base functional
    rng = np.random.default_rng(seed)
    u = field_from_array(mesh, grid,
                         rng.normal(size=(grid.n_steps + 1, mesh.n_cells)))
    w = default_translate_weights(mesh, grid, theta=theta)
    base = translate_functional(u, w)
    gen = translate_functional_general(u, generalize_weights(w))
    assert gen.value == base


def test_general_extra_pair_contribution():
    # a single next-nearest-neighbour pair on a 4x1 strip, u = (0,0,1,1):
    # contribution = T_total * omega * |u_2 - u_1| for the pair (1, 2) etc.
    mesh = build_intervals(4)
    grid = build_time_grid(1.0, 2)
    u = field_from_array(mesh, grid, np.tile([0.0, 0.0, 1.0, 1.0], (3, 1)))
    pairs = np.array([[1, 3]])          # next-nearest pair with unit jump
    w = TranslateWeights(mesh=mesh, grid=grid, pairs_x=pairs,
                         omega_x=np.array([0.4]),
                         pairs_t=np.zeros((0, 2), dtype=np.int64),
                         delta_t=np.zeros(0))
    res = translate_functional_general(u, w)
    # oracle: direct enumeration
    direct = 0.0
    for n in range(grid.n_steps):
        for (k, l), om in zip(pairs, w.omega_x):
            direct += grid.steps[n] * om * abs(u.values[n, k] - u.values[n, l])
    assert res.value == pytest.approx(direct, rel=1e-15)
    assert res.value == pytest.approx(1.0 * 0.4 * 1.0, rel=1e-14)


def test_general_regularity_and_gap_metrics():
    mesh = build_intervals(4)
    grid = build_time_grid(1.0, 4)
    pairs_x = np.array([[0, 1], [1, 3]])
    pairs_t = np.array([[0, 2]])
    w = TranslateWeights(mesh=mesh, grid=grid, pairs_x=pairs_x,
                         omega_x=np.array([0.25, 0.5]),
                         pairs_t=pairs_t, delta_t=np.array([0.125]))
    # theta_M: cell 1 carries both pairs: (0.25 + 0.5)/0.25
    assert w.theta_m() == pytest.approx(3.0)
    # theta_T: delta/(dt) with dt = 0.25
    assert w.theta_t() == pytest.approx(0.5)
    # gap of {1,3}: farthest points of cells 1 and 3 = 1.0 - 0.25
    assert w.gap_x() == pytest.approx(0.75)
    # gap of {0,2}: t_3 - t_0
    assert w.gap_t() == pytest.approx(0.75)


def test_theta_m_face_form_matches_definition():
    mesh = build_cartesian(3, 2)
    grid = build_time_grid(1.0, 3)
    w = default_translate_weights(mesh, grid, theta=2.0)
    faces = np.nonzero(mesh.interior_face_mask)[0]
    brute = 0.0
    for i, f in enumerate(faces):
        p, q = mesh.face_cells[f]
        brute = max(brute, w.omega_face[i] / mesh.cell_volumes[p],
                    w.omega_face[i] / mesh.cell_volumes[q])
    assert w.theta_m() == pytest.approx(brute)
    assert w.theta_m() <= 2.0 + 1e-12


def test_theta_t_face_form_matches_definition():
    # theta_T of face/step weights: the largest delta_{n+1/2} divided by the
    # step on either side of the interior knot between slabs n and n+1
    # on steps (1, 3, 1, 3, 1) / 9 the largest delta sits before a short
    # step, then after one: each side of the knot decides once
    mesh = build_intervals(4)
    grid = build_time_grid(1.0, 5, pattern="alternating", ratio=3.0)
    steps = grid.steps
    for delta in ([0.1, 0.05, 0.2, 0.02], [0.1, 0.2, 0.05, 0.02]):
        w = TranslateWeights(mesh=mesh, grid=grid, omega_face=np.ones(3),
                             delta_half=np.array(delta))
        brute = max(max(d / steps[n], d / steps[n + 1])
                    for n, d in enumerate(delta))
        assert w.theta_t() == brute == pytest.approx(0.2 * 9.0)
    # the default delta is the smaller adjacent step: theta_T = 1, and a
    # single step has no interior knot
    assert default_translate_weights(mesh, grid).theta_t() == 1.0
    assert default_translate_weights(
        mesh, build_time_grid(1.0, 1)).theta_t() == 0.0


def test_translate_decay_on_sampled_smooth_field():
    # omega = theta*min(|K|,|L|), delta = min adjacent steps: order >= 0.7
    vals = []
    hs = []
    for n in (8, 16, 32, 64):
        mesh = build_cartesian(n, n)
        grid = build_time_grid(0.5, n)
        u = sample_cell_means(
            lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
            * np.cos(t), mesh, grid, check=False)
        w = default_translate_weights(mesh, grid)
        vals.append(translate_functional(u, w))
        hs.append(mesh.delta() + grid.dt_max)
    rates = np.diff(np.log(vals)) / np.diff(np.log(hs))
    assert np.all(np.diff(vals) < 0)
    assert rates[-1] >= 0.7
