import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import face_value, local_face_index
from _strategies import graded_meshes, perturbed_meshes, time_grids
from fvlab.fields import CellScalarField, FaceField
from fvlab.geometry import (build_cartesian, build_dual_mac, build_dual_rt,
                            build_intervals, build_time_grid)
from fvlab.layouts import MAC, RT, get_layout
from fvlab.operators import (FACE_SCHEMES, BetaFamily, assemble_convection,
                             dt_beta, flux_colocated_upwind_1d,
                             flux_divergence, flux_staggered, get_pair,
                             telescoping_defect)
from fvlab.schemes import sample_manufactured


def constant_setup(nx=4, ny=4, c=2.0, vel=(1.0, 0.5), n_steps=3, layout="mac"):
    mesh = build_cartesian(nx, ny)
    grid = build_time_grid(1.0, n_steps)
    dual = build_dual_mac(mesh) if layout == "mac" else build_dual_rt(mesh)
    q, v = sample_manufactured(
        lambda x, t: np.full(x.shape[0], c),
        lambda x, t: np.broadcast_to(np.array(vel), (x.shape[0], 2)).copy(),
        layout, mesh, dual, grid)
    return mesh, grid, dual, q, v


# ---------------------------------------------------------------- pairs

def test_pair_registry():
    pair = get_pair("id")
    assert pair.beta(3.0) == 3.0 and pair.g(3.0) == 3.0
    sq = get_pair("square")
    assert sq.beta(3.0) == 9.0
    mixed = get_pair("id", "square")
    assert mixed.beta(2.0) == 2.0 and mixed.g(2.0) == 4.0
    with pytest.raises(KeyError):
        get_pair("cube")


def test_lipschitz_moduli():
    c_beta, c_g = get_pair("id").lipschitz(-1.0, 3.0)
    assert c_beta == 1.0 and c_g == 1.0
    c_beta, _ = get_pair("square").lipschitz(0.0, 2.0)
    assert c_beta == pytest.approx(4.0, rel=1e-3)
    # slogs stays finite through the clipped region
    c_beta, _ = get_pair("slogs").lipschitz(-0.5, 2.0)
    assert np.isfinite(c_beta)


# ---------------------------------------------------------------- dt_beta

def test_dt_beta_direct_formula():
    mesh = build_intervals(1)
    grid = build_time_grid(0.5, 1)
    betas = BetaFamily(mesh, grid, np.array([[1.0], [3.0]]))
    assert dt_beta(betas, grid)[0, 0] == 4.0


def test_dt_beta_constant_and_linear():
    mesh = build_intervals(3)
    grid = build_time_grid(1.0, 4)
    const = BetaFamily(mesh, grid, np.full((5, 3), 7.0))
    assert np.all(dt_beta(const, grid) == 0.0)
    lin = BetaFamily(mesh, grid, np.tile(grid.knots[:, None], (1, 3)))
    assert np.abs(dt_beta(lin, grid) - 1.0).max() < 1e-14


# ---------------------------------------------------------------- face values

def test_face_value_centered_and_upwind():
    mesh = build_intervals(2)
    grid = build_time_grid(1.0, 1)
    q = CellScalarField(mesh, grid, np.array([[2.0, 4.0], [2.0, 4.0]]))
    f = int(np.nonzero(mesh.interior_face_mask)[0][0])
    assert face_value(q, f, 0, "centered") == 3.0
    assert face_value(q, f, 0, "upwind", signal=1.0) == 2.0
    assert face_value(q, f, 0, "upwind", signal=-1.0) == 4.0
    assert face_value(q, f, 0, "upwind", signal=0.0) == 3.0
    qe = CellScalarField(mesh, grid, np.full((2, 2), 5.0))
    for scheme, sig in (("centered", 0.0), ("upwind", 1.0)):
        assert face_value(qe, f, 0, scheme, signal=sig) == 5.0


def test_face_value_stays_in_hull():
    mesh = build_cartesian(3, 3)
    grid = build_time_grid(1.0, 1)
    rng = np.random.default_rng(0)
    q = CellScalarField(mesh, grid, rng.normal(size=(2, 9)))
    for f in np.nonzero(mesh.interior_face_mask)[0]:
        p, qq = mesh.face_cells[f]
        lo = min(q.values[0, p], q.values[0, qq])
        hi = max(q.values[0, p], q.values[0, qq])
        for lam in (0.0, 0.3, 1.0):
            val = face_value(q, int(f), 0, "centered", lam=lam)
            assert lo <= val <= hi
        for sig in (-1.0, 0.0, 2.0):
            val = face_value(q, int(f), 0, "upwind", signal=sig)
            assert lo <= val <= hi


def test_face_value_boundary_rejected():
    mesh = build_intervals(2)
    grid = build_time_grid(1.0, 1)
    q = CellScalarField(mesh, grid, np.zeros((2, 2)))
    bface = int(np.nonzero(mesh.boundary_face_mask)[0][0])
    with pytest.raises(ValueError, match="boundary"):
        face_value(q, bface, 0)


@pytest.mark.parametrize("layout", ["rt", "mac"])
@pytest.mark.parametrize("scheme,lam", [("centered", 0.3), ("upwind", 0.5)])
def test_flux_staggered_matches_face_value_oracle(layout, scheme, lam):
    # F_zeta^n = g(q_zeta^n) v_zeta^n on every interior face, with q_zeta^n
    # from the scalar oracle and the upwind signal from the primal normal
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 3)
    rng = np.random.default_rng(11)
    q = CellScalarField(mesh, grid, rng.normal(size=(4, mesh.n_cells)))
    shape = (4, mesh.n_faces) + ((2,) if layout == "rt" else ())
    vel = rng.normal(size=shape)
    if layout == "rt":
        # tangential velocities: a zero signal but a nonzero flux, so the
        # tie rule shows
        tangent = mesh.face_normals[::5, ::-1] * np.array([-1.0, 1.0])
        vel[:, ::5] = rng.normal(size=(4, tangent.shape[0], 1)) * tangent
        v = FaceField(RT, mesh, grid, build_dual_rt(mesh), vel)
    else:
        v = FaceField(MAC, mesh, grid, build_dual_mac(mesh), vel)
    pair = get_pair("square")
    flux = flux_staggered(q, v, pair, scheme=scheme, lam=lam)
    for f in np.nonzero(mesh.interior_face_mask)[0]:
        normal = mesh.face_normals[f]
        for n in range(grid.n_steps):
            if layout == "rt":
                signal = vel[n, f, 0] * normal[0] + vel[n, f, 1] * normal[1]
            else:
                signal = vel[n, f] * normal[np.argmax(np.abs(normal))]
            qf = face_value(q, int(f), n, scheme, lam=lam, signal=signal)
            assert np.array_equal(flux.values[n, f], pair.g(qf) * vel[n, f])


# ---------------------------------------------------------------- fluxes

def test_staggered_rt_constant_state():
    mesh = build_cartesian(3, 3)
    grid = build_time_grid(1.0, 2)
    rt = build_dual_rt(mesh)
    q, v = sample_manufactured(
        lambda x, t: np.ones(x.shape[0]),
        lambda x, t: np.broadcast_to(np.array([2.0, -1.0]), (x.shape[0], 2)).copy(),
        "rt", mesh, rt, grid)
    flux = flux_staggered(q, v, get_pair("id"))
    interior = np.nonzero(mesh.interior_face_mask)[0]
    assert np.all(flux.values[:, interior] == np.array([2.0, -1.0]))


def test_staggered_zero_g():
    mesh, grid, dual, q, v = constant_setup()
    pair = get_pair("id", "id")
    zero = get_pair("id")
    zero = type(pair)("zero", pair.beta, lambda s: np.zeros_like(np.asarray(s, dtype=float)))
    flux = flux_staggered(q, v, zero)
    assert np.all(flux.values == 0.0)


def test_mac_centered_flux_hand_loop():
    # 2x2 mesh, q = {1,2,3,4}, v = 1 on the middle vertical face
    mesh = build_cartesian(2, 2)
    grid = build_time_grid(1.0, 1)
    dual = build_dual_mac(mesh)
    qv = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (2, 1))
    q = CellScalarField(mesh, grid, qv)
    vvals = np.zeros((2, mesh.n_faces))
    mid = [f for f in np.nonzero(mesh.interior_face_mask)[0]
           if dual.face_family[f] == 0]
    for f in mid:
        vvals[:, f] = 1.0
    v = FaceField(MAC, mesh, grid, dual, vvals)
    flux = flux_staggered(q, v, get_pair("id"), scheme="centered")
    # oracle: direct loop over those faces
    for f in mid:
        p, qq = mesh.face_cells[f]
        expect = 0.5 * (q.values[0, p] + q.values[0, qq]) * 1.0
        assert flux.values[0, f] == expect
        # F.n for the left cell carries the outward sign
        k = local_face_index(mesh, p, f)
        from fvlab.operators import flux_dot_n
        dots = flux_dot_n(flux)
        assert dots[0, p, k] == expect * dual.cell_face_delta[p, k]


def test_upwind_1d_flux_values_and_defect():
    mesh = build_intervals(2)
    grid = build_time_grid(1.0, 1)
    u = CellScalarField(mesh, grid, np.tile([0.0, 1.0], (2, 1)))
    flux = flux_colocated_upwind_1d(u)
    # shared face carries the left value; defect measured from the right cell
    shared = int(np.nonzero(mesh.interior_face_mask)[0][0])
    assert flux.values[0, shared] == 0.0
    defect_right = abs(flux.values[0, shared] - u.values[0, 1])
    assert defect_right == 1.0
    # constant field: all interior defects vanish
    uc = CellScalarField(mesh, grid, np.full((2, 2), 4.0))
    fc = flux_colocated_upwind_1d(uc)
    assert fc.values[0, shared] == 4.0


def test_upwind_1d_defect_is_h_for_centroid_data():
    mesh = build_intervals(8)
    grid = build_time_grid(1.0, 1)
    u = CellScalarField(mesh, grid,
                        np.tile(mesh.cell_centroids[:, 0], (2, 1)))
    flux = flux_colocated_upwind_1d(u)
    h = 1.0 / 8
    for f in np.nonzero(mesh.interior_face_mask)[0]:
        p, q = sorted(mesh.face_cells[f],
                      key=lambda c: mesh.cell_centroids[c, 0])
        # defect on the left face of the right cell equals the jump h
        assert abs(flux.values[0, f] - u.values[0, q]) == pytest.approx(h)
        # on the right face of the left cell the defect vanishes
        assert flux.values[0, f] - u.values[0, p] == 0.0


def test_upwind_1d_rejects_2d():
    mesh = build_cartesian(2, 2)
    grid = build_time_grid(1.0, 1)
    q = CellScalarField(mesh, grid, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        flux_colocated_upwind_1d(q)


def test_flux_mesh_mismatch():
    mesh, grid, dual, q, v = constant_setup()
    other = build_cartesian(4, 4)
    q_other = CellScalarField(other, grid, np.zeros((4, 16)))
    with pytest.raises(ValueError, match="different meshes"):
        flux_staggered(q_other, v, get_pair("id"))


@pytest.mark.parametrize("kwargs, message", [
    (dict(scheme="downwind"), "unknown face scheme 'downwind'"),
    (dict(scheme="centered", lam=1.5), r"lambda must be in \[0, 1\], got 1.5"),
    (dict(lam=-0.25), r"lambda must be in \[0, 1\], got -0.25"),
    (dict(policy="periodic"),
     "policy 'periodic' not supported for staggered layouts"),
])
@pytest.mark.parametrize("layout", ["mac", "rt"])
def test_staggered_flux_rejects_bad_arguments(layout, kwargs, message):
    # the library checks behind the config domains, for API callers: the
    # face scheme when the faces are formed, lambda and the boundary
    # policy when the rule is made
    mesh, grid, dual, q, v = constant_setup(layout=layout)
    with pytest.raises(ValueError, match=message):
        flux_staggered(q, v, get_pair("id"), **kwargs)


@pytest.mark.parametrize("layout", ["mac", "rt"])
def test_staggered_flux_carries_the_velocity_dual(layout):
    # the stages read layout and dual from the flux, so both must come
    # from the velocity field
    mesh, grid, dual, q, v = constant_setup(layout=layout)
    flux = flux_staggered(q, v, get_pair("id"))
    assert v.dual is dual and flux.dual is dual
    assert flux.layout is v.layout is get_layout(layout)


# ---------------------------------------------------------------- assembly

def test_constant_state_interior_exact_zero():
    for layout in ("mac", "rt"):
        mesh, grid, dual, q, v = constant_setup(layout=layout)
        for pname in ("id", "square", "slogs"):
            pair = get_pair(pname)
            betas = BetaFamily.from_field(q, pair)
            flux = flux_staggered(q, v, pair)
            c = assemble_convection(betas, flux)
            assert np.all(c.values[:, mesh.interior_cell_mask] == 0.0)


def test_zero_flux_linear_beta_gives_one():
    mesh = build_intervals(4)
    grid = build_time_grid(1.0, 4)
    betas = BetaFamily(mesh, grid, np.tile(grid.knots[:, None], (1, 4)))
    u = CellScalarField(mesh, grid, np.zeros((5, 4)))
    flux = flux_colocated_upwind_1d(u)
    c = assemble_convection(betas, flux)
    assert np.abs(c.values - 1.0).max() < 1e-14


def test_assemble_convection_rejects_a_flux_of_another_level():
    # betas of 8 uniform steps, the flux of an alternating grid of 8 steps:
    # the shapes agree, and C(U) used to differ by up to 0.027, silently
    mesh = build_cartesian(8, 8)
    dual = build_dual_mac(mesh)
    pair = get_pair("id")
    qf = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) \
        * np.cos(t)
    vf = lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                      (x.shape[0], 2)).copy()
    fields = [sample_manufactured(qf, vf, "mac", mesh, dual, grid)
              for grid in (build_time_grid(0.5, 8),
                           build_time_grid(0.5, 8, pattern="alternating",
                                           ratio=2.0))]
    (q, v), (q_other, v_other) = fields
    betas = BetaFamily.from_field(q, pair)
    conv = assemble_convection(betas, flux_staggered(q, v, pair))
    assert conv.mesh is mesh and conv.grid is q.grid
    with pytest.raises(ValueError, match="assemble_convection: .* time"):
        assemble_convection(betas, flux_staggered(q_other, v_other, pair))


def test_upwind_explicit_step_reproduction():
    # u0 = (1,0,0,...), dt/h = 1/2: assembly-consistent update halves the peak
    mesh = build_intervals(8)
    h = 1.0 / 8
    grid = build_time_grid(h / 2, 1)
    vals = np.zeros((2, 8))
    vals[0, 0] = 1.0
    # fill level 1 with the explicit update computed through the assembly
    u = CellScalarField(mesh, grid, vals)
    flux = flux_colocated_upwind_1d(u)
    div = flux_divergence(flux)
    upd = vals[0] - (grid.steps[0] / mesh.cell_volumes) * div[0]
    # hand-computed stencil: q_P - (dt/h)(q_P - q_{P-})
    expect = np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0])
    assert np.abs(upd - expect).max() < 1e-15


def test_missing_flux_names_face():
    mesh, grid, dual, q, v = constant_setup()
    pair = get_pair("id")
    betas = BetaFamily.from_field(q, pair)
    flux = flux_staggered(q, v, pair)
    broken = flux.values.copy()
    broken[0, 7] = np.nan
    flux.values = broken
    with pytest.raises(ValueError, match="face 7"):
        assemble_convection(betas, flux)


@st.composite
def staggered_meshes(draw):
    """A layout with a mesh it admits (graded tensor meshes for MAC,
    perturbed quadrangles for RT) and one of its boundary policies."""
    layout = draw(st.sampled_from(["mac", "rt"]))
    mesh = draw(graded_meshes() if layout == "mac" else perturbed_meshes())
    return layout, mesh, draw(st.sampled_from(
        get_layout(layout).boundary_policies))


@settings(max_examples=40, deadline=None)
@given(case=staggered_meshes(), grid=time_grids(),
       nonlinearity=st.sampled_from(["id", "square", "slogs"]),
       scheme=st.sampled_from(FACE_SCHEMES))
@example(case=("mac", build_cartesian(6, 5), "upwind_zero"),
         grid=build_time_grid(1.0, 3), nonlinearity="id", scheme="upwind")
@example(case=("rt", build_cartesian(6, 5), "zero_flux"),
         grid=build_time_grid(1.0, 3), nonlinearity="id", scheme="upwind")
def test_conservativity_telescoping(case, grid, nonlinearity, scheme):
    layout, mesh, policy = case
    dual = build_dual_mac(mesh) if layout == "mac" else build_dual_rt(mesh)
    q, v = sample_manufactured(
        lambda x, t: 1.0 + 0.3 * np.sin(2 * np.pi * x[:, 0]) * np.cos(t),
        lambda x, t: np.stack([np.cos(np.pi * x[:, 1]),
                               np.sin(np.pi * x[:, 0])], axis=-1),
        layout, mesh, dual, grid)
    flux = flux_staggered(q, v, get_pair(nonlinearity), scheme=scheme,
                          policy=policy)
    defect, scale = telescoping_defect(flux)
    assert np.all(defect <= 1e-12 * scale)


def test_mac_rt_agreement_constant_axis_aligned_velocity():
    # constant velocity on a rectangular mesh: identical assemblies
    mesh = build_cartesian(4, 3)
    grid = build_time_grid(1.0, 2)
    mac = build_dual_mac(mesh)
    rt = build_dual_rt(mesh)
    qf = lambda x, t: 1.0 + 0.5 * np.sin(2.3 * x[:, 0]) * np.cos(1.7 * x[:, 1])
    vf = lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                      (x.shape[0], 2)).copy()
    pair = get_pair("square")
    q1, v1 = sample_manufactured(qf, vf, "mac", mesh, mac, grid)
    q2, v2 = sample_manufactured(qf, vf, "rt", mesh, rt, grid)
    c1 = assemble_convection(BetaFamily.from_field(q1, pair),
                             flux_staggered(q1, v1, pair))
    c2 = assemble_convection(BetaFamily.from_field(q2, pair),
                             flux_staggered(q2, v2, pair))
    assert np.array_equal(c1.values, c2.values)
