import numpy as np
import pytest

from fvlab import schemes
from fvlab.fields import lp_distance
from fvlab.geometry import (build_cartesian, build_dual_mac, build_dual_rt,
                            build_intervals, build_time_grid)
from fvlab.layouts import COLOCATED_1D, MAC, RT
from fvlab.operators import (BetaFamily, assemble_convection,
                             flux_colocated_upwind_1d, flux_staggered,
                             get_pair, staggered_flux_rule)
from fvlab.quadrature import chunk_slices
from fvlab.schemes import (CFLError, SchemeConfig, run_upwind_1d,
                           sample_manufactured, scheme_dt, scheme_levels,
                           stable_dt)
from fvlab.study import manufactured_solution

from _oracles import assert_bitwise, collect_scheme, march_by_steps


def bump1d(x):
    x = np.atleast_2d(x)[:, 0]
    u = (x - 0.3) / 0.15
    out = np.zeros_like(x)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


# ---------------------------------------------------------------- 1D upwind

def test_upwind_constant_preserved():
    mesh = build_intervals(16)
    cfg = SchemeConfig(q0=lambda x: np.full(x.shape[0], 2.0), T=0.25,
                       cfl=0.5, boundary_policy="periodic")
    q, grid, ledger = run_upwind_1d(mesh, cfg)
    assert np.all(q.values == 2.0)
    assert ledger.max_relative_defect() <= 1e-12


def test_upwind_cfl_one_exact_shift():
    # CFL = 1 on a uniform grid is exact transport by one cell per step;
    # bitwise for 0/1 data, to rounding for smooth data
    M = 32
    mesh = build_intervals(M)
    h = 1.0 / M
    cfg = SchemeConfig(q0=lambda x: np.where((x[:, 0] > 4 * h) & (x[:, 0] < 9 * h),
                                             1.0, 0.0), T=8.0 / M, cfl=1.0)
    q, grid, ledger = run_upwind_1d(mesh, cfg)
    assert grid.n_steps == 8
    assert np.array_equal(q.values[grid.n_steps][8:], q.values[0][:-8])
    assert np.all(q.values[grid.n_steps][:8] == 0.0)
    cfg2 = SchemeConfig(q0=bump1d, T=8.0 / M, cfl=1.0)
    q2, grid2, _ = run_upwind_1d(mesh, cfg2)
    assert np.abs(q2.values[grid2.n_steps][8:] - q2.values[0][:-8]).max() < 1e-14


def test_upwind_half_cfl_hand_step():
    mesh = build_intervals(8)
    h = 1.0 / 8
    cfg = SchemeConfig(q0=lambda x: np.where(x[:, 0] < h, 1.0, 0.0) * 8 * h,
                       T=h / 2, cfl=0.5)
    q, grid, ledger = run_upwind_1d(mesh, cfg)
    assert grid.n_steps == 1
    got = q.values[1]
    # hand-computed stencil: q_P - (dt/h)(q_P - q_{P-}), dt/h = 1/2
    expect = np.zeros(8)
    q0 = q.values[0]
    for i in range(8):
        left = q0[i - 1] if i else 0.0
        expect[i] = q0[i] - 0.5 * (q0[i] - left)
    assert np.array_equal(got, expect)
    assert got[0] == pytest.approx(0.5) and got[1] == pytest.approx(0.5)


def test_upwind_max_principle():
    mesh = build_intervals(64)
    cfg = SchemeConfig(q0=bump1d, T=0.5, cfl=0.9)
    q, grid, ledger = run_upwind_1d(mesh, cfg)
    lo = min(q.values[0].min(), 0.0)
    hi = max(q.values[0].max(), 0.0)
    assert q.values.min() >= lo - 1e-15
    assert q.values.max() <= hi + 1e-15


def test_upwind_mass_ledger_closes():
    mesh = build_intervals(32)
    cfg = SchemeConfig(q0=bump1d, T=0.4, cfl=0.5)
    q, grid, ledger = run_upwind_1d(mesh, cfg)
    assert ledger.max_relative_defect() <= 1e-12


def test_upwind_needs_1d_mesh():
    with pytest.raises(ValueError):
        run_upwind_1d(build_cartesian(4, 4),
                      SchemeConfig(q0=bump1d, T=0.1))


def test_cfl_validation():
    with pytest.raises(ValueError, match=r"CFL must be in \(0, 1\], got 0.0"):
        SchemeConfig(q0=bump1d, T=1.0, cfl=0.0)
    with pytest.raises(ValueError, match=r"CFL must be in \(0, 1\], got 1.5"):
        SchemeConfig(q0=bump1d, T=1.0, cfl=1.5)
    for T in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"T must be positive, got {T}"):
            SchemeConfig(q0=bump1d, T=T)
    with pytest.raises(ValueError, match="unknown boundary policy"):
        run_upwind_1d(build_intervals(8),
                      SchemeConfig(q0=bump1d, T=0.1, boundary_policy="bogus"))


def test_upwind_rejects_a_step_over_its_cfl_bound(monkeypatch):
    # a time grid one step short of the CFL count makes dt exceed
    # cfl * min h; the per-step guard stops the march at its first step
    real = schemes._uniform_grid_for
    monkeypatch.setattr(schemes, "_uniform_grid_for", lambda T, bound:
                        build_time_grid(T, real(T, bound).n_steps - 1))
    cfg = SchemeConfig(q0=bump1d, T=0.25, cfl=0.5)
    with pytest.raises(CFLError, match="^CFL violated at step 0$"):
        run_upwind_1d(build_intervals(16), cfg)


# ---------------------------------------------------------------- stable step

@pytest.mark.parametrize("grading", [1.0, 1.1, 0.7, 3.0])
def test_stable_dt_of_intervals_is_the_smallest_cell(grading):
    # speed 1: each cell's outflow is 0 + 1 = 1.0, so |P| / 1.0 is |P|
    mesh = build_intervals(24, (0.2, 1.3), grading=grading)
    h_min = mesh.cell_volumes.min()
    dt = stable_dt(COLOCATED_1D, np.ones(mesh.n_faces), mesh, None)
    assert float.hex(dt) == float.hex(float(h_min))
    cfg = SchemeConfig(q0=bump1d, T=0.1, cfl=0.7)
    assert float.hex(scheme_dt(COLOCATED_1D, mesh, None, cfg)) == \
        float.hex(0.7 * float(h_min))


def test_stable_dt_of_a_mac_velocity_is_the_hand_formula():
    # graded faces and the sinsin_shear velocity: min |P| over the outflow
    # sum_zeta |zeta| max(v_zeta delta_{P,zeta}, 0), face by face
    mesh = build_cartesian(8, 8, grading=1.1)
    dual = build_dual_mac(mesh)
    vn = MAC.velocity_at(manufactured_solution("sinsin_shear")["v"], mesh,
                         dual, 0.0)
    outflow = (mesh.cell_face_measures * np.maximum(
        vn[mesh.cell_faces] * dual.cell_face_delta, 0.0)).sum(axis=1)
    expect = float(np.min(mesh.cell_volumes / outflow))
    assert float.hex(stable_dt(MAC, vn, mesh, dual)) == float.hex(expect)
    # no outflow anywhere: no bound, and the scheme takes T as its dt_0
    assert stable_dt(MAC, np.zeros(mesh.n_faces), mesh, dual) == np.inf
    cfg = SchemeConfig(q0=bump1d, T=0.3, cfl=0.5,
                       velocity=lambda x, t: np.zeros((x.shape[0], 2)))
    assert scheme_dt(MAC, mesh, dual, cfg) == 0.5 * 0.3


def test_scheme_levels_needs_a_scheme_layout_and_a_velocity():
    mesh = build_cartesian(4, 4)
    with pytest.raises(ValueError, match="a mac scheme needs a closed-form"):
        scheme_levels(MAC, mesh, build_dual_mac(mesh),
                      SchemeConfig(q0=bump1d, T=0.1))
    cfg = SchemeConfig(q0=bump1d, T=0.1,
                       velocity=lambda x, t: np.ones((x.shape[0], 2)))
    with pytest.raises(ValueError, match="no scheme generates 'rt' fields"):
        scheme_levels(RT, mesh, build_dual_rt(mesh), cfg)


# ---------------------------------------------------------------- MAC mass

def bump2d_q0(x):
    x = np.atleast_2d(x)
    out = np.ones(x.shape[0])
    for d, (a, b) in enumerate(((0.2, 0.6), (0.3, 0.7))):
        u = (2 * x[:, d] - (a + b)) / (b - a)
        f = np.zeros_like(u)
        inside = np.abs(u) < 1
        f[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        out = out * f
    return out


def test_mass_mac_zero_velocity_identity():
    mesh = build_cartesian(8, 8)
    dual = build_dual_mac(mesh)
    cfg = SchemeConfig(q0=bump2d_q0, T=0.25, cfl=0.5,
                       velocity=lambda x, t: np.zeros((x.shape[0], 2)))
    q, v, grid, ledger = collect_scheme(MAC, mesh, dual, cfg)
    assert np.all(q.values == q.values[0])
    assert ledger.max_relative_defect() == 0.0


def test_mass_mac_rejects_a_velocity_that_outgrows_the_step():
    # dt is chosen from v at t = 0; v = (1 + 20 t, 0.5) has grown past the
    # CFL bound of that dt by the second step, and the per-step guard names it
    mesh = build_cartesian(8, 8)
    dual = build_dual_mac(mesh)
    velocity = lambda x, t: np.broadcast_to(np.array([1.0 + 20.0 * t, 0.5]),
                                            (x.shape[0], 2)).copy()
    cfg = SchemeConfig(q0=bump2d_q0, T=0.2, velocity=velocity)
    with pytest.raises(CFLError, match="CFL violated at step 1$"):
        collect_scheme(MAC, mesh, dual, cfg)


def test_mass_mac_rejects_a_step_count_that_overflows():
    # T / (cfl * bound) is inf at cfl = 1e-308: a ValueError (exit 2 from
    # the command line), not an OverflowError from the step count
    mesh = build_cartesian(8, 8)
    cfg = SchemeConfig(q0=bump2d_q0, T=0.5, cfl=1e-308,
                       velocity=lambda x, t: np.ones((x.shape[0], 2)))
    with pytest.raises(ValueError, match="inf time steps is not a finite"):
        scheme_levels(MAC, mesh, build_dual_mac(mesh), cfg)


def test_mass_mac_constant_state_interior():
    mesh = build_cartesian(8, 8)
    dual = build_dual_mac(mesh)
    cfg = SchemeConfig(q0=lambda x: np.full(x.shape[0], 3.0), T=0.2, cfl=0.5,
                       velocity=lambda x, t: np.broadcast_to(
                           np.array([1.0, 0.5]), (x.shape[0], 2)).copy())
    q, v, grid, ledger = collect_scheme(MAC, mesh, dual, cfg)
    # inflow feeds exterior value 0, so only cells away from inflow keep c
    inner = mesh.interior_cell_mask
    # after few steps the inflow layer has not reached deep interior cells
    mid = np.argmin(((mesh.cell_centroids - 0.6) ** 2).sum(axis=1))
    assert q.values[1, mid] == 3.0
    assert ledger.max_relative_defect() <= 1e-12


def test_mass_mac_one_step_matches_stencil_oracle():
    mesh = build_cartesian(8, 8)
    dual = build_dual_mac(mesh)
    vel = (1.0, 0.0)
    cfg = SchemeConfig(q0=bump2d_q0, T=1.0 / 16, cfl=0.5,
                       velocity=lambda x, t: np.broadcast_to(
                           np.array(vel), (x.shape[0], 2)).copy())
    q, v, grid, ledger = collect_scheme(MAC, mesh, dual, cfg)
    dt = grid.steps[0]
    h = 1.0 / 8
    q0 = q.values[0].reshape(8, 8)       # cells indexed (ix, iy)
    # direct五-point upwind stencil with inflow 0 at x = 0
    expect = np.empty_like(q0)
    for i in range(8):
        for j in range(8):
            left = q0[i - 1, j] if i else 0.0
            expect[i, j] = q0[i, j] - (dt / h) * (q0[i, j] - left)
    assert np.abs(q.values[1].reshape(8, 8) - expect).max() < 1e-14
    assert ledger.max_relative_defect() <= 1e-12


def test_mass_mac_step_forms_measure_times_flux():
    # graded faces and the sinsin_shear velocity, so no product is exact:
    # the flux rule gives F = q_up * v on every face, and one step adds
    # |zeta| * (F * delta) per local face, opposite faces first.  Forming
    # the terms as (|zeta| * q_up) * v moves q^1 in its last bits
    sol = manufactured_solution("sinsin_shear")
    mesh = build_cartesian(8, 8, grading=1.1)
    dual = build_dual_mac(mesh)
    cfg = SchemeConfig(q0=lambda x: sol["q"](x, 0.0), T=0.1, cfl=0.5,
                       velocity=sol["v"])
    q, v, grid, ledger = collect_scheme(MAC, mesh, dual, cfg)
    q0, v0, dt = q.values[0], v.values[0], float(grid.steps[0])
    flux = np.empty(mesh.n_faces)
    for f, (p, r) in enumerate(mesh.face_cells):
        qr = 0.0 if r < 0 else q0[r]        # exterior value 0
        signal = v0[f] * dual.face_delta_first[f]
        up = (q0[p] if signal > 0 else qr if signal < 0
              else 0.5 * q0[p] + 0.5 * qr)
        flux[f] = up * v0[f]
    q1 = np.empty(mesh.n_cells)
    for c, faces in enumerate(mesh.cell_faces):
        t = [mesh.face_measures[f] * (flux[f] * dual.cell_face_delta[c, k])
             for k, f in enumerate(faces)]
        q1[c] = q0[c] - (dt / mesh.cell_volumes[c]) * ((t[0] + t[2])
                                                       + (t[1] + t[3]))
    rule = staggered_flux_rule(mesh, MAC, dual, get_pair("id"))
    assert_bitwise(rule(q.values[:1], v.values[:1])[0], flux)
    assert_bitwise(q.values[1], q1)
    assert np.any(q1 != q0)


def test_mass_mac_divergence_free_swirl_mass_exact():
    mesh = build_cartesian(8, 8)
    dual = build_dual_mac(mesh)

    def swirl(x, t):
        # tangential field, zero normal component at the boundary
        return np.stack([-np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
                         np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])],
                        axis=-1)

    cfg = SchemeConfig(q0=bump2d_q0, T=0.1, cfl=0.4, velocity=swirl)
    q, v, grid, ledger = collect_scheme(MAC, mesh, dual, cfg)
    assert ledger.max_relative_defect() <= 1e-12
    assert np.abs(ledger.boundary_flux).max() <= 1e-13


# ---------------------------------------------------------------- sampling

def test_sample_manufactured_constants():
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 2)
    dual = build_dual_mac(mesh)
    q, v = sample_manufactured(
        lambda x, t: np.full(x.shape[0], 2.0),
        lambda x, t: np.broadcast_to(np.array([1.0, -1.0]),
                                     (x.shape[0], 2)).copy(),
        "mac", mesh, dual, grid)
    assert np.all(q.values == 2.0)
    vertical = dual.face_family == 0
    assert np.all(v.values[:, vertical] == 1.0)
    assert np.all(v.values[:, ~vertical] == -1.0)


def test_sample_manufactured_affine():
    mesh = build_cartesian(4, 4)
    grid = build_time_grid(1.0, 1)
    dual = build_dual_mac(mesh)
    q, _ = sample_manufactured(lambda x, t: x[:, 0],
                               lambda x, t: np.zeros((x.shape[0], 2)),
                               "mac", mesh, dual, grid)
    assert np.abs(q.values[0] - mesh.cell_centroids[:, 0]).max() < 1e-15


def test_sample_manufactured_l1_convergence():
    qf = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) * np.cos(t)
    dists = []
    hs = []
    for n in (8, 16, 32):
        mesh = build_cartesian(n, n)
        grid = build_time_grid(0.5, n // 2)
        dual = build_dual_mac(mesh)
        q, _ = sample_manufactured(
            qf, lambda x, t: np.zeros((x.shape[0], 2)), "mac", mesh, dual, grid)
        dists.append(lp_distance(q, qf).distance)
        hs.append(mesh.delta() + grid.dt_max)
    rates = np.diff(np.log(dists)) / np.diff(np.log(hs))
    assert np.all(rates >= 0.9)


# ---------------------------------------------------------------- policies

def _outflow_bump(corner):
    # mass piled against the outflow boundary at `corner`
    return lambda x: np.exp(-((np.atleast_2d(x) - corner) ** 2).sum(axis=1)
                            / 0.02)


def _scheme_and_flux(layout, policy):
    """A scheme run whose data leave through the outflow boundary, and the
    same-policy upwind flux of its field."""
    if layout == "mac":
        # graded faces and a velocity that is no power of two, so every
        # flux product rounds
        mesh = build_cartesian(8, 8, grading=1.1)
        dual = build_dual_mac(mesh)
        cfg = SchemeConfig(q0=_outflow_bump((1.0, 1.0)), T=0.5, cfl=0.5,
                           velocity=lambda x, t: np.broadcast_to(
                               np.array([0.9, 0.3]), (x.shape[0], 2)).copy(),
                           boundary_policy=policy)
        q, v, grid, ledger = collect_scheme(MAC, mesh, dual, cfg)
        return q, grid, ledger, flux_staggered(q, v, get_pair("id"),
                                               policy=policy)
    cfg = SchemeConfig(q0=_outflow_bump((1.0,)), T=0.5, cfl=0.5,
                       boundary_policy=policy)
    q, grid, ledger = run_upwind_1d(build_intervals(32), cfg)
    return q, grid, ledger, flux_colocated_upwind_1d(q, policy)


@pytest.mark.parametrize("layout, policy", [
    ("colocated1d", "upwind_zero"), ("colocated1d", "zero_flux"),
    ("colocated1d", "periodic"), ("mac", "upwind_zero"), ("mac", "zero_flux")])
def test_scheme_honours_its_boundary_policy(layout, policy):
    # the scheme steps with the operator's flux, so C(U) of its field
    # vanishes on every cell, boundary cells included.  A 1D scheme that
    # let mass out through the closed outflow face read max |C(U)| = 31.5
    # on the outflow cell here and lost all but 2e-5 of its mass 0.125
    q, grid, ledger, flux = _scheme_and_flux(layout, policy)
    conv = assemble_convection(BetaFamily.from_field(q, get_pair("id")), flux)
    scale = np.abs(q.values).max() / grid.steps[0]
    assert np.abs(conv.values).max() <= 1e-12 * scale
    if policy == "zero_flux":
        assert np.all(ledger.boundary_flux == 0.0)
        assert (abs(ledger.mass[-1] - ledger.mass[0])
                <= 1e-14 * abs(ledger.mass[0]))


# ---------------------------------------------------------------- streaming

@pytest.mark.parametrize("layout", ["colocated1d", "mac"])
def test_streamed_march_equals_the_step_by_step_march(layout):
    # the scheme source marched in chunks of 1 step, of 3, of uneven size
    # and whole, into its reused level buffers, against one march step by
    # step into a whole array: the same q and v levels and the same ledger
    # and mass defect, bit for bit (graded faces and the sinsin_shear
    # velocity, so every flux product rounds)
    sol = manufactured_solution("bump_advect_1d" if layout == "colocated1d"
                                else "sinsin_shear")
    cfg = SchemeConfig(q0=lambda x: sol["q"](x, 0.0), T=0.2, cfl=0.5,
                       velocity=sol["v"])
    if layout == "mac":
        mesh = build_cartesian(8, 8, grading=1.1)
        dual = build_dual_mac(mesh)
        source = lambda: scheme_levels(MAC, mesh, dual, cfg)
    else:
        mesh = build_intervals(32, grading=1.1)
        source = lambda: scheme_levels(COLOCATED_1D, mesh, None, cfg)
    values, v, mass, boundary = march_by_steps(source())
    n = len(values) - 1
    assert n > 6
    whole = source()
    whole.collect()
    for slices in ([slice(k, k + 1) for k in range(n)],
                   chunk_slices(n, 65536 // 3),
                   [slice(0, 2), slice(2, n - 1), slice(n - 1, n)],
                   [slice(0, n)]):
        levels = source()
        got = np.full_like(values, np.nan)
        for ch, (qk, vk) in zip(slices, levels.chunks(slices)):
            got[ch.start:ch.stop + 1] = qk
            if v is not None:
                assert_bitwise(vk, v[ch.start:ch.stop + 1])
        assert_bitwise(got, values)
        ledger = levels.ledger
        assert_bitwise(ledger.mass, mass)
        assert_bitwise(ledger.boundary_flux, boundary)
        assert_bitwise(ledger.defect, np.abs(np.diff(mass) + boundary))
        assert (ledger.max_relative_defect()
                == whole.ledger.max_relative_defect())
