"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Thresholds and
tolerances are pinned here; nothing is deferred to later calibration.
"""

import numpy as np
import pytest

from _configs import serialize_config
from _oracles import (brute_force_flux_residual, materialise, per_step_sum,
                      scalar_outward_normal)
from fvlab.cli import main
from fvlab.consistency import (compute_X1, compute_X2, jump_sums,
                               residual_flux, residual_flux_terms,
                               residual_init, residual_time, weak_lhs)
from fvlab.fields import (CellScalarField, FaceField, TestFunction,
                          default_translate_weights, generalize_weights,
                          interpolate_test, lp_distance, translate_functional,
                          translate_functional_general)
from fvlab.geometry import (build_cartesian, build_dual_mac, build_dual_rt,
                            build_intervals, build_perturbed_quads,
                            build_time_grid)
from fvlab.layouts import MAC, RT
from fvlab.operators import (BetaFamily, assemble_convection,
                             flux_staggered, get_pair, telescoping_defect)
from fvlab.quadrature import CellQuadrature
from fvlab.schemes import (SchemeConfig, run_upwind_1d, sample_manufactured,
                           scheme_levels)
from fvlab.study import StudyConfig, run_study


def ok(num, text):
    print(f"criterion {num:02d} PASS - {text}")


def criterion7_config(**overrides):
    base = dict(levels=4, nx0=8, ny0=8, mesh_family="uniform", layout="mac",
                beta_name="id", g_name="id", face_scheme="upwind",
                field_source="manufactured", solution="sinsin_cos",
                T=0.5, dt_over_h=0.5, time_pattern="uniform")
    base.update(overrides)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def study7():
    """The criterion-7 study: manufactured MAC, beta=g=id,
    q = sin(pi x1) sin(pi x2) cos t, v = (1, 1/2), h = 1/8..1/64,
    dt = h/2, theta3 = 1."""
    return run_study(criterion7_config())


@pytest.fixture(scope="module")
def study7_shear():
    """Varying-velocity companion: with the criterion's constant v the R2
    column is identically zero, so its decay is demonstrated here."""
    return run_study(criterion7_config(solution="sinsin_shear"))


# ---------------------------------------------------------------------- 1

def test_criterion_01_geometric_identities():
    gallery = [build_cartesian(n, n) for n in (4, 8, 16, 32, 64)]
    gallery.append(build_cartesian(8, 8, grading=1.2))
    gallery.append(build_perturbed_quads(16, 16, amplitude=0.2, seed=7))
    for mesh in gallery:
        areas = mesh.face_measures[mesh.cell_faces]
        closure = np.einsum("cf,cfd->cd", areas, mesh.cell_face_normals)
        norms = np.sqrt((closure ** 2).sum(-1))
        assert np.all(norms <= 1e-12 * areas.sum(axis=1))
        for f in np.nonzero(mesh.interior_face_mask)[0]:
            p, q = mesh.face_cells[f]
            pair_sum = (scalar_outward_normal(mesh, p, f)
                        + scalar_outward_normal(mesh, q, f))
            assert np.sqrt((pair_sum ** 2).sum()) <= 1e-14
        omega = mesh.domain_measure()
        assert abs(mesh.cell_volumes.sum() - omega) <= 1e-12 * omega
    ok(1, "face closure, normal antisymmetry and area sums on the gallery")


# ---------------------------------------------------------------------- 2

def test_criterion_02_dual_measures():
    for mesh in (build_cartesian(4, 4),
                 build_perturbed_quads(8, 8, amplitude=0.2, seed=3)):
        rt = build_dual_rt(mesh)
        assert np.all(rt.half_measures.sum(axis=1) == mesh.cell_volumes)
    for mesh in (build_cartesian(4, 4), build_cartesian(8, 4)):
        mac = build_dual_mac(mesh)
        omega = mesh.domain_measure()
        for i in (0, 1):
            tot = mac.dual_measures[mac.face_family == i].sum()
            assert abs(tot - omega) <= 1e-12 * omega
    ok(2, "RT half-duals sum to |P| exactly; MAC duals partition the domain")


# ---------------------------------------------------------------------- 3

def test_criterion_03_gradient_averaging():
    mesh = build_cartesian(16, 16)
    grid = build_time_grid(0.5, 4)
    phi = TestFunction(((0.2, 0.8), (0.2, 0.8)), 0.35)
    interp = interpolate_test(phi, mesh, grid)     # default order and panels
    grad_phi = materialise(interp)[2]
    oracle = CellQuadrature(mesh, 8, panels=8)
    worst = 0.0
    for n, t in enumerate(grid.knots):
        ref = oracle.cell_vector_means(oracle.values(phi.grad, t))
        worst = max(worst, float(np.sqrt(
            ((grad_phi[n] - ref) ** 2).sum(-1)).max()))
    assert worst <= 1e-8
    ok(3, f"face-mean gradient vs volume oracle: max error {worst:.2e} <= 1e-8")


# ---------------------------------------------------------------------- 4

def test_criterion_04_constant_state_exactness():
    # interior C(U) = 0 bitwise in both layouts, for several nonlinearities
    for layout in ("mac", "rt"):
        mesh = build_cartesian(8, 8)
        grid = build_time_grid(0.5, 4)
        dual = build_dual_mac(mesh) if layout == "mac" else build_dual_rt(mesh)
        q, v = sample_manufactured(
            lambda x, t: np.full(x.shape[0], 2.0),
            lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                         (x.shape[0], 2)).copy(),
            layout, mesh, dual, grid)
        for name in ("id", "square", "slogs"):
            pair = get_pair(name)
            c = assemble_convection(BetaFamily.from_field(q, pair),
                                    flux_staggered(q, v, pair))
            assert np.all(c.values[:, mesh.interior_cell_mask] == 0.0)
    # every consistency residual column of the constant study is literally 0
    res = run_study(criterion7_config(levels=3, solution="constant",
                                      rhs_panels=24))
    for r in res.reports:
        assert (r.x1, r.x2, r.res_init, r.res_init_signed, r.res_time,
                r.res_time_signed, r.res_flux, r.r1, r.r2, r.translate) \
            == (0.0,) * 10
        assert r.weak_gap <= 1e-12     # conclusion gap: oracle quadrature floor
    ok(4, "constant states: interior C(U) bitwise zero, residual columns "
          "identically zero, weak gap at quadrature floor")


# ---------------------------------------------------------------------- 5

def test_criterion_05_conservativity():
    for n in (8, 16, 32):
        mesh = build_cartesian(n, n)
        grid = build_time_grid(0.5, n)
        dual = build_dual_mac(mesh)
        q, v = sample_manufactured(
            lambda x, t: 1.0 + 0.4 * np.sin(np.pi * x[:, 0]) * np.cos(t),
            lambda x, t: np.stack([1.0 + 0.3 * np.sin(np.pi * x[:, 0]),
                                   0.5 + 0.2 * np.cos(np.pi * x[:, 1])],
                                  axis=-1),
            "mac", mesh, dual, grid)
        flux = flux_staggered(q, v, get_pair("id"))
        defect, scale = telescoping_defect(flux)
        assert np.all(defect <= 1e-12 * scale)
    # scheme mass ledgers close per step
    mesh = build_cartesian(16, 16)
    dual = build_dual_mac(mesh)
    cfg = SchemeConfig(
        q0=lambda x: 1.0 + 0.5 * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
        T=0.2, cfl=0.5,
        velocity=lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                              (x.shape[0], 2)).copy())
    source = scheme_levels(MAC, mesh, dual, cfg)
    source.collect()
    ledger = source.ledger
    assert ledger.max_relative_defect() <= 1e-12
    mesh1 = build_intervals(64)
    cfg1 = SchemeConfig(q0=lambda x: np.exp(-60 * (x[:, 0] - 0.3) ** 2),
                        T=0.3, cfl=0.5)
    _, _, ledger1 = run_upwind_1d(mesh1, cfg1)
    assert ledger1.max_relative_defect() <= 1e-12
    ok(5, "interior flux telescoping and scheme mass ledgers close to 1e-12")


# ---------------------------------------------------------------------- 6

def test_criterion_06_flux_residual_oracle_bitwise():
    rng = np.random.default_rng(2024)
    for layout in ("mac", "rt"):
        mesh = build_cartesian(4, 4)
        grid = build_time_grid(0.5, 3)
        dual = build_dual_mac(mesh) if layout == "mac" else build_dual_rt(mesh)
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
        oracle = brute_force_flux_residual(flux, q, v, pair, mesh, grid,
                                           layout, dual)
        assert np.array_equal(table, oracle)
        assert residual_flux(flux, q, v, pair, mesh, grid, layout, dual) \
            == per_step_sum(oracle)
    ok(6, "residual_flux equals the enumeration oracle bit for bit "
          "(MAC and RT, 4x4 seeded data)")


# ---------------------------------------------------------------------- 7

def test_criterion_07_refinement_decay(study7, study7_shear):
    hs = [r.h for r in study7.reports]
    assert hs[0] == pytest.approx(np.sqrt(2) / 8) and len(hs) == 4
    assert all(r.theta3 == 1.0 for r in study7.reports)
    for name, floor in (("res_time", 0.7), ("res_flux", 0.7), ("R1", 0.7),
                        ("translate", 0.7), ("weak_gap", 0.7),
                        ("res_init", 1.5)):
        slope = study7.rates[name].finest_pair
        assert slope >= floor, f"{name}: finest-pair slope {slope} < {floor}"
    # every positive residual series decreases monotonically
    for res in (study7, study7_shear):
        for name in ("res_init", "res_time", "res_flux", "R1", "R2",
                     "translate", "weak_gap"):
            vals = np.array([r.series(name) for r in res.reports])
            if np.all(vals > 0):
                assert np.all(np.diff(vals) < 0), f"{name} not decreasing"
    # with the pinned constant velocity v=(1,1/2) the R2 column is
    # identically zero (already converged); its decay is demonstrated on the
    # varying-velocity companion study
    assert all(r.r2 == 0.0 for r in study7.reports)
    shear_slope = study7_shear.rates["R2"].finest_pair
    assert shear_slope >= 0.7
    ok(7, "manufactured MAC slopes: "
          + ", ".join(f"{n}={study7.rates[n].finest_pair:.2f}"
                      for n in ("res_init", "res_time", "res_flux", "R1",
                                "translate", "weak_gap"))
          + f"; R2 identically 0 (companion study slope {shear_slope:.2f})")


# ---------------------------------------------------------------------- 8

def test_criterion_08_lax_wendroff_1d():
    # weak gap against the exact shifted solution: the 1D upwind operator
    # applied to cell means of the exact solution (an explicit scheme
    # satisfies C(U) = 0 identically, so its own pairing carries no decay
    # information)
    cfg = StudyConfig(levels=4, nx0=32, layout="colocated1d",
                      mesh_family="interval", domain=((0.0, 1.0),),
                      solution="bump_advect_1d", field_source="manufactured",
                      dt_over_h=0.5, T=0.25)
    res = run_study(cfg)
    slope = res.rates["weak_gap"].finest_pair
    assert slope >= 0.7
    gaps = [r.weak_gap for r in res.reports]
    assert np.all(np.diff(gaps) < 0)
    # the upwind scheme at CFL 1/2 obeys the max principle at every level
    from fvlab.study import manufactured_solution
    q_exact = manufactured_solution("bump_advect_1d")["q"]
    l1 = []
    for level in range(4):
        mesh = build_intervals(32 * 2 ** level)
        scfg = SchemeConfig(q0=lambda x: q_exact(x, 0.0), T=0.25, cfl=0.5)
        q, grid, _ = run_upwind_1d(mesh, scfg)
        lo, hi = 0.0, float(np.exp(-1.0))
        assert q.values.min() >= lo - 1e-15
        assert q.values.max() <= hi + 1e-15
        l1.append(lp_distance(q, q_exact).distance)
    assert np.all(np.diff(l1) < 0)      # l1conv surrogate toward the limit
    ok(8, f"1D upwind: weak-gap slope {slope:.2f}, max principle at all "
          f"levels, L1 distance to the shifted solution decreasing")


# ---------------------------------------------------------------------- 9

def test_criterion_09_boundary_policy_independence():
    results = {}
    for policy in ("upwind_zero", "zero_flux"):
        mesh = build_cartesian(16, 16)
        grid = build_time_grid(0.5, 16)
        dual = build_dual_mac(mesh)
        pair = get_pair("id")
        qf = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) \
            * np.cos(t)
        vf = lambda x, t: np.broadcast_to(np.array([1.0, 0.5]),
                                          (x.shape[0], 2)).copy()
        q, v = sample_manufactured(qf, vf, "mac", mesh, dual, grid)
        flux = flux_staggered(q, v, pair, policy=policy)
        betas = BetaFamily.from_field(q, pair)
        c = assemble_convection(betas, flux)
        phi = TestFunction(((0.2, 0.8), (0.2, 0.8)), 0.35)
        interp = interpolate_test(phi, mesh, grid)
        x2 = compute_X2(flux, interp, q=q, v=v, pair=pair)
        init = residual_init(betas, lambda x: qf(x, 0.0), phi, pair)
        times = residual_time(betas, q, phi, pair)
        js = jump_sums(q, v)
        results[policy] = (
            compute_X1(betas, interp).value, x2.value,
            x2.gradient_route, init.signed, init.cellwise, times.signed,
            times.majorant,
            residual_flux(flux, q, v, pair, mesh, grid, "mac", dual),
            js.r1, js.r2, weak_lhs(c, interp))
    assert results["upwind_zero"] == results["zero_flux"]
    ok(9, "all interior-restricted residuals bitwise unchanged across "
          "boundary flux policies")


# ---------------------------------------------------------------------- 10

def test_criterion_10_x2_route_agreement(study7, study7_shear):
    # compute_X2 raises beyond 1e-10 relative, so every study level already
    # enforced the bound; re-check the reported values explicitly
    for res in (study7, study7_shear):
        for r in res.reports:
            scale = max(abs(r.x2), abs(r.x2_gradient))
            assert abs(r.x2 - r.x2_gradient) <= 1e-10 * scale
    ok(10, "direct and gradient/remainder X2 routes agree to 1e-10 "
           "on every study level")


# ---------------------------------------------------------------------- 11

def test_criterion_11_translate_functionals(study7):
    mesh = build_cartesian(8, 8)
    grid = build_time_grid(0.5, 8)
    w = default_translate_weights(mesh, grid)
    const = CellScalarField(mesh, grid, np.full((9, 64), 3.25))
    assert translate_functional(const, w) == 0.0
    rng = np.random.default_rng(5)
    u = CellScalarField(mesh, grid, rng.normal(size=(9, 64)))
    assert translate_functional_general(u, generalize_weights(w)).value \
        == translate_functional(u, w)
    slope = study7.rates["translate"].finest_pair
    assert slope >= 0.7
    ok(11, f"T(const) = 0, specialization identity exact, decay slope "
           f"{slope:.2f} with omega = theta*min(|K|,|L|)")


# ---------------------------------------------------------------------- 12

def test_criterion_12_thread_determinism(tmp_path):
    cfg = criterion7_config()
    ini = tmp_path / "criterion7.ini"
    ini.write_text(serialize_config(cfg))
    outputs = []
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        code = main(["run-study", "--config", str(ini), "--out", str(out),
                     "--threads", str(threads)])
        assert code == 0
        outputs.append((out / "report.csv").read_bytes()
                       + (out / "rates.csv").read_bytes())
    assert outputs[0] == outputs[1]
    ok(12, "criterion-7 study CSVs byte-identical for --threads 1 and 4")
