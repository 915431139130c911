import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (assert_bitwise, compute_level_by_stages,
                      tensor_field_per_call)
from _strategies import graded_meshes, interval_meshes, time_grids
import fvlab
from fvlab import quadrature
from fvlab.cli import parse_config
from fvlab.consistency import weak_rhs
from fvlab.fields import CellScalarField, Reference, lp_distance
from fvlab.geometry import (MeshRegularity, build_intervals,
                            build_time_grid)
from fvlab.layouts import get_layout
from fvlab.operators import get_pair
from fvlab.quadrature import SlabQuadrature
from fvlab.study import (SOLUTIONS, StudyConfig, StudyRegularityError,
                         _audit, _compute_level, _LevelQ, fit_rates,
                         manufactured_solution, run_study, write_rates_csv,
                         write_report_csv)

GOLDEN = Path(__file__).resolve().parent / "golden"


@settings(max_examples=30, deadline=None)
@given(mesh=st.one_of(interval_meshes(), graded_meshes()),
       grid=time_grids(), seed=st.integers(0, 2 ** 32 - 1))
def test_tensor_field_evaluator_matches_per_call_lookup(mesh, grid, seed):
    # the coarser q locates each point's cell once per point set; it must
    # pick the values the per-call lookup picks, on vertices, on random
    # points (some outside the domain) and at knots and random times
    rng = np.random.default_rng(seed)
    field = CellScalarField(mesh, grid, rng.normal(
        size=(grid.n_steps + 1, mesh.n_cells)))
    points = np.concatenate([
        mesh.vertices, mesh.cell_centroids,
        rng.uniform(-0.1, 1.1, size=(20, mesh.dim))])
    times = np.concatenate([grid.knots, rng.uniform(
        -0.1, 1.1 * grid.final_time, size=5)])
    old = tensor_field_per_call(field)
    want = np.stack([old(points, t) for t in times])
    assert_bitwise(_filled(field).at(points)(times), want)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(SOLUTIONS)), which=st.sampled_from("qv"),
       n_points=st.integers(1, 40), n_times=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_solution_references_fill_their_buffer_bit_for_bit(
        name, which, n_points, n_times, seed):
    # ev(times, out=buf) of every Reference among the q and v of the
    # solutions writes into buf, unchanged, the bits of ev(times); points
    # in and past the domain, the bump's support edges and signed zeros
    ref = SOLUTIONS[name][which]
    if not isinstance(ref, Reference):
        return
    dim = SOLUTIONS[name]["dim"]
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.2, 1.2, size=(n_points, dim))
    points[: min(3, n_points), 0] = [0.15, 0.45, 0.3][: min(3, n_points)]
    times = np.concatenate([[0.0, -0.0], rng.uniform(0.0, 1.0, n_times)])
    ev = ref.at(points)
    want = ev(times)
    buf = np.full(want.shape, np.nan)
    got = ev(times, out=buf)
    assert got is buf
    assert_bitwise(buf, want)


@settings(max_examples=30, deadline=None)
@given(mesh=st.one_of(interval_meshes(), graded_meshes()),
       grid=time_grids(), seed=st.integers(0, 2 ** 32 - 1))
def test_tensor_field_evaluator_fills_its_buffer_bit_for_bit(mesh, grid,
                                                             seed):
    # the coarser q's ev(times, out=buf) gathers into buf the bits
    # of ev(times), on points in and past the domain at knots and between
    rng = np.random.default_rng(seed)
    field = CellScalarField(mesh, grid, rng.normal(
        size=(grid.n_steps + 1, mesh.n_cells)))
    points = np.concatenate([mesh.cell_centroids, rng.uniform(
        -0.1, 1.1, size=(20, mesh.dim))])
    times = np.concatenate([grid.knots, rng.uniform(
        -0.1, 1.1 * grid.final_time, size=5)])
    ev = _filled(field).at(points)
    buf = np.full((times.size, len(points)), np.nan)
    assert ev(times, out=buf) is buf
    assert_bitwise(buf, ev(times))


_STUDIES_WITHOUT_MASKED_ARRAYS = """
import sys
from fvlab.study import StudyConfig, run_study
run_study(StudyConfig(levels=3, nx0=6, ny0=6, layout="mac"))
run_study(StudyConfig(levels=3, nx0=8, layout="colocated1d",
                      field_source="scheme", T=0.25))
print("numpy.ma" in sys.modules)
"""


def _run_script(script):
    """The stdout of a Python process running script on this fvlab."""
    src = str(Path(fvlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_studies_do_not_import_masked_arrays():
    # np.unique imports numpy.ma on its first call in a process, about
    # 19 ms and 1 MiB; a MAC and a 1D scheme study must not pay for it
    assert _run_script(_STUDIES_WITHOUT_MASKED_ARRAYS).split() == ["False"]


def test_constant_study_all_zero_residual_columns(tmp_path):
    cfg = StudyConfig(levels=3, nx0=8, ny0=8, solution="constant",
                      layout="mac", rhs_panels=16)
    res = run_study(cfg)
    for r in res.reports:
        assert r.x1 == 0.0
        assert r.x2 == 0.0
        assert r.res_init == 0.0 and r.res_init_signed == 0.0
        assert r.res_time == 0.0 and r.res_time_signed == 0.0
        assert r.res_flux == 0.0
        assert r.r1 == 0.0 and r.r2 == 0.0
        assert r.translate == 0.0
        assert r.weak_gap <= 1e-10          # conclusion gap: quadrature floor
    write_report_csv(res, tmp_path / "report.csv")
    rows = (tmp_path / "report.csv").read_text().splitlines()
    # residual columns (X1 .. translate) print as literal zeros
    assert rows[1].split(",")[6:14] == ["0"] * 8


ALTERNATING = dict(time_pattern="alternating", time_ratio=2.0)


@pytest.mark.parametrize("case, changes, level", [
    ("mac_scheme8", {}, 0), ("rt_perturbed_seed1", {}, 0),
    ("col1d_scheme16", {}, 1),
    ("criterion7", {}, 1),
    ("col1d_scheme16", dict(field_source="manufactured"), 1),
    ("mac_scheme8", {}, 1), ("mac_scheme_graded_zero_flux", {}, 1),
    ("criterion7", ALTERNATING, 1),
    ("col1d_scheme16", dict(grading=1.02), 2)], ids=[
    "mac_scheme8-0", "rt_perturbed_seed1-0", "col1d_scheme16-1",
    "criterion7-1", "col1d_scheme16-manufactured-1", "mac_scheme8-1",
    "mac_scheme_graded_zero_flux-1", "criterion7-alternating-1",
    "col1d_scheme16-graded-2"])
def test_report_rows_do_not_depend_on_the_chunk_size(case, changes, level):
    # one level of a golden study by the one-pass level_pass, its q and v
    # streamed from their source (the sampler or the scheme's march), with
    # CHUNK_VALUES at one value a chunk, at 1, N - 1, N and N + 1 steps of
    # the pass (its flux-defect table) and at the default, against the same
    # level with every stage run on its own over the whole level: each
    # field of the report row, the weak-form RHS, the mass defect and the
    # Cauchy distance to the coarser level taken inside the pass included,
    # keeps its bits, and so does the q the pass gathers whole for the
    # next level (none on the perturbed mesh, which has no tensor lookup).
    # The oracle's L1 distances read the limit and the coarser q as plain
    # f(x, t), which declare nothing and are called at every Gauss time.
    # The pass evaluates a cell once per slab where its reference cannot
    # change within the chunk's slabs: the coarser q on each chunk whose
    # slabs each lie in one coarser slab (some chunks of every level >= 1
    # here, and chunks of both kinds on the alternating grids, whose 1 : 2
    # steps do not nest), and the advected bump's limit outside the range
    # of cells that its support crosses
    config, _ = parse_config(GOLDEN / case / "study.ini")
    config = dataclasses.replace(config, **changes)
    phi = config.test_function()
    sol = manufactured_solution(config.solution)

    def rhs():
        return weak_rhs(get_pair(config.beta_name, config.g_name), sol["q"],
                        sol["v"], phi, panels=config.rhs_panels)

    def hexes(report):
        return [float(x).hex() for x in dataclasses.astuple(report)]

    report, q = compute_level_by_stages(config, level, phi, rhs(), None)
    coarse = None
    if level:
        _, coarse = compute_level_by_stages(config, level - 1, phi, rhs(),
                                            None)
        report.l1_cauchy = lp_distance(q, tensor_field_per_call(coarse),
                                       order=2).distance
        assert np.isfinite(report.l1_cauchy)
    want = hexes(report)
    n = q.grid.n_steps
    per_step = (q.mesh.n_cells * q.mesh.cell_faces.shape[1]
                * get_layout(config.layout).pieces)
    assert n > 2
    # the (rule nodes, kind of varying range) of every slab rule call
    cauchy_nodes = 2 ** q.mesh.dim
    exact_nodes = config.quad_order ** q.mesh.dim
    calls = set()
    slab_cell_integrals = SlabQuadrature.slab_cell_integrals

    def spy(self, f, steps, out=None, varying=slice(None)):
        n_cells, nodes = self.cell.points.shape[:2]
        size = len(range(n_cells)[varying])
        calls.add((nodes, "none" if size == 0 else
                   "all" if size == n_cells else "part"))
        return slab_cell_integrals(self, f, steps, out=out, varying=varying)

    sizes = {1, quadrature.CHUNK_VALUES}
    for values in sorted(sizes | {k * per_step for k in (1, n - 1, n, n + 1)}):
        with mock.patch.object(quadrature, "CHUNK_VALUES", values), \
                mock.patch.object(SlabQuadrature, "slab_cell_integrals", spy):
            got, mine = _compute_level(config, level, phi, rhs(), None,
                                       _filled(coarse))
        assert hexes(got) == want, values
        if q.mesh.is_rectangular():
            assert_bitwise(mine.values, q.values)
        else:
            assert mine is None
    cauchy = {kind for nodes, kind in calls if nodes == cauchy_nodes}
    assert ("none" in cauchy and "part" not in cauchy) if level \
        else cauchy == set()
    if changes is ALTERNATING:
        assert cauchy == {"none", "all"}
    exact = {kind for nodes, kind in calls if nodes == exact_nodes}
    assert (exact & {"none", "part"} if config.solution == "bump_advect_1d"
            else exact == {"all"})


def _filled(field):
    """field as a whole, put into a ``_LevelQ``."""
    if field is None:
        return None
    level_q = _LevelQ(field.mesh, field.grid)
    level_q.put(0, field.values)
    return level_q


@pytest.mark.parametrize("seed", [1, 2])
def test_perturbed_study_neither_gathers_nor_waits_for_a_cauchy_q(seed):
    # without tensor structure there is no Cauchy reference: no level
    # gathers its q or reads a coarser one (nor waits for one: levels run
    # in order), and l1_cauchy stays nan, whatever the perturbation seed
    config, _ = parse_config(GOLDEN / "rt_perturbed_seed1" / "study.ini")
    config = dataclasses.replace(config, seed=seed)
    with mock.patch.object(_LevelQ, "put", side_effect=AssertionError), \
            mock.patch.object(_LevelQ, "at", side_effect=AssertionError):
        result = run_study(config)
    assert all(np.isnan(r.l1_cauchy) for r in result.reports)


# a MAC manufactured and a 1D scheme study, each on tensor meshes
CAUCHY_STUDIES = [
    StudyConfig(levels=3, nx0=6, ny0=6, layout="mac"),
    StudyConfig(levels=4, nx0=8, layout="colocated1d", field_source="scheme",
                T=0.25)]


@pytest.mark.parametrize("config", CAUCHY_STUDIES)
def test_l1_cauchy_does_not_depend_on_the_thread_count(config):
    # each level's Cauchy distance is taken inside its pass against the
    # coarser level's q, handed over when that level is done: none on
    # level 0, finite on every finer level (the BLAS thread count is
    # criterion 12's)
    column = [r.l1_cauchy for r in run_study(config).reports]
    assert np.isnan(column[0])
    assert all(np.isfinite(x) for x in column[1:])


@pytest.mark.parametrize("config", CAUCHY_STUDIES)
def test_the_finest_level_holds_no_whole_q(config):
    # each coarser level's pass puts every row of its q, for the next
    # level's Cauchy distance; no level reads the finest q, so none of it
    # is put (nor held: a whole q is (N + 1) x NC values)
    meshes, rows = [], {}
    real_source, real_put = fvlab.study.level_source, _LevelQ.put

    def level_source(config, level):
        source = real_source(config, level)
        meshes.append((source.mesh, source.grid.n_steps))
        return source

    def put(self, start, levels):
        rows.setdefault(id(self.mesh), []).extend(
            range(start, start + len(levels)))
        return real_put(self, start, levels)

    with mock.patch.object(fvlab.study, "level_source", level_source), \
            mock.patch.object(_LevelQ, "put", put):
        run_study(config)
    assert len(meshes) == config.levels
    finest, _ = meshes[-1]
    assert id(finest) not in rows
    for mesh, n_steps in meshes[:-1]:
        assert mesh.is_rectangular()
        assert rows[id(mesh)] == list(range(n_steps + 1))


def test_manufactured_study_monotone_and_rated():
    cfg = StudyConfig(levels=3, nx0=8, ny0=8, solution="sinsin_cos",
                      layout="mac")
    res = run_study(cfg)
    for name in ("res_flux", "R1", "translate", "weak_gap"):
        vals = [r.series(name) for r in res.reports]
        assert np.all(np.diff(vals) < 0)
        assert np.isfinite(res.rates[name].lsq_slope)
    assert all(r.theta3 == 1.0 for r in res.reports)
    assert all(r.theta1 == pytest.approx(2.0) for r in res.reports)


def test_perturbed_rt_study_theta_bounded():
    cfg = StudyConfig(levels=3, nx0=8, ny0=8, solution="sinsin_shear",
                      layout="rt", mesh_family="perturbed", amplitude=0.2,
                      face_scheme="centered", seed=7)
    res = run_study(cfg)
    # amplitude 0.2 bounds adjacent-area ratios within the family
    cap = ((1 + 2 * 0.2) / (1 - 2 * 0.2)) ** 2
    for r in res.reports:
        assert 1.0 < r.theta2 < cap
        assert r.rt_constant == 3
    assert res.rates["R2"].finest_pair >= 0.7


def test_scheme_study_1d_max_principle_and_l1():
    cfg = StudyConfig(levels=3, nx0=32, layout="colocated1d",
                      mesh_family="interval", domain=((0.0, 1.0),),
                      solution="bump_advect_1d", field_source="scheme",
                      cfl=0.5, T=0.25)
    res = run_study(cfg)
    for r in res.reports:
        assert r.scheme_min >= -1e-15
        assert r.scheme_max <= np.exp(-1.0) + 1e-15
        assert r.mass_defect <= 1e-12
    l1 = [r.l1_distance for r in res.reports]
    assert np.all(np.diff(l1) < 0)
    # scheme-generated C(U) vanishes: the weak pairing is identically zero
    for r in res.reports:
        assert abs(r.x1 + r.x2) <= 1e-12
    cauchy = [r.l1_cauchy for r in res.reports[1:]]
    assert np.all(np.isfinite(cauchy))


def test_manufactured_1d_weak_gap_decays():
    cfg = StudyConfig(levels=3, nx0=32, layout="colocated1d",
                      mesh_family="interval", domain=((0.0, 1.0),),
                      solution="bump_advect_1d", field_source="manufactured",
                      dt_over_h=0.5, T=0.25)
    res = run_study(cfg)
    gaps = [r.weak_gap for r in res.reports]
    assert np.all(np.diff(gaps) < 0)
    assert res.rates["weak_gap"].finest_pair >= 0.7


def test_levels_validation():
    cfg = StudyConfig(levels=2)
    with pytest.raises(ValueError, match=r"levels must be in \[3, inf\)"):
        run_study(cfg)


def test_solution_registry():
    with pytest.raises(KeyError):
        manufactured_solution("nope")
    sol = manufactured_solution("sinsin_cos")
    assert sol["dim"] == 2


def test_mismatched_solution_dimension():
    cfg = StudyConfig(layout="colocated1d", mesh_family="interval",
                      solution="sinsin_cos")
    with pytest.raises(ValueError, match="1D"):
        cfg.validate()


def test_rate_fit_requires_three_levels():
    with pytest.raises(ValueError):
        fit_rates([])


def test_rates_csv_layout(tmp_path):
    cfg = StudyConfig(levels=3, nx0=8, ny0=8, solution="sinsin_cos")
    res = run_study(cfg)
    path = tmp_path / "rates.csv"
    write_rates_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "series,lsq_slope,finest_pair_slope,pair_0_1,pair_1_2"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["res_init", "res_time", "res_flux", "R1", "R2",
                     "translate", "weak_gap"]
    # LF endings and 17-significant-digit floats
    raw = path.read_bytes()
    assert b"\r" not in raw


def test_scheme_study_mac_pipeline():
    cfg = StudyConfig(levels=3, nx0=8, ny0=8, layout="mac",
                      field_source="scheme", solution="sinsin_shear",
                      cfl=0.4, T=0.2)
    res = run_study(cfg)
    for r in res.reports:
        # the explicit update satisfies C(U) = 0, so the pairing vanishes
        assert abs(r.x1 + r.x2) <= 1e-12
        assert r.mass_defect <= 1e-12
    for name in ("res_flux", "R1", "R2"):
        vals = [r.series(name) for r in res.reports]
        assert np.all(np.diff(vals) < 0)


def test_graded_family_regularity_constant_across_levels():
    # nested subdivision keeps theta1/theta2 literally constant per level
    cfg = StudyConfig(levels=3, nx0=8, ny0=8, layout="mac",
                      mesh_family="graded", grading=1.2,
                      solution="sinsin_shear",
                      support=((0.3, 0.65), (0.3, 0.65)))
    res = run_study(cfg)
    t1 = [r.theta1 for r in res.reports]
    t2 = [r.theta2 for r in res.reports]
    assert max(t1) - min(t1) <= 1e-12 * max(t1)
    assert max(t2) - min(t2) <= 1e-12 * max(t2)
    assert np.allclose(t2, 1.2, rtol=1e-10)
    for name in ("res_flux", "R1", "R2", "weak_gap"):
        assert res.rates[name].finest_pair >= 0.7


def test_graded_levels_reuse_level0_nodes(monkeypatch):
    # nested subdivision needs the level-0 graded nodes only, not a mesh
    from fvlab import study
    from fvlab.geometry import build_cartesian
    cfg = StudyConfig(levels=3, nx0=4, ny0=3, layout="mac",
                      mesh_family="graded", grading=1.3,
                      domain=((0.0, 2.0), (-1.0, 1.0)))
    base = build_cartesian(4, 3, cfg.domain, grading=1.3)
    calls = []
    monkeypatch.setattr(study, "build_cartesian",
                        lambda *a, **k: calls.append(a))
    for level in range(3):
        mesh = study.build_level(cfg, level)[0]
        for d in range(2):
            nodes = np.unique(mesh.vertices[:, d])
            assert np.array_equal(nodes[::2 ** level],
                                  np.unique(base.vertices[:, d]))
    assert calls == []


def test_audit_cap_names_each_parameter_over_it():
    cfg = StudyConfig(regularity_cap=10.0)
    _audit(cfg, 0, MeshRegularity(10.0, 2.0, 10.0), None)     # at the cap
    with pytest.raises(StudyRegularityError) as exc:
        _audit(cfg, 0, MeshRegularity(10.5, 2.0, 12.0), None)
    assert exc.value.parameter == "theta1 theta3"
    assert str(exc.value) == ("theta1 = 10.5 exceeds cap 10.0 at level 0; "
                              "theta3 = 12 exceeds cap 10.0 at level 0")


def test_audit_growth_names_the_parameter_that_outgrows_its_base():
    # each parameter may grow to regularity_growth * max(base, 1); a
    # parameter over the cap is named by the cap alone
    cfg = StudyConfig(regularity_cap=100.0, regularity_growth=2.0)
    base = MeshRegularity(3.0, 0.5, 40.0)
    _audit(cfg, 2, MeshRegularity(6.0, 2.0, 80.0), base)
    _audit(cfg, 0, MeshRegularity(6.0, 2.5, 80.0), None)     # no base yet
    with pytest.raises(StudyRegularityError) as exc:
        _audit(cfg, 2, MeshRegularity(6.0, 2.5, 101.0), base)
    assert exc.value.parameter == "theta2 theta3"
    assert str(exc.value) == ("theta2 grows across levels: 0.5 -> 2.5 at "
                              "level 2; theta3 = 101 exceeds cap 100.0 at "
                              "level 2")


def test_alternating_time_grid_study():
    cfg = StudyConfig(levels=3, nx0=8, ny0=8, layout="mac",
                      solution="sinsin_shear", time_pattern="alternating",
                      time_ratio=2.0)
    res = run_study(cfg)
    assert all(abs(r.theta3 - 2.0) < 1e-12 for r in res.reports)
    for name in ("res_time", "res_flux", "R1", "R2", "weak_gap"):
        assert res.rates[name].finest_pair >= 0.7
