import configparser
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fvlab
import fvlab.cli
from _configs import serialize_config
from fvlab.cli import CONFIG_TABLE, main, parse_config
from fvlab.geometry import build_cartesian, build_perturbed_quads
from fvlab.meshio import save_mesh
from fvlab.study import RATE_SERIES

GOLDEN = Path(__file__).resolve().parent / "golden"

BASE_CONFIG = """\
[mesh]
family = uniform
nx = 4
ny = 4

[time]
T = 0.5
dt_over_h = 0.5

[study]
levels = 3
layout = mac
beta = id
g = id
face_scheme = upwind
solution = sinsin_cos

[test_function]
x0 = 0.3
x1 = 0.7
y0 = 0.3
y1 = 0.7
t_max_factor = 0.7
"""


SCHEME_1D = """\
[mesh]
family = interval
nx = 8

[time]
T = 0.25

[study]
levels = 3
layout = colocated1d
solution = bump_advect_1d
field_source = scheme
cfl = 0.5
"""


def write_config(tmp_path, text=BASE_CONFIG, name="study.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_mesh_info_reports_theta(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["mesh-info", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cells        16" in out
    assert "theta1       2" in out
    # 4x2 MAC grid has theta = 2
    cfg = BASE_CONFIG.replace("ny = 4", "ny = 2")
    path2 = write_config(tmp_path, cfg, "study2.ini")
    main(["mesh-info", "--config", str(path2)])
    out = capsys.readouterr().out
    assert "theta_mac    2" in out


# the whole mesh-info summary of level 0 of three golden studies: only the
# MAC dual has a theta_mac line
MESH_INFO = {
    "mac_scheme_graded_zero_flux": (
        "dimension    2\ncells        64\nfaces        144\n"
        "vertices     81\ninterior     36\ndelta        0.24098715621818362\n"
        "theta1       2.4618752182307078\ntheta2       1.1000000000000052\n"
        "theta3       1.000000000000002\ntheta_mac    1.9487171000000005\n"),
    "rt_perturbed_seed1": (
        "dimension    2\ncells        64\nfaces        144\n"
        "vertices     81\ninterior     36\ndelta        0.22016478418493404\n"
        "theta1       2.7944479294366085\ntheta2       1.6899884967751868\n"
        "theta3       1\n"),
    "col1d_scheme16": (
        "dimension    1\ncells        16\nfaces        17\n"
        "vertices     17\ninterior     14\ndelta        0.0625\n"
        "theta1       0.0625\ntheta2       1\ntheta3       1\n"),
}


@pytest.mark.parametrize("case", sorted(MESH_INFO))
def test_mesh_info_prints_the_whole_summary(case, capsys):
    config = str(GOLDEN / case / "study.ini")
    assert main(["mesh-info", "--config", config]) == 0
    assert capsys.readouterr().out == MESH_INFO[case]
    assert main(["check-identities", "--config", config]) == 0
    assert capsys.readouterr().out == "all identities hold\n"


@pytest.mark.parametrize("layout, mesh, info", [
    ("rt", lambda: build_perturbed_quads(16, 16, amplitude=0.2, seed=3),
     "cells        256\nfaces        544\nvertices     289\n"
     "interior     196\ndelta        0.11190214728924364\n"
     "theta1       2.9552732411895968\ntheta2       1.8820279869091463\n"
     "theta3       1.0000000000000011\n"),
    ("mac", lambda: build_cartesian(8, 6),
     "cells        48\nfaces        110\nvertices     63\n"
     "interior     24\ndelta        0.2083333333333334\n"
     "theta1       2.0833333333333419\ntheta2       1.0000000000000053\n"
     "theta3       1.0000000000000007\ntheta_mac    1.3333333333333339\n"),
])
def test_saved_meshes_and_their_duals(layout, mesh, info, tmp_path, capsys):
    # a saved mesh with the dual of its layout: the dual's own theta and
    # measure identities, through the file branch of both commands
    save_mesh(mesh(), tmp_path / "mesh.txt")
    path = write_config(tmp_path, f"[mesh]\nfile = {tmp_path / 'mesh.txt'}"
                        f"\n\n[study]\nlayout = {layout}\n")
    assert main(["check-identities", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "all identities hold\n"
    assert main(["mesh-info", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "dimension    2\n" + info


def test_mesh_info_reports_the_time_grid_of_study_level_0(tmp_path, capsys):
    # the study's level 0 takes its steps from h = 1/8, not from the cell
    # diameter: 2 alternating steps of ratio 2, where sqrt(2)/8 gives 1
    text = (BASE_CONFIG.replace("nx = 4\nny = 4", "nx = 8\nny = 8")
            .replace("T = 0.5", "T = 0.1\npattern = alternating\nratio = 2"))
    path = write_config(tmp_path, text)
    assert main(["mesh-info", "--config", str(path)]) == 0
    info = dict(line.split(None, 1)
                for line in capsys.readouterr().out.splitlines())
    assert main(["run-study", "--config", str(path), "--out",
                 str(tmp_path)]) == 0
    header, level0 = (tmp_path / "report.csv").read_text().splitlines()[:2]
    report = dict(zip(header.split(","), level0.split(",")))
    assert info["theta3"] == report["theta3"] == "2.0000000000000004"


def test_bad_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "[mesh]\nnx = banana\n", "bad.ini")
    assert main(["mesh-info", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    path2 = write_config(tmp_path, "[mesh]\nunknown_key = 1\n", "bad2.ini")
    assert main(["mesh-info", "--config", str(path2)]) == 2
    missing = tmp_path / "missing.ini"
    assert main(["mesh-info", "--config", str(missing)]) == 2
    # every named choice is checked before any level runs: no report is
    # written and the error names the offending value
    bad_inputs = [
        ("[thresholds]\nres_flux = abc\n", "'abc'"),
        ("[thresholds]\nres_flx = 0.5\n", "'res_flx'"),
        ("family = uniform", "family = hexagonal", "'hexagonal'"),
        ("family = uniform", "family = interval", "'interval'"),
        ("face_scheme = upwind", "face_scheme = downwind", "'downwind'"),
        ("layout = mac", "layout = mac\nboundary_policy = periodic",
         "'periodic'"),
        ("T = 0.5", "T = 0.5\npattern = zigzag", "'zigzag'"),
        ("t_max_factor = 0.7", "t_max_factor = 0.7\ntime_profile = late",
         "'late'"),
        ("layout = mac", "layout = rt\nfield_source = scheme", "'rt'"),
        # a scheme steps on its own uniform CFL grid
        ("dt_over_h = 0.5\n\n[study]\n",
         "dt_over_h = 0.5\npattern = alternating\nratio = 2\n\n[study]\n"
         "field_source = scheme\n", "not the 'alternating' time pattern"),
        ("layout = mac", "layout = hex", "'hex'"),
        ("dt_over_h = 0.5", "dt_over_h = 0", "dt_over_h must be finite"),
        ("T = 0.5", "T = inf", "T must be finite and positive, got inf"),
        ("dt_over_h = 0.5", "dt_over_h = -0.5", "got -0.5"),
        # threads is no INI key (the --threads flag is accepted and ignored)
        ("layout = mac", "layout = mac\nthreads = 2",
         "unknown key 'threads' in [study]"),
        ("layout = mac", "layout = mac\ntranslate_theta = nan",
         "translate_theta must be finite and non-negative, got nan"),
        ("layout = mac", "layout = mac\ntranslate_theta = inf", "got inf"),
        ("layout = mac", "layout = mac\ntranslate_theta = -1", "got -1.0"),
        ("[audit]\nregularity_cap = nan\n",
         "regularity_cap must be finite and positive, got nan"),
        ("[audit]\nregularity_cap = -inf\n", "got -inf"),
        ("[audit]\nregularity_growth = nan\n",
         "regularity_growth must be finite and positive, got nan"),
        ("[audit]\nregularity_growth = 0\n", "got 0.0"),
        # the time grid, the test function's time support and the mesh
        # box are checked before the output directory is made
        ("T = 0.5", "T = 0.5\npattern = alternating\nratio = inf",
         "time_ratio must be finite and positive, got inf"),
        ("T = 0.5", "T = 0.5\npattern = alternating\nratio = nan",
         "time_ratio must be finite and positive, got nan"),
        ("T = 0.5", "T = 0.5\npattern = alternating\nratio = 0", "got 0.0"),
        ("t_max_factor = 0.7", "t_max_factor = inf",
         "t_max_factor must be in (0, 1), got inf"),
        ("t_max_factor = 0.7", "t_max_factor = nan", "got nan"),
        ("t_max_factor = 0.7", "t_max_factor = 1", "got 1.0"),
        ("t_max_factor = 0.7", "t_max_factor = 0", "got 0.0"),
        ("family = uniform", "family = graded\ngrading = nan",
         "grading must be finite and positive, got nan"),
        ("family = uniform", "family = graded\ngrading = -1.2", "got -1.2"),
        ("ny = 4", "ny = 4\nx1 = inf",
         "domain bounds x0 < x1 must be finite, got (0.0, inf)"),
        ("ny = 4", "ny = 4\ny0 = nan",
         "y0 < y1 must be finite, got (nan, 1.0)"),
        ("ny = 4", "ny = 4\nx0 = 1", "x0 < x1 must be finite, got (1.0, 1.0)"),
        # the bounds of the face values, the scheme, the perturbed mesh,
        # the mesh size, the rules and the test function, each checked
        # by the code that states it, before any level runs
        ("layout = mac", "layout = mac\nlambda = nan",
         "lambda must be in [0, 1], got nan"),
        ("layout = mac", "layout = mac\nlambda = 2", "got 2.0"),
        ("layout = mac", "layout = mac\nlambda = -1", "got -1.0"),
        ("layout = mac", "layout = mac\nfield_source = scheme\ncfl = nan",
         "CFL must be in (0, 1], got nan"),
        ("layout = mac", "layout = mac\nfield_source = scheme\ncfl = 0",
         "got 0.0"),
        ("layout = mac", "layout = mac\nfield_source = scheme\ncfl = -1",
         "got -1.0"),
        ("family = uniform", "family = perturbed\namplitude = nan",
         "amplitude must be in [0, 0.25), got nan"),
        ("family = uniform", "family = perturbed\namplitude = -0.1",
         "got -0.1"),
        ("family = uniform", "family = perturbed\namplitude = 0.9", "got 0.9"),
        ("family = uniform", "family = perturbed\nseed = -1",
         "seed must be >= 0, got -1"),
        ("nx = 4", "nx = 0", "nx and ny must be >= 1, got (0, 4)"),
        ("[numerics]\nquad_order = 0\n",
         "quadrature order must be >= 1, got 0"),
        ("[numerics]\ninterp_panels = 0\n", "panels must be >= 1, got 0"),
        ("[numerics]\noracle_order = 0\n",
         "quadrature order must be >= 1, got 0"),
        ("[numerics]\nrhs_panels = 0\n", "panels must be >= 1, got 0"),
        ("x0 = 0.3", "x0 = nan",
         "test-function support bounds must have lo < hi, got (nan, 0.7)"),
        ("x0 = 0.3", "x0 = 0.9", "got (0.9, 0.7)"),
        ("x0 = 0.3", "x0 = -5",
         "support [-5.0, 0.7] not strictly inside (0.0, 1.0)"),
        # thresholds that no slope can meet, or every slope meets
        ("[thresholds]\nres_flux = nan\n",
         "threshold res_flux must be finite, got nan"),
        ("[thresholds]\nres_flux = inf\n", "got inf"),
        ("[thresholds]\nres_flux = -inf\n", "got -inf"),
        # studies no machine can hold, or whose step count overflows
        ("dt_over_h = 0.5", "dt_over_h = 1e-15",
         "T and dt_over_h give level 0 2e+15 time steps, a time grid: "),
        ("T = 0.5", "T = 1e300",
         "T and dt_over_h give level 0 8e+300 time steps, a time grid: "),
        ("T = 0.5\ndt_over_h = 0.5", "T = 1e300\ndt_over_h = 1e-10",
         "T and dt_over_h give level 0 a step count of inf, not finite"),
        ("levels = 3", "levels = 1000000", "levels = 1000000: level "),
        # the whole base replaced by a 1D scheme study
        (BASE_CONFIG, SCHEME_1D.replace("cfl = 0.5", "cfl = 1e-308"),
         "T and cfl give level 0 a step count of inf, not finite"),
        (BASE_CONFIG, SCHEME_1D.replace("cfl = 0.5", "cfl = 1e-300"),
         "T and cfl give level 0 2e+300 time steps, a time grid: "),
        # a 1D scheme steps at cfl times the smallest interval, 1e-35 here
        (BASE_CONFIG, SCHEME_1D.replace("nx = 8", "nx = 8\ngrading = 1e5"),
         "T and cfl give level 0 5e+34 time steps, a time grid: "),
        # a MAC scheme's steps follow v at t = 0 on level 0's mesh
        ("layout = mac", "layout = mac\nfield_source = scheme\ncfl = 1e-300",
         "T and cfl give level 0 3e+300 time steps, a time grid: "),
        # values whose arithmetic overflows or collapses
        ("family = uniform", "family = graded\ngrading = 1e308",
         "grading = 1e+308 leaves level 0 no valid mesh: grading ratio "
         "1e+308 gives 4 cells on [0.0, 1.0] whose nodes are not finite"),
        ("family = uniform\nnx = 4\nny = 4",
         "family = graded\ngrading = 1e30\nnx = 8\nny = 8",
         "grading = 1e+30 leaves level 0 no valid mesh: cell 0 is not "
         "counter-clockwise or degenerate"),
        ("T = 0.5", "T = 0.5\npattern = alternating\nratio = 1e308",
         "ratio 1e+308 gives 4 alternating steps on [0, 0.5] whose knots "
         "are not finite and strictly increasing"),
        ("ny = 4", "ny = 4\nx1 = 1e308",
         "domain bounds x0, x1, y0, y1 give a squared diagonal that is not "
         "finite"),
        ("t_max_factor = 0.7", "t_max_factor = 1e-308",
         "t_max = 5e-309: the bump on (-5e-309, 5e-309) has a scale "
         "2/(b - a) that is not finite"),
        ("t_max_factor = 0.7", "t_max_factor = 1e-307",
         "t_max = 5e-308: the bump on (-5e-308, 5e-308) overflows on "
         "(0.0, 0.5)"),
    ]
    for k, case in enumerate(bad_inputs):
        if len(case) == 2:
            text, needle = BASE_CONFIG + "\n" + case[0], case[1]
        else:
            text, needle = BASE_CONFIG.replace(case[0], case[1]), case[2]
        path = write_config(tmp_path, text, f"bad_case{k}.ini")
        out_dir = tmp_path / f"out{k}"
        assert main(["run-study", "--config", str(path), "--out",
                     str(out_dir)]) == 2, case
        err = capsys.readouterr().err
        assert "config error" in err and needle in err, (case, err)
        assert not out_dir.exists(), case
    # the ignored --threads flag still takes no count below 1
    path = write_config(tmp_path)
    assert main(["run-study", "--config", str(path), "--out",
                 str(tmp_path / "flag"), "--threads", "0"]) == 2
    assert "threads must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()


def test_memory_error_exit_2(tmp_path, capsys, monkeypatch):
    # validate bounds each level's size from below only: running out of
    # memory later is an error line, not a traceback
    def run_study(cfg):
        raise MemoryError("Unable to allocate 8.01 GiB")

    monkeypatch.setattr(fvlab.cli, "run_study", run_study)
    path = write_config(tmp_path)
    assert main(["run-study", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: out of memory: Unable to "
                                        "allocate 8.01 GiB\n")


def test_run_study_validates_once_and_builds_level_0_twice(tmp_path,
                                                          monkeypatch):
    # validate builds level 0 once, for the grading and the MAC scheme's
    # step count alike, and run-study validates once; the study builds it
    # once more
    import fvlab.study
    built = []
    real = fvlab.study.build_level

    def build_level(config, level):
        built.append(level)
        return real(config, level)

    monkeypatch.setattr(fvlab.study, "build_level", build_level)
    ini = GOLDEN / "mac_scheme_graded_zero_flux" / "study.ini"
    assert main(["run-study", "--config", str(ini), "--out",
                 str(tmp_path / "out")]) == 0
    assert built.count(0) == 2
    assert sorted(built) == [0, 0, 1, 2]


# every key of the schema at a value other than its default; parsing does
# not validate, so the 2D case may combine choices a study would reject
EVERY_KEY_2D = """\
[mesh]
family = perturbed
nx = 5
ny = 6
x0 = -1.0
x1 = 2.0
y0 = -0.5
y1 = 1.5
grading = 1.25
amplitude = 0.1
seed = 9
file = meshes/grid.txt

[time]
T = 0.75
dt_over_h = 0.25
pattern = alternating
ratio = 1.5

[study]
levels = 4
layout = rt
beta = square
g = slogs
face_scheme = centered
lambda = 0.25
field_source = scheme
solution = sinsin_shear
boundary_policy = zero_flux
cfl = 0.4
translate_theta = 2.0

[test_function]
x0 = 0.125
x1 = 0.875
y0 = 0.25
y1 = 0.75
t_max_factor = 0.6
time_profile = interior

[numerics]
quad_order = 5
interp_panels = 3
oracle_order = 6
rhs_panels = 10

[audit]
regularity_cap = 500.0
regularity_growth = 3.0

[output]
out_dir = results

[thresholds]
res_flux = 0.7
weak_gap = 0.5
"""

EVERY_KEY_1D = """\
[mesh]
nx = 12
x0 = -1.0
x1 = 3.0
grading = 1.25
amplitude = 0.1
seed = 4
ny = 3
file = line.txt

[time]
T = 0.25
dt_over_h = 0.75
pattern = alternating
ratio = 2.0

[study]
levels = 5
layout = colocated1d
beta = slogs
g = square
face_scheme = centered
lambda = 0.75
field_source = scheme
boundary_policy = periodic
cfl = 0.9
translate_theta = 0.5

[test_function]
x0 = 0.25
x1 = 0.5
t_max_factor = 0.5
time_profile = interior

[numerics]
quad_order = 3
interp_panels = 2
oracle_order = 9
rhs_panels = 7

[audit]
regularity_cap = 50.0
regularity_growth = 1.5

[output]
out_dir = out1d

[thresholds]
R1 = 0.9
"""


def test_config_round_trip_identity(tmp_path):
    from dataclasses import fields

    from fvlab.study import StudyConfig
    cases = (("base", BASE_CONFIG), ("2d", EVERY_KEY_2D), ("1d", EVERY_KEY_1D))
    for name, text in cases:
        cfg1, meta1 = parse_config(write_config(tmp_path, text, name + ".ini"))
        out = serialize_config(cfg1, meta1)
        cfg2, meta2 = parse_config(write_config(tmp_path, out, name + "2.ini"))
        assert cfg1 == cfg2
        assert meta1 == meta2
        if name == "base":
            continue
        # every key was read: no field is left at its default (1D has a
        # single mesh family and a single solution, so those stay)
        assert cfg1.layout != StudyConfig().layout
        assert meta1["mesh_file"] and meta1["out_dir"] != "."
        fixed = {"layout"} | ({"mesh_family", "solution"} if name == "1d"
                              else set())
        default = StudyConfig(layout=cfg1.layout)
        for f in fields(StudyConfig):
            if f.name not in fixed:
                assert getattr(cfg1, f.name) != getattr(default, f.name), \
                    (name, f.name)
        if name == "2d":
            written = configparser.ConfigParser()
            written.optionxform = str
            written.read_string(out)
            for section, key, _, _ in CONFIG_TABLE:
                assert written.has_option(section, key), (section, key)
    assert cfg1.domain == ((-1.0, 3.0),) and cfg1.support == ((0.25, 0.5),)


def test_run_study_writes_reports(tmp_path, capsys):
    path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["run-study", "--config", str(path), "--out", str(out_dir)])
    assert code == 0
    report = (out_dir / "report.csv").read_text()
    header = report.splitlines()[0]
    assert header.startswith("level,h,dt,theta1,theta2,theta3,X1,X2,res_init,"
                             "res_time,res_flux,R1,R2,translate,weak_gap,"
                             "sup_norm")
    assert len(report.splitlines()) == 4
    rates = (out_dir / "rates.csv").read_text()
    assert rates.splitlines()[0].startswith("series,lsq_slope,finest_pair_slope")


def test_run_study_threshold_failure_exit_3(tmp_path, capsys):
    text = BASE_CONFIG + "\n[thresholds]\nres_flux = 9.5\n"
    path = write_config(tmp_path, text)
    code = main(["run-study", "--config", str(path), "--out",
                 str(tmp_path / "o")])
    assert code == 3
    assert "res_flux" in capsys.readouterr().err


def _audit_abort(tmp_path, capsys, audit):
    """The stderr of run-study on BASE_CONFIG with the [audit] setting
    `audit`, which must exit 4 before it writes a report."""
    path = write_config(tmp_path, BASE_CONFIG + f"\n[audit]\n{audit}\n")
    out_dir = tmp_path / "o"
    assert main(["run-study", "--config", str(path), "--out",
                 str(out_dir)]) == 4
    assert not (out_dir / "report.csv").exists()
    return capsys.readouterr().err


def test_run_study_regularity_abort_exit_4(tmp_path, capsys):
    err = _audit_abort(tmp_path, capsys, "regularity_cap = 1.5")
    assert err == ("regularity audit failed: theta1: theta1 = 2 exceeds "
                   "cap 1.5 at level 0\n")


def test_run_study_regularity_growth_abort_exit_4(tmp_path, capsys):
    # the uniform levels keep their parameters, which a growth bound
    # below 1 counts as growth at level 1
    err = _audit_abort(tmp_path, capsys, "regularity_growth = 0.9")
    assert err.startswith("regularity audit failed: theta1 theta2 theta3: "
                          "theta1 grows across levels: 2 -> 2 at level 1;")


def test_run_study_rejects_a_mesh_file_exit_2(tmp_path, capsys):
    # a study builds its meshes from [mesh] family, nx and ny: a saved
    # 4x4 mesh named by [mesh] file is an error before any output, while
    # mesh-info and check-identities read it
    mesh_path = tmp_path / "mesh.txt"
    save_mesh(build_cartesian(4, 4), mesh_path)
    text = BASE_CONFIG.replace("nx = 4\nny = 4", f"file = {mesh_path}")
    path = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run-study", "--config", str(path), "--out",
                 str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: 'file' in [mesh]"), err
    assert not out_dir.exists()
    assert main(["mesh-info", "--config", str(path)]) == 0
    assert "cells        16\n" in capsys.readouterr().out
    assert main(["check-identities", "--config", str(path)]) == 0


def test_check_identities_pass(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["check-identities", "--config", str(path)]) == 0
    assert "all identities hold" in capsys.readouterr().out
    # perturbed quads also pass (identities hold on any valid mesh)
    text = BASE_CONFIG.replace("family = uniform", "family = perturbed")
    text = text.replace("layout = mac", "layout = rt")
    text = text.replace("nx = 4\nny = 4", "nx = 8\nny = 8\namplitude = 0.2")
    path2 = write_config(tmp_path, text, "pert.ini")
    assert main(["check-identities", "--config", str(path2)]) == 0


def test_check_identities_flipped_normal_exit_1(tmp_path, capsys):
    mesh = build_cartesian(3, 3)
    mesh_path = tmp_path / "mesh.txt"
    save_mesh(mesh, mesh_path)
    lines = mesh_path.read_text().splitlines()
    target = int(np.nonzero(mesh.interior_face_mask)[0][0])
    for i, ln in enumerate(lines):
        parts = ln.split()
        if len(parts) == 7 and parts[0] == str(target) and i > 10:
            parts[-2] = f"{-float(parts[-2]):.17g}"
            parts[-1] = f"{-float(parts[-1]):.17g}"
            lines[i] = " ".join(parts)
            break
    mesh_path.write_text("\n".join(lines) + "\n")
    text = BASE_CONFIG.replace("[time]", f"file = {mesh_path}\n\n[time]")
    path = write_config(tmp_path, text)
    assert main(["check-identities", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"face {target}" in out


def test_determinism_same_config_same_bytes(tmp_path):
    path = write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["run-study", "--config", str(path), "--out",
                     str(out_dir)]) == 0
        outs.append((out_dir / "report.csv").read_bytes()
                    + (out_dir / "rates.csv").read_bytes())
    assert outs[0] == outs[1]


def test_threads_flag_does_not_change_bytes(tmp_path):
    # --threads is accepted and ignored: the levels run one after another
    path = write_config(tmp_path)
    a = tmp_path / "t1"
    b = tmp_path / "t4"
    assert main(["run-study", "--config", str(path), "--out", str(a),
                 "--threads", "1"]) == 0
    assert main(["run-study", "--config", str(path), "--out", str(b),
                 "--threads", "4"]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "rates.csv").read_bytes() == (b / "rates.csv").read_bytes()


def test_blas_thread_count_does_not_change_bytes(tmp_path):
    # a graded MAC study run in fresh processes under one and two OpenBLAS
    # threads: the weak-form volume sums must not follow the BLAS split
    path = write_config(tmp_path, BASE_CONFIG.replace(
        "family = uniform", "family = graded\ngrading = 1.1"))
    src = str(Path(fvlab.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "fvlab.cli", "run-study",
                        "--config", str(path), "--out", str(out_dir)],
                       env=env, check=True, capture_output=True)
        outputs.append([(out_dir / name).read_bytes()
                        for name in ("report.csv", "rates.csv")])
    assert outputs[0] == outputs[1]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_docs_match_the_schema(tmp_path):
    # the README's section/key table lists CONFIG_TABLE's keys in order
    # (parenthesised notes left out) and its [thresholds] row, after "one
    # of", the rate series; its example INI parses and validates
    text = README.read_text()
    table = {}
    for section, keys in re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", text,
                                    re.MULTILINE):
        keys = re.sub(r"\([^)]*\)", "", keys).split("one of")[-1]
        table[section] = re.findall(r"`([^`]+)`", keys)
    schema = {}
    for section, key, _, _ in CONFIG_TABLE:
        schema.setdefault(section, []).append(key)
    schema["thresholds"] = list(RATE_SERIES)
    assert table == schema
    example = re.search(r"```ini\n(.*?)```", text, re.DOTALL).group(1)
    cfg, meta = parse_config(write_config(tmp_path, example, "readme.ini"))
    cfg.validate()
    assert meta == {"mesh_file": "", "out_dir": "."}
