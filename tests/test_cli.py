import configparser
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fvlab
from _configs import serialize_config
from fvlab.cli import main, parse_config
from fvlab.geometry import build_cartesian
from fvlab.meshio import save_mesh

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
        ("layout = mac", "layout = mac\nthreads = 0",
         "threads must be >= 1, got 0"),
        ("layout = mac", "layout = mac\nthreads = -1", "got -1"),
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
        assert not (out_dir / "report.csv").exists()
    # a thread count below 1 from the flag, too
    path = write_config(tmp_path)
    assert main(["run-study", "--config", str(path), "--out",
                 str(tmp_path / "flag"), "--threads", "0"]) == 2
    assert "threads must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()


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
grading_growth = 1.5
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
threads = 2

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
grading_growth = 1.5
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
threads = 3

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

    from fvlab.cli import CONFIG_TABLE
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


def test_run_study_regularity_abort_exit_4(tmp_path, capsys):
    text = BASE_CONFIG.replace("family = uniform", "family = graded")
    text = text.replace("[time]", "grading = 1.2\ngrading_growth = 2.5\n\n[time]")
    # keep the support inside the graded level-0 interior cells
    text = text.replace("x1 = 0.7", "x1 = 0.6").replace("y1 = 0.7", "y1 = 0.6")
    path = write_config(tmp_path, text)
    code = main(["run-study", "--config", str(path), "--out",
                 str(tmp_path / "o")])
    assert code == 4
    assert "theta2" in capsys.readouterr().err


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
