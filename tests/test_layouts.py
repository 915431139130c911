import numpy as np
import pytest

from fvlab.geometry import (build_cartesian, build_dual_mac, build_dual_rt,
                            build_intervals, build_time_grid)
from fvlab.layouts import LAYOUTS, get_layout
from fvlab.schemes import sample_manufactured


def test_registry_and_the_one_unknown_layout_error():
    assert set(LAYOUTS) == {"rt", "mac", "colocated1d"}
    for name, layout in LAYOUTS.items():
        assert get_layout(name) is layout and layout.name == name
    with pytest.raises(ValueError, match="unknown layout 'hex'"):
        get_layout("hex")


@pytest.mark.parametrize("name", ["rt", "mac", "colocated1d"])
def test_cell_and_face_normal_rules_agree(name):
    # the per-cell normal component is the first cell's face component,
    # with its sign flipped as seen from the second cell
    layout = get_layout(name)
    grid = build_time_grid(1.0, 2)
    if layout.dim == 1:
        mesh, dual = build_intervals(5), None
        values = np.random.default_rng(1).normal(size=(3, mesh.n_faces))
    else:
        mesh = build_cartesian(3, 4)
        dual = build_dual_mac(mesh) if name == "mac" else build_dual_rt(mesh)
        _, v = sample_manufactured(
            lambda x, t: np.ones(x.shape[0]),
            lambda x, t: np.stack([np.sin(3 * x[:, 0] + t), x[:, 1] - t], -1),
            name, mesh, dual, grid)
        values = v.values
        assert v.layout is layout
    per_cell = layout.cell_normal(values, mesh, dual)
    per_face = layout.face_normal(values, np.arange(mesh.n_faces), mesh, dual)
    for c in range(mesh.n_cells):
        for k, f in enumerate(mesh.cell_faces[c]):
            sign = 1.0 if mesh.face_cells[f, 0] == c else -1.0
            assert np.allclose(per_cell[:, c, k], sign * per_face[:, f],
                               rtol=0, atol=1e-15)
