import numpy as np
import pytest

import besovlab.mesh
from besovlab.cli import main
from besovlab.mesh import (MeshFormatError, icosphere, load_mesh, parse_off,
                           triangle_areas, write_off)
from besovlab.spectrum import build_eigensystem


def test_icosahedron_surface_area(tmp_path):
    # circumradius 1: edge a = 1/sin(2*pi/5), area 5*sqrt(3)*a^2
    verts, faces = icosphere(0)
    path = tmp_path / "ico.off"
    write_off(path, verts, faces)
    model = load_mesh(path)
    a = 1.0 / np.sin(2 * np.pi / 5)
    assert model.total_measure == pytest.approx(5 * np.sqrt(3) * a * a, rel=1e-12)


def test_adjacent_vertex_distance_is_edge_length(tmp_path):
    verts, faces = icosphere(0)
    path = tmp_path / "ico.off"
    write_off(path, verts, faces)
    model = load_mesh(path)
    i, j = int(faces[0][0]), int(faces[0][1])
    assert model.distance_matrix()[i, j] == pytest.approx(np.linalg.norm(verts[i] - verts[j]))


def test_refined_icosphere_area_approaches_sphere(tmp_path):
    areas = []
    for level in (1, 2):
        verts, faces = icosphere(level)
        path = tmp_path / f"ico{level}.off"
        write_off(path, verts, faces)
        areas.append(load_mesh(path).total_measure)
    target = 4 * np.pi
    # inscribed polyhedra: areas increase monotonically toward 4*pi
    assert areas[0] < areas[1] < target
    assert abs(areas[1] - target) < abs(areas[0] - target)


def test_parse_off_rejects_bad_header():
    with pytest.raises(MeshFormatError):
        parse_off("PLY\n3 1 0\n")


def test_parse_off_rejects_truncation():
    with pytest.raises(MeshFormatError):
        parse_off("OFF\n4 2 0\n0 0 0\n1 0 0\n")


def test_parse_off_rejects_non_triangles():
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    with pytest.raises(MeshFormatError):
        parse_off(text)


def test_parse_off_rejects_bad_index():
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n"
    with pytest.raises(MeshFormatError):
        parse_off(text)


@pytest.mark.parametrize("face", ["3 0 1", "3", "3 0 1 x", "3 0 1.5 2"])
def test_parse_off_rejects_malformed_face_line(face):
    text = f"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n{face}\n"
    with pytest.raises(MeshFormatError, match="malformed face line"):
        parse_off(text)


def test_cli_exits_2_on_malformed_face_line(tmp_path, capsys):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n")
    code = main(["spectrum", "--manifold", "mesh", "--mesh", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "malformed face line" in capsys.readouterr().err


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_parse_off_rejects_non_finite_vertex(coord):
    text = f"OFF\n3 1 0\n0 0 0\n1 {coord} 0\n0 1 0\n3 0 1 2\n"
    with pytest.raises(MeshFormatError, match="vertex 1 has a non-finite coordinate"):
        parse_off(text)


def test_cli_exits_2_on_non_finite_vertex(tmp_path, capsys):
    verts, faces = icosphere(1)
    verts[7, 2] = np.nan
    path = tmp_path / "nan.off"
    write_off(path, verts, faces)
    code = main(["spectrum", "--manifold", "mesh", "--mesh", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "vertex 7 has a non-finite coordinate" in err
    assert "Traceback" not in err


def test_geodesics_computed_on_first_use(icosphere3_path, monkeypatch):
    def forbidden(graph):
        raise AssertionError("edge-graph distances computed eagerly")

    with monkeypatch.context() as m:
        m.setattr(besovlab.mesh, "edge_graph_distances", forbidden)
        model = load_mesh(icosphere3_path)
        build_eigensystem(model, 30.0)
    _, faces = parse_off(icosphere3_path.read_text())
    assert model.params["n_faces"] == len(faces)
    d = model.distance_matrix()
    assert d is model.distance_matrix()
    assert d[5, 17] > 0.0
    assert np.all(np.diag(d) == 0.0)


def test_load_mesh_rejects_open_surface(tmp_path):
    verts, faces = icosphere(0)
    path = tmp_path / "open.off"
    write_off(path, verts, faces[:-1])  # drop one face
    with pytest.raises(MeshFormatError, match="closed"):
        load_mesh(path)


def test_load_mesh_rejects_degenerate_triangle(tmp_path):
    verts, faces = icosphere(0)
    verts = np.vstack([verts, verts[faces[0][0]]])  # duplicate a vertex
    dup = len(verts) - 1
    extra = np.array([[faces[0][0], faces[0][1], dup],
                      [faces[0][1], faces[0][0], dup]])
    path = tmp_path / "degenerate.off"
    write_off(path, verts, np.vstack([faces, extra]))
    with pytest.raises(MeshFormatError, match="degenerate"):
        load_mesh(path)


def test_load_mesh_rejects_a_vertex_outside_every_face(tmp_path):
    verts, faces = icosphere(1)
    path = tmp_path / "stray.off"
    write_off(path, np.vstack([verts, [[2.0, 0.0, 0.0]]]), faces)
    with pytest.raises(MeshFormatError, match=f"vertex {len(verts)} belongs to no face"):
        load_mesh(path)


def test_load_mesh_rejects_a_disconnected_mesh(tmp_path):
    # two disjoint icosphere(2) copies: the edge-graph distance between them
    # is infinite, and a decay fit over it would read 0/0
    verts, faces = icosphere(2)
    path = tmp_path / "two.off"
    write_off(path, np.vstack([verts, verts + 3.0]),
              np.vstack([faces, faces + len(verts)]))
    with pytest.raises(MeshFormatError, match="mesh has 2 connected components"):
        load_mesh(path)


def test_lumped_areas_match_triangle_sum(icosphere3):
    areas = triangle_areas(icosphere3.nodes, icosphere(3)[1])
    assert icosphere3.weights.sum() == pytest.approx(areas.sum(), rel=1e-12)
    assert np.all(icosphere3.weights > 0)


def test_off_comments_and_blank_lines():
    text = "OFF\n# a comment\n\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    verts, faces = parse_off(text)
    assert verts.shape == (3, 3)
    assert faces.shape == (1, 3)
