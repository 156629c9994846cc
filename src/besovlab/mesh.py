"""Triangle-mesh manifolds: OFF files, lumped vertex areas, edge geodesics.

The mesh Laplace operator used by the spectrum module is the cotangent
stiffness matrix paired with the lumped (barycentric) mass, i.e. a
self-adjoint nonnegative surrogate of the Laplace-Beltrami operator.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from .manifold import ManifoldModel

_DEGENERATE_AREA = 1e-14


class MeshFormatError(ValueError):
    """Raised for malformed or unsupported mesh files."""


def parse_off(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse ASCII OFF text into (vertices, triangles)."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or lines[0] != "OFF":
        raise MeshFormatError("missing OFF header")
    try:
        counts = [int(tok) for tok in lines[1].split()]
        nv, nf = counts[0], counts[1]
    except (IndexError, ValueError) as exc:
        raise MeshFormatError("malformed counts line") from exc
    if nf < 1:
        raise MeshFormatError("mesh must contain at least one face")
    body = lines[2:]
    if len(body) < nv + nf:
        raise MeshFormatError("truncated OFF file")
    try:
        verts = np.array([[float(t) for t in body[i].split()[:3]] for i in range(nv)])
    except ValueError as exc:
        raise MeshFormatError("malformed vertex line") from exc
    faces = []
    for i in range(nv, nv + nf):
        try:
            corners = [int(tok) for tok in body[i].split()[:4]]
        except ValueError as exc:
            raise MeshFormatError("malformed face line") from exc
        if corners[0] != 3:
            raise MeshFormatError("only triangle faces are supported")
        if len(corners) < 4:
            raise MeshFormatError("malformed face line")
        faces.append(corners[1:])
    faces = np.array(faces, dtype=int)
    if verts.shape != (nv, 3):
        raise MeshFormatError("vertex block has wrong shape")
    if faces.min() < 0 or faces.max() >= nv:
        raise MeshFormatError("face index out of range")
    return verts, faces


def write_off(path, verts: np.ndarray, faces: np.ndarray) -> None:
    """Write an ASCII OFF file."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(verts)} {len(faces)} 0\n")
        for v in verts:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def triangle_areas(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    e1 = verts[faces[:, 1]] - verts[faces[:, 0]]
    e2 = verts[faces[:, 2]] - verts[faces[:, 0]]
    return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)


def _check_closed_manifold(faces: np.ndarray) -> None:
    # every undirected edge must border exactly two triangles
    edges = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    if np.any(counts != 2):
        raise MeshFormatError(
            "surface is not closed and manifold: found edges bordering "
            f"{sorted(set(counts.tolist()) - {2})} triangles")


def lumped_vertex_areas(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Barycentric vertex areas: each triangle gives a third to each corner."""
    areas = triangle_areas(verts, faces)
    w = np.zeros(len(verts))
    for c in range(3):
        np.add.at(w, faces[:, c], areas / 3.0)
    return w


def edge_graph_distances(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path distances on the edge graph (Dijkstra)."""
    i = np.concatenate([faces[:, 0], faces[:, 1], faces[:, 2]])
    j = np.concatenate([faces[:, 1], faces[:, 2], faces[:, 0]])
    lengths = np.linalg.norm(verts[i] - verts[j], axis=1)
    n = len(verts)
    g = sparse.csr_matrix((lengths, (i, j)), shape=(n, n))
    g = g.maximum(g.T)
    return dijkstra(g, directed=False)


def cotangent_stiffness(verts: np.ndarray, faces: np.ndarray) -> sparse.csr_matrix:
    """Cotangent-weight stiffness matrix (positive semidefinite)."""
    n = len(verts)
    rows, cols, vals = [], [], []
    for corner in range(3):
        k = faces[:, corner]
        i = faces[:, (corner + 1) % 3]
        j = faces[:, (corner + 2) % 3]
        u = verts[i] - verts[k]
        v = verts[j] - verts[k]
        cross = np.linalg.norm(np.cross(u, v), axis=1)
        cot = np.einsum("ij,ij->i", u, v) / cross
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([-0.5 * cot, -0.5 * cot])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    off = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return off + sparse.diags(diag)


def load_mesh(path) -> ManifoldModel:
    """Load a closed manifold triangle mesh (ASCII OFF) as a 2-manifold model.

    Weights are lumped barycentric vertex areas; the geodesic distance is the
    shortest path on the edge graph with Euclidean edge lengths, computed by
    the model on first use.
    """
    with open(path) as fh:
        verts, faces = parse_off(fh.read())
    areas = triangle_areas(verts, faces)
    bad = np.nonzero(areas < _DEGENERATE_AREA)[0]
    if len(bad):
        raise MeshFormatError(f"degenerate triangle(s) at face index {bad[:5].tolist()}")
    _check_closed_manifold(faces)
    weights = lumped_vertex_areas(verts, faces)
    return ManifoldModel("mesh", 2, verts, weights,
                         params={"path": str(path), "n_vertices": len(verts),
                                 "n_faces": len(faces)},
                         faces=faces)


def icosphere(level: int, radius: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Icosahedron subdivided ``level`` times and projected to the sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=int)

    for _ in range(level):
        verts_list = [v for v in verts]
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = verts_list[a] + verts_list[b]
                m /= np.linalg.norm(m)
                midpoint[key] = len(verts_list)
                verts_list.append(m)
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
        verts = np.array(verts_list)
        faces = np.array(new_faces, dtype=int)

    return radius * verts, faces
