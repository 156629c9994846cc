"""Triangle-mesh manifolds: OFF files, lumped vertex areas, edge geodesics,
and the eigenbasis of the mesh Laplace operator.

The mesh Laplace operator is the cotangent stiffness matrix S paired with
the lumped (barycentric) mass M, i.e. a self-adjoint nonnegative surrogate
of the Laplace-Beltrami operator. ``load_mesh`` hands the model
``_mesh_basis`` as its eigenbasis rule: the generalized eigenproblem
S u = lam M u is solved in its symmetric form A y = lam y with
A = M^-1/2 S M^-1/2 and u = M^-1/2 y. The eigenvalues under the band limit
are counted first, by the inertia of an LDL^T factorization of A minus the
band (Sylvester's law); shift-invert Lanczos (ARPACK) then asks for one pair
more than that count, doubling until the last pair returned lies above the
band. When the band needs more than a sixth of all pairs, a dense solve of
the whole spectrum is cheaper and runs instead.

This module imports scipy's sparse and dense linear algebra, so the package
imports it on first use only.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.sparse.linalg import ArpackError, eigsh, splu

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
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if len(bad):
        raise MeshFormatError(f"vertex {bad[0]} has a non-finite coordinate")
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


def _edge_graph(verts: np.ndarray, faces: np.ndarray) -> sparse.csr_matrix:
    """Symmetric sparse adjacency of the mesh edges, Euclidean edge lengths."""
    i = np.concatenate([faces[:, 0], faces[:, 1], faces[:, 2]])
    j = np.concatenate([faces[:, 1], faces[:, 2], faces[:, 0]])
    lengths = np.linalg.norm(verts[i] - verts[j], axis=1)
    n = len(verts)
    g = sparse.csr_matrix((lengths, (i, j)), shape=(n, n))
    return g.maximum(g.T)


def edge_graph_distances(graph: sparse.csr_matrix) -> np.ndarray:
    """All-pairs shortest-path distances on the edge graph (Dijkstra)."""
    return dijkstra(graph, directed=False)


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


# Shift-invert Lanczos costs about n*k^2 for k eigenpairs, the dense solve
# about n^3 whatever k. On the symmetric form, with BLAS at 1 thread, the
# sparse solve takes 0.83 of the dense time at k = n/6 and 1.33 at n/5 on
# icosphere(4), 0.72 at n/4 and 1.48 at n/3 on icosphere(3); above n/6 the
# dense solve runs.
_SPARSE_MAX_K_FRACTION = 1.0 / 6.0


def _mesh_basis(verts, faces, w, band_limit):
    """The cotangent Laplacian's eigenpairs on the mesh with lumped vertex
    areas ``w``."""
    stiff = cotangent_stiffness(verts, faces).tocsc()
    # Gershgorin: no eigenvalue of M^-1 S exceeds max_i sum_j |S_ij| / w_i
    top = float((abs(stiff).sum(axis=1).A1 / w).max())
    if band_limit > top:
        raise ValueError(
            f"band_limit {band_limit} exceeds {top:.3g}, a bound on the largest "
            "discrete eigenvalue; the mesh cannot certify the span")
    # A = M^-1/2 S M^-1/2 has the pencil's eigenvalues, with u = M^-1/2 y
    d = 1.0 / np.sqrt(w)
    scale = sparse.diags(d)
    sym = scale @ stiff @ scale
    sym = (0.5 * (sym + sym.T)).tocsc()
    tol = 1e-9 * max(1.0, top)
    # one pair more than lie under the band, so the last one returned is
    # above it; the growth loop below still checks that, whatever the count
    count = _count_below(sym, band_limit + tol)
    k = 1 if count is None else count + 1
    area = float(w.sum())
    while k <= _SPARSE_MAX_K_FRACTION * len(w):
        # shift one Weyl spacing below 0: S is singular (constants)
        lam, vecs = _sparse_eigenpairs(sym, k, -4 * np.pi / area)
        if lam[-1] > band_limit:
            break
        k *= 2
    else:
        lam, vecs = _dense_eigenpairs(sym)
    if lam[0] < -tol:
        raise RuntimeError(f"mesh operator produced negative eigenvalue {lam[0]:.3e}")
    lam = np.where(np.abs(lam) <= tol, 0.0, lam)
    # only the dense solve returns every eigenvalue; a band within roundoff
    # of the top one covers it
    if band_limit > lam[-1] + tol:
        raise ValueError(
            f"band_limit {band_limit} exceeds the largest discrete eigenvalue "
            f"{lam[-1]:.3g}; the mesh cannot certify the span")
    keep = lam <= band_limit
    funcs = d[:, None] * vecs[:, keep]
    # deterministic sign: the largest-magnitude entry of each column positive
    peak = funcs[np.argmax(np.abs(funcs), axis=0), np.arange(funcs.shape[1])]
    funcs[:, peak < 0] *= -1
    lam = lam[keep]
    return lam, [("mesh", i) for i in range(len(lam))], funcs


def _count_below(sym, shift):
    """Number of eigenvalues of the symmetric ``sym`` below ``shift``, or None.

    By Sylvester's law of inertia it is the number of negative pivots of an
    LDL^T factorization of sym - shift*I. SuperLU gives one when it keeps
    every pivot on the diagonal, i.e. when its row and column orders agree;
    otherwise, or when the factor is singular, there is no count.
    """
    shifted = (sym - shift * sparse.identity(sym.shape[0], format="csc")).tocsc()
    try:
        lu = splu(shifted, diag_pivot_thresh=0.0)
    except RuntimeError:  # exactly singular
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _sparse_eigenpairs(sym, k, sigma):
    """The k smallest eigenpairs of the symmetric ``sym``, ascending."""
    # a fixed start vector: ARPACK's own random one changes from call to call
    v0 = np.random.default_rng(0).standard_normal(sym.shape[0])
    try:
        lam, vec = eigsh(sym, k, sigma=sigma, v0=v0)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise RuntimeError(f"mesh eigensolver failed to converge: {exc}") from exc
    order = np.argsort(lam, kind="stable")
    return lam[order], vec[:, order]


def _dense_eigenpairs(sym):
    """All eigenpairs of the symmetric ``sym``, ascending."""
    try:
        return eigh(sym.toarray())
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"mesh eigensolver failed to converge: {exc}") from exc


def load_mesh(path) -> ManifoldModel:
    """Load a closed, connected manifold triangle mesh (ASCII OFF), every
    vertex of which lies on a face, as a 2-manifold model.

    Weights are lumped barycentric vertex areas: each triangle gives a third
    of its area to each corner. The geodesic distance is the shortest path on
    the edge graph with Euclidean edge lengths, computed by the model on
    first use; the eigenbasis is that of the cotangent Laplacian.
    """
    with open(path) as fh:
        verts, faces = parse_off(fh.read())
    areas = triangle_areas(verts, faces)
    bad = np.nonzero(areas < _DEGENERATE_AREA)[0]
    if len(bad):
        raise MeshFormatError(f"degenerate triangle(s) at face index {bad[:5].tolist()}")
    _check_closed_manifold(faces)
    # a vertex outside every face has no area, and a second component no
    # finite geodesic to the first
    unused = np.setdiff1d(np.arange(len(verts)), faces)
    if len(unused):
        raise MeshFormatError(f"vertex {unused[0]} belongs to no face")
    graph = _edge_graph(verts, faces)
    parts, _ = connected_components(graph, directed=False)
    if parts > 1:
        raise MeshFormatError(
            f"mesh has {parts} connected components; it must be connected")
    weights = np.zeros(len(verts))
    for c in range(3):
        np.add.at(weights, faces[:, c], areas / 3.0)
    # the rule looks edge_graph_distances up when it runs, so a rebinding of
    # that name is seen
    return ManifoldModel("mesh", 2, verts, weights,
                         params={"n_vertices": len(verts), "n_faces": len(faces)},
                         distance=lambda x: edge_graph_distances(graph),
                         basis=partial(_mesh_basis, verts, faces, weights))


def icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Icosahedron subdivided ``level`` times and projected to the unit sphere."""
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

    return verts, faces
