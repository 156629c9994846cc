"""Discrete models of compact manifolds: nodes, quadrature weights, geodesics.

Every model is a finite quadrature rule (nodes x_i, weights w_i > 0) together
with a pairwise geodesic distance, so that all L_p norms become weighted sums
and the L_infty norm is the node maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ManifoldModel:
    """Quadrature nodes, weights and geodesic distances of a compact manifold.

    The geodesics are read through ``distance_matrix()``, which builds the
    full n x n matrix on first use and caches it.

    Parameters
    ----------
    kind : str
        One of ``circle``, ``torus2``, ``sphere2``, ``mesh``.
    dim : int
        Intrinsic dimension n.
    nodes : ndarray
        Node coordinates, one row per node. Circle rows are angles in
        [0, 2*pi); torus rows are angle pairs; sphere rows are unit vectors
        in R^3; mesh rows are vertex positions.
    weights : ndarray
        Positive quadrature weights summing to the total measure.
    params : dict
        Constructor parameters. The torus and sphere eigensystems read their
        grid sizes here, and ``save_eigensystem`` echoes them.
    faces : ndarray, optional
        Triangles of a ``mesh`` model, one row of three vertex indices per
        face. Mesh geodesics are shortest paths on the edge graph.
    """

    def __init__(self, kind, dim, nodes, weights, params=None, faces=None):
        self.kind = kind
        self.dim = int(dim)
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1 or len(self.weights) != self.n_nodes:
            raise ValueError("weights must be one per node")
        if np.any(self.weights <= 0):
            raise ValueError("all quadrature weights must be positive")
        self.total_measure = float(self.weights.sum())
        self.params = dict(params or {})
        self.faces = faces
        self._dist = None

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise geodesic distance matrix (cached, exact zero diagonal)."""
        if self._dist is None:
            if self.kind == "mesh":
                from . import mesh  # deferred: mesh imports this module
                self._dist = mesh.edge_graph_distances(self.nodes, self.faces)
            else:
                d = self._pairwise()
                np.fill_diagonal(d, 0.0)
                self._dist = d
        return self._dist

    def _pairwise(self) -> np.ndarray:
        x = self.nodes
        if self.kind == "circle":
            diff = np.abs(x[:, 0][:, None] - x[:, 0][None, :])
            return np.minimum(diff, 2 * np.pi - diff)
        if self.kind == "torus2":
            out = np.zeros((self.n_nodes, self.n_nodes))
            for c in range(2):
                diff = np.abs(x[:, c][:, None] - x[:, c][None, :])
                out += np.minimum(diff, 2 * np.pi - diff) ** 2
            return np.sqrt(out)
        if self.kind == "sphere2":
            dots = np.clip(x @ x.T, -1.0, 1.0)
            return np.arccos(dots)
        raise ValueError(f"no coordinate distance rule for kind {self.kind!r}")

    def __repr__(self):
        return (f"ManifoldModel(kind={self.kind!r}, dim={self.dim}, "
                f"n_nodes={self.n_nodes}, total_measure={self.total_measure:.6g})")


@dataclass
class GridFunction:
    """A function given by its samples at the model's nodes."""

    model: ManifoldModel
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.model.n_nodes,):
            raise ValueError("values must be one sample per node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function contains non-finite samples")


def build_circle(n_nodes: int) -> ManifoldModel:
    """Unit circle with equispaced nodes and trapezoid weights 2*pi/n.

    Geodesic distance is the wrap-around arc length
    min(|x - y|, 2*pi - |x - y|).
    """
    if n_nodes < 8:
        raise ValueError("circle needs at least 8 nodes")
    if n_nodes % 2 != 0:
        raise ValueError("n_nodes must be even")
    angles = 2 * np.pi * np.arange(n_nodes) / n_nodes
    weights = np.full(n_nodes, 2 * np.pi / n_nodes)
    return ManifoldModel("circle", 1, angles[:, None], weights,
                         params={"n_nodes": n_nodes})


def build_torus2(n_per_dim: int) -> ManifoldModel:
    """Flat 2-torus as a product of two unit circles.

    Nodes are the tensor grid of two equispaced circles, weights (2*pi/n)^2,
    and the distance is the Euclidean norm of the per-coordinate circle
    distances.
    """
    if n_per_dim < 8:
        raise ValueError("torus needs at least 8 nodes per dimension")
    if n_per_dim % 2 != 0:
        raise ValueError("n_per_dim must be even")
    ang = 2 * np.pi * np.arange(n_per_dim) / n_per_dim
    xx, yy = np.meshgrid(ang, ang, indexing="ij")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    weights = np.full(n_per_dim ** 2, (2 * np.pi / n_per_dim) ** 2)
    return ManifoldModel("torus2", 2, nodes, weights,
                         params={"n_per_dim": n_per_dim})


def build_sphere2(band: int) -> ManifoldModel:
    """Unit 2-sphere with a Gauss-Legendre x equispaced-longitude rule.

    The rule integrates products of spherical harmonics up to degree ``band``
    exactly: band+1 Gauss-Legendre nodes in cos(colatitude) and
    2*band+2 equispaced longitudes per ring. Distance is arccos of the dot
    product of unit vectors.
    """
    if band < 4:
        raise ValueError("sphere band must be at least 4")
    from scipy.special import roots_legendre

    n_theta = band + 1
    n_phi = 2 * band + 2
    x, wx = roots_legendre(n_theta)          # x = cos(colatitude)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(1.0 - x ** 2)
    xx = np.outer(sin_t, np.cos(phi))
    yy = np.outer(sin_t, np.sin(phi))
    zz = np.outer(x, np.ones(n_phi))
    nodes = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    weights = np.outer(wx, np.full(n_phi, 2 * np.pi / n_phi)).ravel()
    return ManifoldModel("sphere2", 2, nodes, weights,
                         params={"band": band, "n_theta": n_theta, "n_phi": n_phi})


def lp_norm(model: ManifoldModel, f: GridFunction, p: float) -> float:
    """Quadrature L_p norm: (sum_i w_i |f_i|^p)^(1/p), node max for p=inf."""
    if f.model is not model:
        raise ValueError("grid function does not live on this model")
    if not p >= 1:
        raise ValueError("p must satisfy 1 <= p <= inf")
    return _weighted_norm(model.weights, f.values, p)


def _weighted_norm(w: np.ndarray, values: np.ndarray, p: float) -> float:
    """(sum_i w_i |v_i|^p)^(1/p), node max for p=inf; no argument checks."""
    a = np.abs(values)
    if np.isinf(p):
        return float(a.max()) if len(a) else 0.0
    m = a.max()
    if m == 0.0:
        return 0.0
    # factor out the max to keep a^p in range for large p
    return float(m * (w @ (a / m) ** p) ** (1.0 / p))

