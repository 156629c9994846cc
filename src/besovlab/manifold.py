"""Discrete models of compact manifolds: nodes, quadrature weights, geodesics.

Every model is a finite quadrature rule (nodes x_i, weights w_i > 0) together
with a pairwise geodesic distance, so that all L_p norms become weighted sums
and the L_infty norm is the node maximum. Each builder hands the model its
own distance rule. The circle and the flat 2-torus are one family, the flat
torus T^d on a tensor grid of equispaced angles, for d = 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ManifoldModel:
    """Quadrature nodes, weights and geodesic distances of a compact manifold.

    The geodesics are read through ``distance_matrix()``, which applies the
    model's distance rule on first use and caches the n x n matrix.

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
        Positive, finite quadrature weights summing to the total measure.
    params : dict
        Constructor parameters: grid sizes, or a mesh's vertex and face
        counts (not its file path, so that no output depends on where the
        mesh file sits). The sphere eigensystem reads its band here, and
        ``save_eigensystem`` echoes them.
    faces : ndarray, optional
        Triangles of a ``mesh`` model, one row of three vertex indices per
        face.
    distance : callable, optional
        The distance rule: maps the node array to the full pairwise geodesic
        distance matrix. A model without one has no geodesics.
    """

    def __init__(self, kind, dim, nodes, weights, params=None, faces=None,
                 distance=None):
        self.kind = kind
        self.dim = int(dim)
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1 or len(self.weights) != self.n_nodes:
            raise ValueError("weights must be one per node")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise ValueError("all quadrature weights must be positive and finite")
        self.total_measure = float(self.weights.sum())
        self.params = dict(params or {})
        self.faces = faces
        self._distance = distance
        self._dist = None

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise geodesic distance matrix (cached, exact zero diagonal)."""
        if self._dist is None:
            if self._distance is None:
                raise ValueError(f"no distance rule for kind {self.kind!r}")
            d = self._distance(self.nodes)
            np.fill_diagonal(d, 0.0)
            self._dist = d
        return self._dist

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
        if self.values.dtype.kind not in "biuf":
            raise ValueError(f"grid function samples must be real numbers, "
                             f"not dtype {self.values.dtype}")
        if self.values.shape != (self.model.n_nodes,):
            raise ValueError("values must be one sample per node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function contains non-finite samples")


def resolved_frequency(n_per_dim: int) -> int:
    """Highest frequency m that n equispaced nodes per dimension resolve.

    The grid resolves m exactly when 2m < n: then every product of two modes
    of frequency at most m stays below its Nyquist frequency, so the
    trapezoid rule integrates it exactly.
    """
    return (n_per_dim - 1) // 2


def build_circle(n_nodes: int) -> ManifoldModel:
    """Unit circle, the flat torus T^1: equispaced angles, weights 2*pi/n.

    Geodesic distance is the wrap-around arc length
    min(|x - y|, 2*pi - |x - y|).
    """
    return _flat_torus("circle", 1, n_nodes, "n_nodes")


def build_torus2(n_per_dim: int) -> ManifoldModel:
    """Flat 2-torus T^2, the product of two unit circles.

    Nodes are the tensor grid of two equispaced circles, weights (2*pi/n)^2,
    and the distance is the Euclidean norm of the per-coordinate circle
    distances.
    """
    return _flat_torus("torus2", 2, n_per_dim, "n_per_dim")


def _flat_torus(kind: str, dim: int, n: int, param: str) -> ManifoldModel:
    """T^dim on the tensor grid of n equispaced angles per coordinate."""
    if n < 8:
        raise ValueError(f"{kind} needs at least 8 nodes per dimension")
    if n % 2 != 0:
        raise ValueError(f"{param} must be even")
    ang = 2 * np.pi * np.arange(n) / n
    grid = np.meshgrid(*[ang] * dim, indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grid])
    weights = np.full(n ** dim, (2 * np.pi / n) ** dim)
    return ManifoldModel(kind, dim, nodes, weights, params={param: n},
                         distance=_flat_torus_distances)


def _flat_torus_distances(x: np.ndarray) -> np.ndarray:
    """sqrt(sum_c min(d_c, 2*pi - d_c)^2) over the coordinate differences
    d_c; for one coordinate this is min(d, 2*pi - d) exactly."""
    out = np.zeros((len(x), len(x)))
    for c in range(x.shape[1]):
        d = np.abs(x[:, c][:, None] - x[:, c][None, :])
        np.minimum(d, 2 * np.pi - d, out=d)
        out += np.square(d, out=d)
    return np.sqrt(out, out=out)


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
                         params={"band": band, "n_theta": n_theta, "n_phi": n_phi},
                         distance=_sphere_distances)


def _sphere_distances(x: np.ndarray) -> np.ndarray:
    """Great-circle distances arccos(<x, y>) between unit vectors."""
    return np.arccos(np.clip(x @ x.T, -1.0, 1.0))


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
    m = a.max() if len(a) else 0.0
    if np.isinf(p) or m == 0.0:
        return float(m)
    # factor out the max to keep a^p in range for large p
    return float(m * (w @ (a / m) ** p) ** (1.0 / p))

