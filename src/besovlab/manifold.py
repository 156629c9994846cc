"""Discrete models of compact manifolds: nodes, quadrature weights, geodesics
and the eigenbasis of the Laplace operator.

Every model is a finite quadrature rule (nodes x_i, weights w_i > 0) together
with a pairwise geodesic distance, so that all L_p norms become weighted sums
and the L_infty norm is the node maximum. Each builder hands the model its
own distance rule and its own eigenbasis rule. The circle and the flat
2-torus are one family, the flat torus T^d on a tensor grid of equispaced
angles, for d = 1 and 2.

An eigenbasis rule returns the eigenvalues, labels and n x K eigenfunction
array already in final order: ascending eigenvalue, ties broken by label.
On the flat torus T^d the basis is the products of one Fourier column per
coordinate; the circle's is the one table itself, uncopied, with labels
``("const",)`` and ``("cos", k)``/``("sin", k)``. On the sphere it is the
real spherical harmonics, their associated Legendre factors computed by one
three-term recurrence in the degree per order. A triangle mesh's rule, in
the mesh module, solves for the eigenpairs of the cotangent Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
        mesh file sits). ``save_eigensystem`` echoes them.
    distance : callable, optional
        The distance rule: maps the node array to the full pairwise geodesic
        distance matrix. A model without one has no geodesics.
    basis : callable, optional
        The eigenbasis rule: maps a band limit to the eigenvalues, labels and
        eigenfunction columns of every eigenpair with eigenvalue at most the
        band, in final order, and rejects a band the model cannot resolve. A
        model without one has no eigenbasis.
    """

    def __init__(self, kind, dim, nodes, weights, params=None, distance=None,
                 basis=None):
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
        self._distance = distance
        self._basis = basis
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

    def eigenbasis(self, band_limit: float):
        """(eigenvalues, labels, eigenfunctions) of every eigenpair with
        eigenvalue <= band_limit, by the model's eigenbasis rule."""
        if self._basis is None:
            raise ValueError(f"no eigenbasis rule for kind {self.kind!r}")
        return self._basis(band_limit)

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
                         distance=_flat_torus_distances,
                         basis=partial(_flat_torus_basis, nodes, n))


def _flat_torus_distances(x: np.ndarray) -> np.ndarray:
    """sqrt(sum_c min(d_c, 2*pi - d_c)^2) over the coordinate differences
    d_c; for one coordinate this is min(d, 2*pi - d) exactly."""
    out = np.zeros((len(x), len(x)))
    for c in range(x.shape[1]):
        d = np.abs(x[:, c][:, None] - x[:, c][None, :])
        np.minimum(d, 2 * np.pi - d, out=d)
        out += np.square(d, out=d)
    return np.sqrt(out, out=out)


def _fourier_table(angles: np.ndarray, m_max: int):
    """Orthonormal columns const, cos 1, sin 1, ..., cos m_max, sin m_max at
    the angles, with the frequency and the label of each column."""
    m = np.arange(1, m_max + 1)
    phase = np.outer(angles, m)
    table = np.empty((len(angles), 2 * m_max + 1))
    table[:, 0] = 1.0 / np.sqrt(2 * np.pi)
    # written and scaled in place, with no n x m_max temporaries; dividing
    # rather than multiplying by the reciprocal keeps every bit
    np.cos(phase, out=table[:, 1::2])
    np.sin(phase, out=table[:, 2::2])
    table[:, 1:] /= np.sqrt(np.pi)
    freqs = (np.arange(2 * m_max + 1) + 1) // 2
    labels = [("const", 0)] + [(kind, k) for k in range(1, m_max + 1)
                               for kind in ("cos", "sin")]
    return table, freqs, labels


def _flat_torus_basis(nodes, n, band_limit):
    """The flat torus basis at the ``nodes``, n per dimension."""
    dim = nodes.shape[1]
    m_max = int(np.floor(np.sqrt(band_limit) + 1e-9))
    if m_max > resolved_frequency(n):
        raise ValueError(
            f"band_limit {band_limit} needs frequency {m_max}, unresolved by "
            f"{n} nodes per dimension (need 2*m < n)")
    tables = [_fourier_table(nodes[:, c], m_max) for c in range(dim)]
    _, freqs, labels = tables[0]
    lam = sum(np.ix_(*[freqs ** 2] * dim)).astype(float)
    if dim == 1:
        # the table's columns ascend by (eigenvalue, label) already: the
        # basis is a prefix of it, and each label names its one factor
        k = int(np.count_nonzero(lam <= band_limit))
        return lam[:k], [("const",)] + labels[1:k], tables[0][0][:, :k]
    picks = sorted(zip(*np.nonzero(lam <= band_limit)),
                   key=lambda ix: (lam[ix], [labels[a] for a in ix]))
    idx = tuple(np.array(picks).T)
    funcs = tables[0][0][:, idx[0]]
    for (table, _, _), ix in zip(tables[1:], idx[1:]):
        funcs *= table[:, ix]
    return lam[idx], [tuple(labels[a] for a in ix) for ix in picks], funcs


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
                         distance=_sphere_distances,
                         basis=partial(_sphere_basis, nodes, band))


def _sphere_distances(x: np.ndarray) -> np.ndarray:
    """Great-circle distances arccos(<x, y>) between unit vectors."""
    return np.arccos(np.clip(x @ x.T, -1.0, 1.0))


def _sphere_basis(nodes, band, band_limit):
    """The real spherical harmonics at the unit vectors ``nodes``, up to the
    quadrature band."""
    l_max = int(np.floor(0.5 * (np.sqrt(1 + 4 * band_limit) - 1) + 1e-9))
    if l_max > band:
        raise ValueError(
            f"band_limit {band_limit} needs harmonic degree {l_max}, "
            f"beyond the quadrature band {band}")
    labels = [("ylm", l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    lam = np.array([l * (l + 1) for _, l, _ in labels], dtype=float)
    x = np.clip(nodes[:, 2], -1.0, 1.0)          # cos(colatitude)
    sin_theta = np.sqrt((1.0 - x) * (1.0 + x))
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    # column l^2 + l + m holds Y_lm: P_lm(x) for m = 0, sqrt(2) P_lm(x)
    # cos(m phi) for m > 0 and sqrt(2) P_l|m|(x) sin(|m| phi) for m < 0, with
    # P_lm the associated Legendre function normalized to unit L_2 norm of
    # P_lm(x) e^{i m phi} on the sphere, Condon-Shortley sign included
    funcs = np.empty((len(x), len(labels)))
    diagonal = np.full(len(x), 1.0 / np.sqrt(4 * np.pi))   # P_00
    for m in range(l_max + 1):
        if m:
            diagonal = -np.sqrt((2 * m + 1) / (2 * m)) * sin_theta * diagonal
            cos_m = np.sqrt(2.0) * np.cos(m * phi)
            sin_m = np.sqrt(2.0) * np.sin(m * phi)
        # one three-term recurrence in l per order m:
        # P_lm = a (x P_{l-1,m} - b P_{l-2,m}), a = sqrt((4l^2 - 1)/(l^2 - m^2)),
        # b = sqrt(((l-1)^2 - m^2) / (4(l-1)^2 - 1)), from P_mm and
        # P_{m-1,m} = 0 (b is 0 at l = m + 1)
        before, current = 0.0, diagonal
        for l in range(m, l_max + 1):
            if l > m:
                a = np.sqrt((4 * l * l - 1) / (l * l - m * m))
                b = np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
                before, current = current, a * (x * current - b * before)
            centre = l * l + l
            if m:
                funcs[:, centre + m] = current * cos_m
                funcs[:, centre - m] = current * sin_m
            else:
                funcs[:, centre] = current
    return lam, labels, funcs


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

