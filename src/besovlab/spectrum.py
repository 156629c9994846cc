"""Eigenvalues and sampled orthonormal eigenfunctions of the Laplace operator.

Analytic bases are used on the circle, torus and sphere. Triangle meshes get
the generalized eigenproblem S u = lam M u of the cotangent stiffness S and
the lumped mass M, solved by shift-invert Lanczos (ARPACK) for the eigenpairs
under the band limit only; when the band needs more than a sixth of them, a
dense solve of the whole spectrum is cheaper and runs instead. Columns are
always sorted by ascending eigenvalue, so the span of the first k columns is
the bandlimited space at cutoff eigenvalues[k-1].
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackError, eigsh
from scipy.special import gammaln, lpmv

from .manifold import GridFunction, ManifoldModel
from .mesh import cotangent_stiffness


@dataclass
class EigenSystem:
    """Sampled orthonormal eigenbasis of the operator, eigenvalues ascending.

    ``eigenfunctions`` has one column per eigenfunction; the Gram matrix
    U^T diag(w) U is the identity up to quadrature/solver tolerance.
    """

    model: ManifoldModel
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    band_limit: float
    labels: list

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.eigenfunctions = np.asarray(self.eigenfunctions, dtype=float)
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")
        if self.eigenfunctions.shape != (self.model.n_nodes, len(self.eigenvalues)):
            raise ValueError("eigenfunction matrix shape mismatch")

    @property
    def n_eigen(self) -> int:
        return len(self.eigenvalues)

    def cutoff_index(self, omega: float) -> int:
        """Number of eigenpairs with eigenvalue <= omega (cutoff inclusive)."""
        return int(np.searchsorted(self.eigenvalues, omega, side="right"))

    def index_of(self, label) -> int:
        return self.labels.index(label)


@dataclass
class CoefVector:
    """Expansion coefficients aligned with the leading eigenvalues."""

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.ndim != 1:
            raise ValueError("coefficients must be a vector")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients contain non-finite entries")

    def __len__(self):
        return len(self.coefficients)


def build_eigensystem(model: ManifoldModel, band_limit: float) -> EigenSystem:
    """All eigenpairs with eigenvalue <= band_limit on the given model.

    Rejects band limits the quadrature cannot resolve: on the circle/torus
    every product of two included basis functions must stay below the grid
    Nyquist frequency (2*max_frequency < nodes per dimension), on the sphere
    the top harmonic degree must not exceed the quadrature band.
    """
    if band_limit <= 0:
        raise ValueError("band_limit must be positive")
    if model.kind == "circle":
        triples = _circle_basis(model, band_limit)
    elif model.kind == "torus2":
        triples = _torus_basis(model, band_limit)
    elif model.kind == "sphere2":
        triples = _sphere_basis(model, band_limit)
    elif model.kind == "mesh":
        triples = _mesh_basis(model, band_limit)
    else:
        raise ValueError(f"unknown manifold kind {model.kind!r}")
    lams, labels, cols = triples
    order = sorted(range(len(lams)), key=lambda i: (lams[i], labels[i]))
    eigenvalues = np.array([lams[i] for i in order])
    eigenfunctions = np.column_stack([cols[i] for i in order])
    labels = [labels[i] for i in order]
    return EigenSystem(model, eigenvalues, eigenfunctions, float(band_limit), labels)


def _circle_1d(angles: np.ndarray, kind: str, m: int) -> np.ndarray:
    if kind == "const":
        return np.full(len(angles), 1.0 / np.sqrt(2 * np.pi))
    if kind == "cos":
        return np.cos(m * angles) / np.sqrt(np.pi)
    return np.sin(m * angles) / np.sqrt(np.pi)


def _circle_basis(model, band_limit):
    n = model.n_nodes
    m_max = int(np.floor(np.sqrt(band_limit) + 1e-9))
    if 2 * m_max >= n:
        raise ValueError(
            f"band_limit {band_limit} needs frequency {m_max}, "
            f"unresolved by {n} nodes (need 2*m < n)")
    angles = model.nodes[:, 0]
    lams, labels, cols = [0.0], [("const",)], [_circle_1d(angles, "const", 0)]
    for m in range(1, m_max + 1):
        for kind in ("cos", "sin"):
            lams.append(float(m * m))
            labels.append((kind, m))
            cols.append(_circle_1d(angles, kind, m))
    return lams, labels, cols


def _torus_basis(model, band_limit):
    n = model.params["n_per_dim"]
    m_max = int(np.floor(np.sqrt(band_limit) + 1e-9))
    if 2 * m_max >= n:
        raise ValueError(
            f"band_limit {band_limit} needs per-dimension frequency {m_max}, "
            f"unresolved by {n} nodes per dimension")
    x, y = model.nodes[:, 0], model.nodes[:, 1]

    def factors(m):
        return [("const", 0)] if m == 0 else [("cos", m), ("sin", m)]

    lams, labels, cols = [], [], []
    for m1 in range(0, m_max + 1):
        for m2 in range(0, m_max + 1):
            lam = float(m1 * m1 + m2 * m2)
            if lam > band_limit:
                continue
            for k1, f1 in factors(m1):
                for k2, f2 in factors(m2):
                    lams.append(lam)
                    labels.append(((k1, f1), (k2, f2)))
                    cols.append(_circle_1d(x, k1, f1) * _circle_1d(y, k2, f2))
    return lams, labels, cols


def real_spherical_harmonic(l: int, m: int, nodes: np.ndarray) -> np.ndarray:
    """Real orthonormal spherical harmonic of degree l, order m at unit vectors."""
    x = np.clip(nodes[:, 2], -1.0, 1.0)          # cos(colatitude)
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    am = abs(m)
    log_norm = 0.5 * (np.log(2 * l + 1.0) - np.log(4 * np.pi)
                      + gammaln(l - am + 1) - gammaln(l + am + 1))
    vals = np.exp(log_norm) * lpmv(am, l, x)
    if m == 0:
        return vals
    if m > 0:
        return np.sqrt(2.0) * vals * np.cos(m * phi)
    return np.sqrt(2.0) * vals * np.sin(am * phi)


def _sphere_basis(model, band_limit):
    band = model.params["band"]
    l_max = int(np.floor(0.5 * (np.sqrt(1 + 4 * band_limit) - 1) + 1e-9))
    if l_max > band:
        raise ValueError(
            f"band_limit {band_limit} needs harmonic degree {l_max}, "
            f"beyond the quadrature band {band}")
    lams, labels, cols = [], [], []
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            lams.append(float(l * (l + 1)))
            labels.append(("ylm", l, m))
            cols.append(real_spherical_harmonic(l, m, model.nodes))
    return lams, labels, cols


# Shift-invert Lanczos costs about n*k^2 for k eigenpairs, the dense solve
# about n^3 whatever k. With BLAS at 1 thread they cross near k = n/6 on
# icosphere(4) and near k = n/4 on icosphere(3); above n/6 the dense solve runs.
_SPARSE_MAX_K_FRACTION = 1.0 / 6.0


def _mesh_basis(model, band_limit):
    stiff = cotangent_stiffness(model.nodes, model.faces).tocsc()
    w = model.weights
    # Gershgorin: no eigenvalue of M^-1 S exceeds max_i sum_j |S_ij| / w_i
    top = float((abs(stiff).sum(axis=1).A1 / w).max())
    if band_limit > top:
        raise ValueError(
            f"band_limit {band_limit} exceeds {top:.3g}, a bound on the largest "
            "discrete eigenvalue; the mesh cannot certify the span")
    # grow k until the band's last cluster is whole
    area = model.total_measure
    k = _weyl_k(area, band_limit)
    while k <= _SPARSE_MAX_K_FRACTION * len(w):
        # shift one Weyl spacing below 0: S is singular (constants)
        lam, funcs = _sparse_pencil(stiff, w, k, -4 * np.pi / area)
        if lam[-1] > band_limit:
            break
        k *= 2
    else:
        lam, funcs = _dense_pencil(stiff, w)
    tol = 1e-9 * max(1.0, top)
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
    funcs = funcs[:, keep]
    # deterministic sign: largest-magnitude entry positive
    for col in range(funcs.shape[1]):
        i = np.argmax(np.abs(funcs[:, col]))
        if funcs[i, col] < 0:
            funcs[:, col] *= -1
    lams = [float(v) for v in lam[keep]]
    labels = [("mesh", i) for i in range(len(lams))]
    cols = [funcs[:, i] for i in range(funcs.shape[1])]
    return lams, labels, cols


def _weyl_k(area, band_limit):
    """Eigenpairs to ask for first: Weyl's law N(lam) ~ area*lam/(4 pi), plus
    room for the cluster the estimate cuts (on the sphere it runs (l+1) short)."""
    weyl = area * band_limit / (4 * np.pi)
    return int(weyl + 2 * np.sqrt(weyl)) + 8


def _sparse_pencil(stiff, w, k, sigma):
    """The k smallest eigenpairs of S u = lam M u, M = diag(w), ascending."""
    # a fixed start vector: ARPACK's own random one changes from call to call
    v0 = np.random.default_rng(0).standard_normal(len(w))
    try:
        lam, vec = eigsh(stiff, k, M=sparse.diags(w, format="csc"),
                         sigma=sigma, v0=v0)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise RuntimeError(f"mesh eigensolver failed to converge: {exc}") from exc
    order = np.argsort(lam, kind="stable")
    return lam[order], vec[:, order]


def _dense_pencil(stiff, w):
    """All eigenpairs of S u = lam M u, M = diag(w), ascending."""
    d = 1.0 / np.sqrt(w)
    sym = d[:, None] * stiff.toarray() * d[None, :]
    sym = 0.5 * (sym + sym.T)
    try:
        lam, vec = eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"mesh eigensolver failed to converge: {exc}") from exc
    return lam, d[:, None] * vec


def check_orthonormality(eigsys: EigenSystem) -> float:
    """Max entrywise deviation of the weighted Gram matrix from the identity."""
    u = eigsys.eigenfunctions
    gram = u.T @ (u * eigsys.model.weights[:, None])
    return float(np.abs(gram - np.eye(eigsys.n_eigen)).max())


def project(eigsys: EigenSystem, f: GridFunction) -> CoefVector:
    """Analysis: c_l = sum_i w_i f(x_i) u_l(x_i)."""
    if f.model is not eigsys.model:
        raise ValueError("grid function and eigensystem live on different models")
    c = eigsys.eigenfunctions.T @ (eigsys.model.weights * f.values)
    return CoefVector(c)


def synthesize(eigsys: EigenSystem, c: CoefVector) -> GridFunction:
    """Synthesis: f(x_i) = sum_l c_l u_l(x_i)."""
    coefs = c.coefficients
    if len(coefs) > eigsys.n_eigen:
        raise ValueError("more coefficients than eigenfunctions")
    vals = eigsys.eigenfunctions[:, :len(coefs)] @ coefs
    return GridFunction(eigsys.model, vals)


def apply_power(eigsys: EigenSystem, c: CoefVector, s: float) -> CoefVector:
    """Diagonal action of L^s: c_l -> lambda_l^s c_l (0^0 taken as 1)."""
    if s < 0:
        raise ValueError("power must be nonnegative")
    coefs = c.coefficients
    factors = np.power(eigsys.eigenvalues[:len(coefs)], s)
    return CoefVector(coefs * factors)


def save_eigensystem(eigsys: EigenSystem, path) -> None:
    """Export as JSON (eigenvalues + row-major eigenfunctions + descriptor).

    The document is streamed into ``<path>.tmp`` and renamed over ``path``,
    so a failed write leaves an earlier file intact and no temp file.
    """
    doc = {
        "format": "besovlab-eigensystem",
        "model": {
            "kind": eigsys.model.kind,
            "dim": eigsys.model.dim,
            "n_nodes": eigsys.model.n_nodes,
            "total_measure": eigsys.model.total_measure,
            "params": {k: v for k, v in eigsys.model.params.items()
                       if isinstance(v, (int, float, str))},
        },
        "band_limit": eigsys.band_limit,
        "eigenvalues": eigsys.eigenvalues.tolist(),
        "eigenfunctions": eigsys.eigenfunctions.ravel(order="C").tolist(),
        "labels": [list(lab) for lab in eigsys.labels],
    }
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise

