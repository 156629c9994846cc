"""Eigenvalues and sampled orthonormal eigenfunctions of the Laplace operator.

Each basis builder returns its eigenvalues, labels and n x K eigenfunction
array already in final order: ascending eigenvalue, ties broken by label.
Analytic bases are used on the flat torus and the sphere. On the flat torus
T^d (the circle for d = 1) the basis is the products of one Fourier column
per coordinate; the circle's is the one table itself, uncopied, with labels
``("const",)`` and ``("cos", k)``/``("sin", k)``. On the sphere it is the
real spherical harmonics, their associated Legendre factors computed by one
three-term recurrence in the degree per order. Triangle meshes get the
eigenpairs of the cotangent Laplacian, solved in the mesh module, which this
one imports only for a mesh model: its solvers load scipy's sparse and dense
linear algebra, and the analytic bases need numpy alone. Since the columns
ascend by eigenvalue, the span of the first k columns is the bandlimited
space at cutoff eigenvalues[k-1].
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .manifold import GridFunction, ManifoldModel, resolved_frequency


@dataclass(eq=False)
class EigenSystem:
    """Sampled orthonormal eigenbasis of the operator, eigenvalues ascending.

    Eigensystems compare and hash by identity, so one can key a cache.

    ``eigenfunctions`` has one column per eigenfunction and is held in row
    (C) order, whatever the builder's layout, so that every product with it
    runs the same BLAS path; the Gram matrix U^T diag(w) U is the identity
    up to quadrature/solver tolerance.
    """

    model: ManifoldModel
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    band_limit: float
    labels: list

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.eigenfunctions = np.ascontiguousarray(self.eigenfunctions, dtype=float)
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")
        if self.eigenfunctions.shape != (self.model.n_nodes, len(self.eigenvalues)):
            raise ValueError("eigenfunction matrix shape mismatch")
        if len(self.labels) != len(self.eigenvalues):
            raise ValueError(f"{len(self.labels)} labels for "
                             f"{len(self.eigenvalues)} eigenpairs")

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

    Rejects band limits the quadrature cannot resolve: on the flat torus the
    top frequency must be one ``resolved_frequency`` allows (every product of
    two included basis functions stays below the grid Nyquist frequency), on
    the sphere the top harmonic degree must not exceed the quadrature band.
    """
    if not 0 < band_limit < np.inf:
        raise ValueError(f"band_limit must be positive and finite, not {band_limit}")
    if model.kind in ("circle", "torus2"):
        lam, labels, funcs = _flat_torus_basis(model, band_limit)
    elif model.kind == "sphere2":
        lam, labels, funcs = _sphere_basis(model, band_limit)
    elif model.kind == "mesh":
        # imported here, since the mesh solvers load scipy's sparse and dense
        # linear algebra, which no other model needs
        from .mesh import _mesh_basis
        lam, labels, funcs = _mesh_basis(model, band_limit)
    else:
        raise ValueError(f"unknown manifold kind {model.kind!r}")
    return EigenSystem(model, lam, funcs, float(band_limit), labels)


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


def _flat_torus_basis(model, band_limit):
    n = round(model.n_nodes ** (1.0 / model.dim))      # nodes per dimension
    m_max = int(np.floor(np.sqrt(band_limit) + 1e-9))
    if m_max > resolved_frequency(n):
        raise ValueError(
            f"band_limit {band_limit} needs frequency {m_max}, unresolved by "
            f"{n} nodes per dimension (need 2*m < n)")
    tables = [_fourier_table(model.nodes[:, c], m_max) for c in range(model.dim)]
    _, freqs, labels = tables[0]
    lam = sum(np.ix_(*[freqs ** 2] * model.dim)).astype(float)
    if model.dim == 1:
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


def _sphere_basis(model, band_limit):
    band = model.params["band"]
    l_max = int(np.floor(0.5 * (np.sqrt(1 + 4 * band_limit) - 1) + 1e-9))
    if l_max > band:
        raise ValueError(
            f"band_limit {band_limit} needs harmonic degree {l_max}, "
            f"beyond the quadrature band {band}")
    labels = [("ylm", l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    lam = np.array([l * (l + 1) for _, l, _ in labels], dtype=float)
    x = np.clip(model.nodes[:, 2], -1.0, 1.0)          # cos(colatitude)
    sin_theta = np.sqrt((1.0 - x) * (1.0 + x))
    phi = np.arctan2(model.nodes[:, 1], model.nodes[:, 0])
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


# values of the eigenfunction array per encoded block: a block's Python floats
# and its text stay a few hundred kB, well below the array itself
_SAVE_BLOCK_VALUES = 8192


def save_eigensystem(eigsys: EigenSystem, path) -> None:
    """Export as JSON (eigenvalues + row-major eigenfunctions + descriptor).

    The eigenfunction array is encoded in blocks of ``_SAVE_BLOCK_VALUES``
    values, each by ``json.dumps``: that takes the C encoder, where
    ``json.dump`` streams through the pure-Python one at a generator step per
    float, and the whole array never becomes one Python list. The text is
    that of ``json.dump`` of the whole document, since both encoders write
    floats with ``float.__repr__`` and use the same separators.

    The document is written through ``_atomic_file``, so a failed write
    leaves an earlier file intact and no temp file.
    """
    head = {
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
    }
    values = eigsys.eigenfunctions.ravel(order="C")
    with _atomic_file(path) as fh:
        fh.write(json.dumps(head)[:-1] + ', "eigenfunctions": [')
        for i in range(0, len(values), _SAVE_BLOCK_VALUES):
            if i:
                fh.write(", ")
            block = values[i:i + _SAVE_BLOCK_VALUES].tolist()
            fh.write(json.dumps(block)[1:-1])
        labels = [list(lab) for lab in eigsys.labels]
        fh.write('], "labels": ' + json.dumps(labels) + "}")


@contextlib.contextmanager
def _atomic_file(path):
    """The text file ``<path>.tmp``, open for writing and renamed over
    ``path`` when the block ends. On any error it is removed, and ``path``
    keeps what it held. Lines end as written, on every platform."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise

