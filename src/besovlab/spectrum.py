"""Eigenvalues and sampled orthonormal eigenfunctions of the Laplace operator.

``build_eigensystem`` checks the band limit and takes the eigenpairs from
the model's eigenbasis rule, which its builder handed it (see the manifold
and mesh modules); the columns come in final order, ascending eigenvalue
with ties broken by label. Since the columns ascend by eigenvalue, the span
of the first k columns is the bandlimited space at cutoff eigenvalues[k-1].
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .manifold import GridFunction, ManifoldModel


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

    The model's eigenbasis rule rejects band limits its quadrature cannot
    resolve: on the flat torus the top frequency must be one
    ``resolved_frequency`` allows (every product of two included basis
    functions stays below the grid Nyquist frequency), on the sphere the top
    harmonic degree must not exceed the quadrature band, and on a mesh the
    band must lie within the discrete spectrum.
    """
    if not 0 < band_limit < np.inf:
        raise ValueError(f"band_limit must be positive and finite, not {band_limit}")
    lam, labels, funcs = model.eigenbasis(band_limit)
    return EigenSystem(model, lam, funcs, float(band_limit), labels)


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

