"""Eigenvalues and sampled orthonormal eigenfunctions of the Laplace operator.

Each basis builder returns its eigenvalues, labels and n x K eigenfunction
array already in final order: ascending eigenvalue, ties broken by label.
Analytic bases are used on the circle, torus and sphere; the circle and the
torus share one table of Fourier columns per coordinate. Triangle meshes get
the generalized eigenproblem S u = lam M u of the cotangent stiffness S and
the lumped mass M, solved in its symmetric form A y = lam y with
A = M^-1/2 S M^-1/2 and u = M^-1/2 y. The eigenvalues under the band limit
are counted first, by the inertia of an LDL^T factorization of A minus the
band (Sylvester's law); shift-invert Lanczos (ARPACK) then asks for one pair
more than that count, doubling until the last pair returned lies above the
band. When the band needs more than a sixth of all pairs, a dense solve of
the whole spectrum is cheaper and runs instead. Since the columns ascend by
eigenvalue, the span of the first k columns is the bandlimited space at
cutoff eigenvalues[k-1].
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackError, eigsh, splu
from scipy.special import gammaln, lpmv

from .manifold import GridFunction, ManifoldModel
from .mesh import cotangent_stiffness


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
    if not 0 < band_limit < np.inf:
        raise ValueError(f"band_limit must be positive and finite, not {band_limit}")
    if model.kind == "circle":
        lam, labels, funcs = _circle_basis(model, band_limit)
    elif model.kind == "torus2":
        lam, labels, funcs = _torus_basis(model, band_limit)
    elif model.kind == "sphere2":
        lam, labels, funcs = _sphere_basis(model, band_limit)
    elif model.kind == "mesh":
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
    table[:, 1::2] = np.cos(phase) / np.sqrt(np.pi)
    table[:, 2::2] = np.sin(phase) / np.sqrt(np.pi)
    freqs = (np.arange(2 * m_max + 1) + 1) // 2
    labels = [("const", 0)] + [(kind, k) for k in range(1, m_max + 1)
                               for kind in ("cos", "sin")]
    return table, freqs, labels


def _circle_basis(model, band_limit):
    n = model.n_nodes
    m_max = int(np.floor(np.sqrt(band_limit) + 1e-9))
    if 2 * m_max >= n:
        raise ValueError(
            f"band_limit {band_limit} needs frequency {m_max}, "
            f"unresolved by {n} nodes (need 2*m < n)")
    table, freqs, labels = _fourier_table(model.nodes[:, 0], m_max)
    return (freqs ** 2).astype(float), [("const",)] + labels[1:], table


def _torus_basis(model, band_limit):
    n = model.params["n_per_dim"]
    m_max = int(np.floor(np.sqrt(band_limit) + 1e-9))
    if 2 * m_max >= n:
        raise ValueError(
            f"band_limit {band_limit} needs per-dimension frequency {m_max}, "
            f"unresolved by {n} nodes per dimension")
    tx, freqs, labels = _fourier_table(model.nodes[:, 0], m_max)
    ty = _fourier_table(model.nodes[:, 1], m_max)[0]
    lam = (freqs[:, None] ** 2 + freqs[None, :] ** 2).astype(float)
    pairs = sorted(zip(*np.nonzero(lam <= band_limit)),
                   key=lambda ij: (lam[ij], labels[ij[0]], labels[ij[1]]))
    i, j = np.array(pairs).T
    return lam[i, j], [(labels[a], labels[b]) for a, b in pairs], tx[:, i] * ty[:, j]


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
    labels = [("ylm", l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    lam = np.array([l * (l + 1) for _, l, _ in labels], dtype=float)
    funcs = np.array([real_spherical_harmonic(l, m, model.nodes)
                      for _, l, m in labels]).T
    return lam, labels, funcs


# Shift-invert Lanczos costs about n*k^2 for k eigenpairs, the dense solve
# about n^3 whatever k. On the symmetric form, with BLAS at 1 thread, the
# sparse solve takes 0.83 of the dense time at k = n/6 and 1.33 at n/5 on
# icosphere(4), 0.72 at n/4 and 1.48 at n/3 on icosphere(3); above n/6 the
# dense solve runs.
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
    area = model.total_measure
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

    The document is written into ``<path>.tmp`` and renamed over ``path``,
    so a failed write leaves an earlier file intact and no temp file.
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
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(head)[:-1] + ', "eigenfunctions": [')
            for i in range(0, len(values), _SAVE_BLOCK_VALUES):
                if i:
                    fh.write(", ")
                block = values[i:i + _SAVE_BLOCK_VALUES].tolist()
                fh.write(json.dumps(block)[1:-1])
            labels = [list(lab) for lab in eigsys.labels]
            fh.write('], "labels": ' + json.dumps(labels) + "}")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise

