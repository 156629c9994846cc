"""Test functions with analytically known spectra and smoothness.

Circle entries carry closed-form eigencoefficients (and hence exact p=2
error sequences); sphere/torus use only the generic entries (pure
eigenfunctions and random bandlimited draws).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .manifold import GridFunction, ManifoldModel, resolved_frequency
from .spectrum import CoefVector, EigenSystem, synthesize


@dataclass
class CorpusEntry:
    """A named test function: builder plus optional exact ground truth."""

    id: str
    builder: object  # callable (model, eigsys) -> GridFunction
    known_coefficients: object = None  # callable (eigsys) -> ndarray, or None
    expected_rate: float | None = None
    params: dict = field(default_factory=dict)
    # highest circle frequency the builder samples; ``resolved_frequency``
    # says which circles resolve it
    frequency: int | None = None

    def build(self, model: ManifoldModel, eigsys: EigenSystem | None = None) -> GridFunction:
        return self.builder(model, eigsys)


def _require_circle(model):
    if model.kind != "circle":
        raise ValueError("this corpus entry is defined on the circle")


def lacunary(alpha: float, M: int) -> CorpusEntry:
    """f(x) = sum_{m=1..M} 2^(-alpha m) cos(2^m x) on the circle.

    The p=2 error sequence has the closed form
    E(f, 4^j, 2)^2 = pi * sum_{m > j} 4^(-alpha m), so log2 E decays with
    slope -alpha.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if M < 2:
        raise ValueError("need at least two octaves")

    def build(model, eigsys=None):
        _require_circle(model)
        if 2 ** M > resolved_frequency(model.n_nodes):
            raise ValueError(f"frequency 2^{M} unresolved by {model.n_nodes} nodes")
        x = model.nodes[:, 0]
        vals = np.zeros(model.n_nodes)
        for m in range(1, M + 1):
            vals += 2.0 ** (-alpha * m) * np.cos(2.0 ** m * x)
        return GridFunction(model, vals)

    def coefs(eigsys):
        c = np.zeros(eigsys.n_eigen)
        for m in range(1, M + 1):
            c[eigsys.index_of(("cos", 2 ** m))] = np.sqrt(np.pi) * 2.0 ** (-alpha * m)
        return c

    return CorpusEntry(id=f"lacunary-a{alpha:g}-M{M}", builder=build,
                       known_coefficients=coefs, expected_rate=alpha,
                       params={"alpha": alpha, "M": M}, frequency=2 ** M)


def lacunary_l2_error(alpha: float, M: int, omega: float) -> float:
    """Closed-form E(f, omega, 2) of the lacunary entry (Parseval tail)."""
    tail = sum(4.0 ** (-alpha * m) for m in range(1, M + 1) if 4.0 ** m > omega)
    return float(np.sqrt(np.pi * tail))


def eigen_pure(l: int) -> CorpusEntry:
    """The single eigenfunction u_l; its error sequence is one step."""
    if l < 0:
        raise ValueError("eigenfunction index must be nonnegative")

    def build(model, eigsys):
        if eigsys is None or l >= eigsys.n_eigen:
            raise ValueError(f"eigensystem does not hold eigenfunction {l}")
        return GridFunction(model, eigsys.eigenfunctions[:, l].copy())

    def coefs(eigsys):
        c = np.zeros(eigsys.n_eigen)
        c[l] = 1.0
        return c

    return CorpusEntry(id=f"eigenpure-{l}", builder=build,
                       known_coefficients=coefs, params={"l": l})


def random_bandlimited(omega: float, seed: int) -> CorpusEntry:
    """Unit-L2 random element of the span {lambda <= omega} (seeded)."""
    if not 0 < omega < np.inf:
        raise ValueError(f"omega must be positive and finite, not {omega}")

    def draw(eigsys):
        if omega > eigsys.band_limit:
            raise ValueError("omega exceeds the computed band limit")
        k = eigsys.cutoff_index(omega)
        rng = np.random.default_rng(seed)
        c = np.zeros(eigsys.n_eigen)
        c[:k] = rng.standard_normal(k)
        c /= np.linalg.norm(c)
        return c

    def build(model, eigsys):
        if eigsys is None:
            raise ValueError("random bandlimited entry needs an eigensystem")
        return synthesize(eigsys, CoefVector(draw(eigsys)))

    return CorpusEntry(id=f"randband-w{omega:g}-s{seed}", builder=build,
                       known_coefficients=draw,
                       params={"omega": omega, "seed": seed})


def square_wave() -> CorpusEntry:
    """sign(sin x) on the circle: sine series (4/pi) sum_{odd m} sin(mx)/m.

    Sampled values are 0 at the two nodes where sin vanishes. Coefficients
    are only known up to quadrature aliasing, so no exact coefficient map is
    declared; the expected p=2 decay rate is 1/2.
    """

    def build(model, eigsys=None):
        _require_circle(model)
        s = np.sin(model.nodes[:, 0])
        vals = np.where(np.abs(s) < 1e-12, 0.0, np.sign(s))
        return GridFunction(model, vals)

    return CorpusEntry(id="squarewave", builder=build, expected_rate=0.5,
                       params={})


def square_wave_l2_error(omega: float, n_nodes: int) -> float:
    """Closed-form grid L2 error of the sampled square wave at cutoff omega.

    Continuous Parseval tail (16/pi) sum_{odd m, m^2 > omega} m^-2, corrected
    by the measure 2*(2 pi / n) of the two nodes sampled as 0.
    """
    m_in = int(np.floor(np.sqrt(omega)))
    head = sum(1.0 / (m * m) for m in range(1, m_in + 1) if m % 2 == 1)
    total = np.pi ** 2 / 8.0
    tail_sq = (16.0 / np.pi) * (total - head)
    tail_sq -= 2.0 * (2.0 * np.pi / n_nodes)
    return float(np.sqrt(max(tail_sq, 0.0)))


def default_corpus(kind: str = "circle") -> list[CorpusEntry]:
    """The standard bundle of test functions for a manifold kind."""
    if kind == "circle":
        return [
            lacunary(0.5, 5),
            lacunary(1.0, 5),
            lacunary(1.5, 5),
            eigen_pure(5),
            random_bandlimited(64.0, seed=20240601),
            square_wave(),
        ]
    return [eigen_pure(5), random_bandlimited(16.0, seed=20240601)]


def manifest(entries: list[CorpusEntry]) -> list[dict]:
    """JSON-ready manifest rows (id, params, expected_rate)."""
    return [{"id": e.id, "params": e.params, "expected_rate": e.expected_rate}
            for e in entries]
