"""Smooth dyadic cutoffs: the bump h, the band filters F_j and the Psi_j.

h is 1 on [0,1], 0 on [4,inf) and infinitely smooth in between (exp(-1/x)
step). F(lam) = h(lam/4) - h(lam) is supported in [1,16]; rescaling by powers
of 4 gives the dyadic family F_j with F_0 = h, which telescopes to a partition
of unity. Psi_j divides out lam^(k/2) on the block, always evaluated in the
scaled variable so large j cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _g(x):
    """exp(-1/x) for x > 0, 0 otherwise (the classic smooth-step kernel)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


@dataclass(frozen=True)
class SmoothCutoff:
    """The bump h: 1 on [0, 1], 0 from 4 on, smooth between.

    The ends 1 and 4 are fixed: the support [1, 16] of F, the dyadic blocks
    [4^(j-1), 16*4^(j-1)] and the partition of unity all rest on them.
    """

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        up = _g((4.0 - lam) / 3.0)
        down = _g((lam - 1.0) / 3.0)
        with np.errstate(invalid="ignore"):
            mid = np.where(up + down > 0, up / (up + down), 0.0)
        out = np.where(lam <= 1.0, 1.0, np.where(lam >= 4.0, 0.0, mid))
        return out if out.ndim else float(out)


def make_bump() -> SmoothCutoff:
    """The C-infinity cutoff equal to 1 on [0,1] and supported in [0,4]."""
    return SmoothCutoff()


@dataclass(frozen=True)
class FilterFamily:
    """Dyadic filter bank built from a smooth cutoff and a Sobolev order k."""

    h: SmoothCutoff
    k: int = 2

    def F(self, lam):
        return self.h(np.asarray(lam, dtype=float) / 4.0) - self.h(lam)

    def f_j(self, j: int, lam):
        """F_j: F_0 = h, F_j(lam) = F(lam / 4^(j-1)) for j >= 1."""
        if j < 0 or j != int(j):
            raise ValueError("j must be a nonnegative integer")
        if j == 0:
            return self.h(lam)
        return self.F(np.asarray(lam, dtype=float) / 4.0 ** (j - 1))

    def psi(self, lam):
        """Psi(lam) = F(lam) / lam^(k/2), zero off the support [1,16]."""
        scalar = np.ndim(lam) == 0
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        fv = np.atleast_1d(np.asarray(self.F(lam)))
        out = np.zeros_like(fv)
        on = fv != 0
        out[on] = fv[on] / lam[on] ** (self.k / 2.0)
        return float(out[0]) if scalar else out

    def psi_j(self, j: int, lam):
        """Psi_j(lam) = Psi(lam / 4^(j-1)), evaluated in the scaled variable."""
        if j < 1 or j != int(j):
            raise ValueError("j must be a positive integer")
        return self.psi(np.asarray(lam, dtype=float) / 4.0 ** (j - 1))


def make_filter_family(k: int = 2) -> FilterFamily:
    if k < 1 or k != int(k):
        raise ValueError("Sobolev order k must be a positive integer")
    return FilterFamily(make_bump(), int(k))


def check_partition(family: FilterFamily, J: int, lam_grid) -> float:
    """Max deviation of sum_{j=0..J} F_j from 1 on a grid inside [0, 4^J]."""
    lam = np.asarray(lam_grid, dtype=float)
    if np.any(lam < 0) or np.any(lam > 4.0 ** J):
        raise ValueError(f"grid leaves the certified range [0, 4^{J}]")
    total = np.zeros_like(lam)
    for j in range(J + 1):
        total += family.f_j(j, lam)
    return float(np.abs(total - 1.0).max())
