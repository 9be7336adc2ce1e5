"""Direct solvers for the Newton systems.

``DenseLU`` factorises any Jacobian with LAPACK.  Periodic
finite-difference Jacobians are sparse: every nonzero lies within a fixed
cyclic distance of the diagonal, a band plus its two wraparound corners.
``CyclicBandedLU`` numbers the nodes 0, n-1, 1, n-2, ..., which makes that
an ordinary band of twice the halfwidth, and factorises it with LAPACK's
band LU (``dgbtrf``), so for a fixed halfwidth its storage and its
factor-once / solve-many work grow like N instead of N^2 / N^3.
``import dlss`` loads no scipy (0.17 s, not 0.43 s): ``scipy.linalg``
loads with the first factorisation, ``scipy.sparse`` with the first
banded one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SingularJacobian

__all__ = ["DenseLU", "CyclicBandedLU"]


class DenseLU:
    """Thin wrapper over scipy's dense LU with the package's error type."""

    def __init__(self, mat: np.ndarray):
        from scipy.linalg import lapack, lu_factor

        try:
            self._lu = lu_factor(mat)
        except Exception as exc:  # LinAlgError on exact singularity
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(self._lu[0])):
            raise SingularJacobian("dense LU produced non-finite factors")
        self._getrs = lapack.dgetrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # getrs straight on the factors skips lu_solve's input checks
        out, info = self._getrs(*self._lu, rhs)
        if info != 0 or not np.all(np.isfinite(out)):
            raise SingularJacobian(f"dense solve failed (getrs info {info}) or was non-finite")
        return out


@lru_cache(maxsize=None)
def _fold(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The folded node order 0, n-1, 1, n-2, ... and each node's place in
    it, read-only.  Nodes at cyclic distance d sit at most 2d places apart."""
    node = np.arange(n)
    place = np.minimum(2 * node, 2 * (n - 1 - node) + 1)
    order = np.argsort(place)
    for part in (order, place):
        part.setflags(write=False)
    return order, place


class CyclicBandedLU:
    """Band LU of a periodic banded matrix.

    ``mat`` is a square dense ndarray or scipy.sparse matrix whose entry
    (i, j) vanishes unless the cyclic distance min(|i - j|, n - |i - j|)
    is at most ``halfwidth``: the band plus the two wraparound corners.
    A nonzero entry farther out raises ``ValueError``.
    """

    def __init__(self, mat, halfwidth: int):
        from scipy.linalg.lapack import dgbtrf, dgbtrs
        from scipy.sparse import csc_array

        if halfwidth < 1:
            raise ValueError(f"halfwidth must be positive, got {halfwidth}")
        csc = csc_array(mat)
        csc.sum_duplicates()
        n = csc.shape[0]
        rows, data = csc.indices, csc.data
        cols = np.repeat(np.arange(n), np.diff(csc.indptr))
        gap = np.abs(rows - cols)
        outside = np.minimum(gap, n - gap) > halfwidth
        if outside.any():
            count = np.count_nonzero(data[outside])
            if count:
                raise ValueError(
                    f"{count} nonzero entries lie outside the "
                    f"periodic band of halfwidth {halfwidth}"
                )
            rows, cols, data = rows[~outside], cols[~outside], data[~outside]
        # gbtrf keeps entry (i, j) of the folded band matrix, kl = ku = width,
        # at ab[2 width + i - j, j]: flat index 2 width + i - j + j ldab
        self._order, self._place = _fold(n)
        width = min(2 * halfwidth, n - 1)
        ab = np.zeros((3 * width + 1, n), order="F")
        j = self._place[cols]
        slot = self._place[rows] - j
        slot += 2 * width + j * ab.shape[0]
        ab.reshape(-1, order="F")[slot] = data
        self._lu, self._piv, info = dgbtrf(ab, width, width, overwrite_ab=True)
        if info != 0 or not np.all(np.isfinite(self._lu)):
            raise SingularJacobian(f"banded LU failed (gbtrf info {info}) or was non-finite")
        self._width = width
        self._gbtrs = dgbtrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        folded, info = self._gbtrs(
            self._lu, self._width, self._width, rhs[self._order], self._piv, overwrite_b=True
        )
        if info != 0 or not np.all(np.isfinite(folded)):
            raise SingularJacobian(f"banded solve failed (gbtrs info {info}) or was non-finite")
        return folded[self._place]
