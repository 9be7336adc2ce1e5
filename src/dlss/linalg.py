"""Direct solvers for the Newton systems.

``DenseLU`` factorises any Jacobian with LAPACK.  Periodic
finite-difference Jacobians are sparse: every nonzero lies within a fixed
cyclic distance of the diagonal, a band plus its two wraparound corners.
``CyclicBandedLU`` hands such a matrix to SuperLU
(``scipy.sparse.linalg.splu``), so for a fixed halfwidth its storage and
its factor-once / solve-many work grow like N instead of N^2 / N^3.
``import dlss`` loads no scipy (0.17 s, not 0.43 s): ``scipy.linalg`` loads
with the first ``DenseLU``, ``scipy.sparse`` with the first banded one.
"""

from __future__ import annotations

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


class CyclicBandedLU:
    """Sparse LU of a periodic banded matrix.

    ``mat`` is a square dense ndarray or scipy.sparse matrix whose entry
    (i, j) vanishes unless the cyclic distance min(|i - j|, n - |i - j|)
    is at most ``halfwidth``: the band plus the two wraparound corners.
    A nonzero entry farther out raises ``ValueError``.
    """

    def __init__(self, mat, halfwidth: int):
        from scipy.sparse import csc_array
        from scipy.sparse.linalg import splu

        if halfwidth < 1:
            raise ValueError(f"halfwidth must be positive, got {halfwidth}")
        csc = csc_array(mat)
        n = csc.shape[0]
        coo = csc.tocoo()
        gap = np.abs(coo.row - coo.col)
        outside = (np.minimum(gap, n - gap) > halfwidth) & (coo.data != 0.0)
        if outside.any():
            raise ValueError(
                f"{np.count_nonzero(outside)} nonzero entries lie outside the "
                f"periodic band of halfwidth {halfwidth}"
            )
        try:
            # In natural order the fill stays inside the band, widened by
            # pivoting, plus strips along the last rows and columns: O(N b).
            self._lu = splu(csc, permc_spec="NATURAL")
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularJacobian(f"sparse LU failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = self._lu.solve(rhs)
        if not np.all(np.isfinite(out)):
            raise SingularJacobian("cyclic banded solve produced non-finite values")
        return out
