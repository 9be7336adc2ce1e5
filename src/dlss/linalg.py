"""Direct solvers for the Newton systems.

``DenseLU`` factorises any Jacobian with LAPACK.  Periodic
finite-difference Jacobians have nonzeros only on a few cyclic diagonals:
a band plus its two wraparound corners.  ``CyclicBandedLU`` takes those
diagonals as an array, numbers the nodes 0, n-1, 1, n-2, ..., which makes
them an ordinary band of twice the halfwidth, and factorises it with
LAPACK's band LU (``dgbtrf``), so for a fixed halfwidth its storage and
its factor-once / solve-many work grow like N instead of N^2 / N^3.
``import dlss`` loads no scipy.  The first factorisation loads scipy's
LAPACK extension ``scipy.linalg._flapack`` on its own (about 0.02 s and
3 MB resident), not the ``scipy.linalg`` package (about 0.2 s and 26 MB):
the four routines used here are the very objects ``scipy.linalg.lapack``
re-exports, so the results keep their bits.
"""

from __future__ import annotations

import math
import os
import sys
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

from .errors import SingularJacobian

__all__ = ["DenseLU", "CyclicBandedLU"]

_FLAPACK = "scipy.linalg._flapack"
# The module _flapack returns, once it has been found or loaded.
_lapack = None


def _flapack():
    """scipy's f2py LAPACK module, loaded without the ``scipy.linalg`` package.

    An entry made by an earlier ``import scipy.linalg`` is used as it is.
    A module loaded here is kept in ``_lapack`` and taken out of
    ``sys.modules``, where the extension's own initialisation puts it:
    a later ``import scipy.linalg`` that found it there would never set the
    package's ``_flapack`` attribute.  That import builds its own module
    over the same routine objects, so both share every LAPACK call.
    """
    global _lapack
    if _lapack is None:
        _lapack = sys.modules.get(_FLAPACK) or _load_flapack()
    return _lapack


def _load_flapack():
    import scipy  # cheap, and runs scipy's platform library set-up

    for folder in scipy.__path__:
        loaders = (ExtensionFileLoader, EXTENSION_SUFFIXES)
        spec = FileFinder(os.path.join(folder, "linalg"), loaders).find_spec(_FLAPACK)
        if spec is not None:
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(_FLAPACK, None)
            return module
    raise ImportError(f"scipy {scipy.__version__} has no LAPACK extension {_FLAPACK}")


def _all_finite(out: np.ndarray) -> bool:
    """Whether every entry of the vector ``out`` is finite.  A finite sum of
    squares says so at a third of the cost of ``np.isfinite``; only an
    overflowing or non-finite one takes the exact test."""
    return math.isfinite(out.dot(out)) or bool(np.isfinite(out).all())


class DenseLU:
    """LAPACK's dense LU (``dgetrf`` / ``dgetrs``) with the package's error type."""

    def __init__(self, mat: np.ndarray):
        lapack = _flapack()
        lu, piv, info = lapack.dgetrf(mat)
        # info > 0 is an exactly zero pivot: singular, whatever the right-hand side
        if info != 0 or not np.isfinite(lu).all():
            raise SingularJacobian(f"dense LU failed (getrf info {info}) or was non-finite")
        self._lu = (lu, piv)
        self._getrs = lapack.dgetrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side vector.  A finite solution whose sum
        of squares overflows emits numpy's overflow warning, outside
        ``dlss.solve``'s ``np.errstate``, but is returned."""
        out, info = self._getrs(*self._lu, rhs)
        if info != 0 or not _all_finite(out):
            raise SingularJacobian(f"dense solve failed (getrs info {info}) or was non-finite")
        return out


@lru_cache(maxsize=None)
def _band_layout(n: int, halfwidth: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The folded node order 0, n-1, 1, n-2, ..., each node's place in it,
    the width kl = ku of the folded band and the slots, read-only.  Nodes
    at cyclic distance d sit at most 2d places apart.  The slots are the
    flat column-major index, in the ``dgbtrf`` band storage of the folded
    matrix, of each entry of the (2 halfwidth + 1, n) diagonals array.
    Diagonals c and c +- n of a tiny grid share a slot."""
    node = np.arange(n)
    place = np.minimum(2 * node, 2 * (n - 1 - node) + 1)
    order = np.argsort(place)
    width = min(2 * halfwidth, n - 1)
    j = place[(node + np.arange(-halfwidth, halfwidth + 1)[:, None]) % n]
    # gbtrf keeps entry (i, j) of the folded band matrix, kl = ku = width,
    # at ab[2 width + i - j, j]: flat index 2 width + i - j + j ldab
    slots = (place - j + 2 * width + j * (3 * width + 1)).ravel()
    for part in (order, place, slots):
        part.setflags(write=False)
    return order, place, width, slots


class CyclicBandedLU:
    """Band LU of a periodic banded matrix given by its cyclic diagonals.

    Row c + halfwidth of ``diagonals``, shape (2 halfwidth + 1, n), holds
    the entries (i, (i + c) mod n), i = 0..n-1: not the matrix, which the
    shape check only tells apart when n != 2 halfwidth + 1.  Diagonals that
    land on one entry (n <= 2 halfwidth) add up.  Other shapes: ValueError.
    """

    def __init__(self, diagonals: np.ndarray, halfwidth: int):
        if halfwidth < 1:
            raise ValueError(f"halfwidth must be positive, got {halfwidth}")
        if diagonals.ndim != 2 or diagonals.shape[0] != 2 * halfwidth + 1:
            raise ValueError(
                f"diagonals need shape ({2 * halfwidth + 1}, n), got {diagonals.shape}"
            )
        n = diagonals.shape[1]
        self._order, self._place, width, slots = _band_layout(n, halfwidth)
        ab = np.bincount(
            slots, diagonals.ravel(), minlength=(3 * width + 1) * n
        ).reshape((3 * width + 1, n), order="F")
        lapack = _flapack()
        self._lu, self._piv, info = lapack.dgbtrf(ab, width, width, overwrite_ab=True)
        if info != 0 or not np.isfinite(self._lu).all():
            raise SingularJacobian(f"banded LU failed (gbtrf info {info}) or was non-finite")
        self._width = width
        self._gbtrs = lapack.dgbtrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side vector; overflow as in ``DenseLU.solve``."""
        folded, info = self._gbtrs(
            self._lu, self._width, self._width, rhs[self._order], self._piv, overwrite_b=True
        )
        if info != 0 or not _all_finite(folded):
            raise SingularJacobian(f"banded solve failed (gbtrs info {info}) or was non-finite")
        return folded[self._place]
