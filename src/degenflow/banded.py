"""Symmetric band matrices: the one direct solver of the package.

A BandPattern is fixed by the positions (row, col), row >= col, of a
symmetric matrix's entries on and below the diagonal; kd = max(row - col) is
its half-bandwidth.  It is 1 on interval and radial grids (the Newton
systems and the eigensolver's preconditioner).  On tensor grids in natural
order it is resolution - 1 for the 5-point pattern of the normal difference
(the p > 2 Newton systems), and 2 (resolution - 1) + 1 for the full p = 2
Hessian of the p = 2 Newton systems, whose tangential term couples diagonal
neighbours.  Values go into LAPACK's column-major symmetric upper band
storage: entry (i, j), i >= j, is entry (j, i) of the upper triangle, at row
kd + j - i of column i of a (kd + 1, n) array, so the diagonal is row kd.
They are factored by band Cholesky (dpbtrf) and solved with the factor
(dpbtrs).  Upper storage, not lower, for speed: a solve with a lower factor
runs the lower-transpose triangular band solve (dtbsv), the slowest of its
four variants on single-threaded OpenBLAS (64 us against 35-45 us through
scipy.linalg.blas at n = 961, kd = 31, on a 2-core x86-64 host).  On the
ROS2 matrix of the tensor2d p = 3 benchmark (the same n and kd), the one
factorization and two solves of a ROS2 step took 295-297 us in upper
storage against 321-325 us in lower, upper the faster in 30 of 30
interleaved timings; the solutions agree to 1e-15 relative.  A matrix
that is not positive definite fails the factorization (info > 0), which
raises FactorError.

The compiled kernels are three of scipy's extension modules, loaded by
file path: LAPACK's (lapack, linalg._flapack) and the CSR products of the
face operators (sparsetools, sparse._sparsetools), once at import, and the
type-I sine transform of the tensor eigensolver's preconditioner
(fft._pocketfft.pypocketfft), on its first use.  That imports none of
scipy.linalg, scipy.sparse and scipy.fft, whose Python layers took longer
to import than numpy itself (about 0.2 s of every start-up on that host).
"""

import importlib.machinery
import importlib.util
import os

import numpy as np

from .errors import NumericalError


def scipy_extension(sub, name):
    """scipy's compiled module scipy.<sub>.<name>, for a dotted subpackage
    sub, loaded from its file in scipy's directory without importing
    scipy.<sub>, or by the normal import when that fails."""
    try:
        folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                              *sub.split("."))
        paths = (os.path.join(folder, name + s) for s in importlib.machinery.EXTENSION_SUFFIXES)
        path = next(path for path in paths if os.path.exists(path))
        spec = importlib.util.spec_from_file_location(f"scipy.{sub}.{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except (AttributeError, TypeError, StopIteration, ImportError, OSError):
        return importlib.import_module(f"scipy.{sub}.{name}")


lapack = scipy_extension("linalg", "_flapack")
sparsetools = scipy_extension("sparse", "_sparsetools")


def _spla_on_access(name):
    """scipy.sparse.linalg as the solver modules' spla, imported when read:
    no solver uses it, but perfbench/tracer.py swaps that name."""
    if name == "spla":
        return importlib.import_module("scipy.sparse.linalg")
    raise AttributeError(name)


class FactorError(NumericalError):
    """A band matrix that is not positive definite."""


class BandPattern:
    """Band storage positions of the lower entries (row, col) of a symmetric
    n x n matrix, with the fill, factorization and solve that use them."""

    def __init__(self, row, col, n):
        self.row, self.col = row, col
        self.kd = kd = int((row - col).max())
        self.shape = (kd + 1, n)
        self.pos = row * (kd + 1) + kd + col - row

    def fill(self, data, diag):
        """The band array of the matrix with lower entries data plus diag on
        the diagonal."""
        band = np.zeros(self.shape[0] * self.shape[1])
        band[self.pos] = data
        band = band.reshape(self.shape, order="F")
        band[self.kd] += diag
        return band

    def factor(self, band):
        """Band Cholesky factor of a fill() result, overwriting it."""
        chol, info = lapack.dpbtrf(band, lower=0, overwrite_ab=1)
        if info > 0:
            raise FactorError(f"linear solve failed: not positive definite at column {info - 1}")
        return chol

    def solve(self, factor, rhs):
        """Solve with a factor() result."""
        x, _info = lapack.dpbtrs(factor, rhs, lower=0)
        return x
