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
Newton matrix of the tensor2d p = 3 benchmark (the same n and kd) dpbtrs
takes 40 us in upper storage against 61 us in lower, and dpbtrf 460 us
against 400 us; that run solves six times per factorization, so its band
solver time falls by about a tenth.  The solutions agree to 1e-15
relative.  A matrix that is not positive definite fails the
factorization (info > 0), which raises FactorError.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import NumericalError


class FactorError(NumericalError):
    """A band matrix that is not positive definite."""


def lower_entries(matrix):
    """Stored entries of a sparse matrix on and below the diagonal,
    duplicates summed, as (data, row, col)."""
    coo = sp.coo_array(matrix)
    coo.sum_duplicates()
    lower = coo.row >= coo.col
    return coo.data[lower], coo.row[lower].astype(np.intp), coo.col[lower].astype(np.intp)


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
