"""Symmetric band matrices: the one direct solver of the package.

A BandPattern is fixed by the positions (row, col), row >= col, of a
symmetric matrix's entries on and below the diagonal; kd = max(row - col) is
its half-bandwidth (1 on interval and radial grids, resolution - 1 on tensor
grids in natural order).  Values go into one of two column-major LAPACK band
storages: symmetric lower, entry (i, j), i >= j, at row i - j of a
(kd + 1, n) array, factored by band Cholesky (dpbtrf) for a positive
definite matrix; or general, entry (i, j) at row 2 kd + i - j of a
(3 kd + 1, n) array whose top kd rows hold the fill-in, factored by band LU
with partial pivoting (dgbtrf) for any other.  A factorization that fails
(info > 0) raises FactorError.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import NumericalError


class FactorError(NumericalError):
    """A band matrix that is singular, or not positive definite for Cholesky."""


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
        self.kd = kd = int((row - col).max())
        self.sym_shape = (kd + 1, n)
        self.band_shape = (3 * kd + 1, n)
        self.sym_pos = col * (kd + 1) + row - col
        # each stored entry (i, j) and its mirror (j, i)
        self.band_pos = col * self.band_shape[0] + 2 * kd + row - col
        self.mirror_pos = row * self.band_shape[0] + 2 * kd + col - row

    def fill(self, data, diag, symmetric):
        """The matrix with lower entries data plus diag on the diagonal, in
        symmetric storage if symmetric is true, else in general storage."""
        shape = self.sym_shape if symmetric else self.band_shape
        band = np.zeros(shape[0] * shape[1])
        if symmetric:
            band[self.sym_pos] = data
        else:
            band[self.band_pos] = data
            band[self.mirror_pos] = data
        band = band.reshape(shape, order="F")
        band[0 if symmetric else 2 * self.kd] += diag
        return band

    def factor(self, band):
        """Factor a fill() result, overwriting it: band Cholesky for the
        symmetric storage, band LU with partial pivoting for the general one."""
        if len(band) == self.kd + 1:
            chol, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
            factor, failure = (chol, None), "not positive definite at"
        else:
            lu, piv, info = lapack.dgbtrf(band, self.kd, self.kd, overwrite_ab=True)
            factor, failure = (lu, piv), "zero pivot in"
        if info > 0:
            raise FactorError(f"linear solve failed: {failure} column {info - 1}")
        return factor

    def solve(self, factor, rhs):
        """Solve with a factor() result."""
        band, piv = factor
        if piv is None:
            x, _info = lapack.dpbtrs(band, rhs, lower=1)
        else:
            x, _info = lapack.dgbtrs(band, self.kd, self.kd, rhs, piv)
        return x
