"""Exact linear algebra over rational function fields.

Matrices are :class:`FFMatrix` objects, stored by sparse rows: each row is a
``{column: entry}`` dict of :class:`RationalElement` entries, and a column a
row leaves out holds zero there.  Rank, kernel and dependence witnesses
work through one incremental row echelon form, :class:`Echelon`, which
takes the same rows: a new row is reduced against the pivot rows kept so
far in ascending column order, and kept with its leading entry scaled to 1
when anything is left.  Elimination happens in the field, so entries are
canonical reduced fractions throughout.

The pivot columns (each column that is not in the span of the columns
before it) and the reduced kernel basis (1 at its free column, 0 at the
other free columns) are determined by the matrix alone, not by how it is
eliminated, so all certificates built from them are reproducible.  Kernel
vectors are dense lists, one entry per column.

``kernel_mod_p`` is the small dense mod-p solver used by the bounded
annihilator oracle; the systems there have scalar entries, so numpy
row operations carry the elimination.
"""

import numpy as np

from .errors import BadParameterError, InternalError
from .rational import RationalElement


class FFMatrix:
    """``nrows`` sparse ``{column: entry}`` rows over ``ncols`` columns.

    Columns are sortable keys and ``ncols`` counts them; ``kernel`` needs
    them to be ``0..ncols-1``.
    """

    def __init__(self, p, rows, ncols):
        self.p = p
        self.rows = list(rows)
        self.nrows = len(self.rows)
        self.ncols = ncols

    def __repr__(self):
        return f"FFMatrix({self.nrows}x{self.ncols} over F_{self.p})"


class Echelon:
    """Row echelon form over the rational function field, grown row by row.

    Columns are sortable keys; ``kernel`` needs them to be ``0..ncols-1``.
    Each kept row is stored by its pivot (leading) column, without the
    implied leading 1, and has no entry at any column before its pivot.
    """

    def __init__(self, p, ncols=0):
        self.p = p
        self.ncols = ncols
        self._tails = {}

    @property
    def rank(self):
        return len(self._tails)

    def add_row(self, row):
        """Reduce ``row`` (``{column: entry}``) against the pivots and keep
        what is left; returns whether the rank went up."""
        row = {c: e for c, e in row.items() if not e.is_zero()}
        while True:
            hit = [c for c in row if c in self._tails]
            if not hit:
                break
            c = min(hit)
            _subtract(row, row.pop(c), self._tails[c])
        if not row:
            return False
        lead = min(row)
        inv = row.pop(lead).inverse()
        self._tails[lead] = {j: e * inv for j, e in row.items()}
        return True

    def kernel(self):
        """Basis of the right kernel, one vector per free column, with 1 at
        that column and 0 at the other free columns."""
        zero = RationalElement.zero(self.p)
        one = RationalElement.one(self.p)
        reduced = {}
        for c in sorted(self._tails, reverse=True):
            tail = dict(self._tails[c])
            for j in [j for j in tail if j in reduced]:
                _subtract(tail, tail.pop(j), reduced[j])
            reduced[c] = tail
        basis = []
        for f in range(self.ncols):
            if f in reduced:
                continue
            v = [zero] * self.ncols
            v[f] = one
            for c, tail in reduced.items():
                if f in tail:
                    v[c] = -tail[f]
            basis.append(v)
        return basis


def _subtract(row, x, other):
    """row -= x * other, in place, keeping only nonzero entries."""
    for j, e in other.items():
        y = row[j] - x * e if j in row else -(x * e)
        if y.is_zero():
            del row[j]
        else:
            row[j] = y


def _echelon(matrix):
    span = Echelon(matrix.p, matrix.ncols)
    for row in matrix.rows:
        span.add_row(row)
    return span


def rank(matrix):
    """Rank over the rational function field."""
    return _echelon(matrix).rank


def kernel(matrix):
    """Reduced basis of the right kernel; every vector re-verified."""
    basis = _echelon(matrix).kernel()
    for v in basis:
        _check_annihilates(matrix.p, matrix.rows, v, "kernel vector")
    return basis


def _check_annihilates(p, rows, v, what):
    """Raise unless every sparse row times the dense vector v is zero."""
    zero = RationalElement.zero(p)
    for row in rows:
        s = zero
        for j, e in row.items():
            if not v[j].is_zero():
                s = s + e * v[j]
        if not s.is_zero():
            raise InternalError(f"{what} failed exact re-verification")


def dependence_witness(matrix):
    """A nonzero combination c of the rows with sum_i c_i * rows_i = 0, or
    None when the rows are independent.

    The witness is the first reduced kernel vector of the transpose, and is
    re-verified before being returned.
    """
    by_column = {}
    for i, row in enumerate(matrix.rows):
        for j, e in row.items():
            by_column.setdefault(j, {})[i] = e
    columns = [by_column[j] for j in sorted(by_column)]
    span = Echelon(matrix.p, matrix.nrows)
    for column in columns:
        span.add_row(column)
    basis = span.kernel()
    if not basis:
        return None
    witness = basis[0]
    _check_annihilates(matrix.p, columns, witness, "dependence witness")
    return witness


# -- dense scalar systems mod p ------------------------------------------


def kernel_mod_p(matrix, p):
    """Kernel basis of an integer matrix mod p (rows x cols, numpy or lists).

    Returns a list of length-ncols numpy vectors with entries in [0, p).
    Echelonized the same way as the symbolic kernel: one vector per free
    column, 1 at that column.
    """
    a = np.array(matrix, dtype=np.int64) % p
    if a.ndim != 2:
        raise BadParameterError("matrix must be two-dimensional")
    nrows, ncols = a.shape
    r = 0
    pivot_cols = []
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivot_cols.append(c)
        r += 1
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = np.zeros(ncols, dtype=np.int64)
        v[fc] = 1
        for row_idx, pc in enumerate(pivot_cols):
            v[pc] = (-a[row_idx, fc]) % p
        basis.append(v)
    return basis
