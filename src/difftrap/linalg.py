"""Exact linear algebra over rational function fields.

Rank, kernel and dependence witnesses work on matrices of
:class:`RationalElement` entries through one incremental row echelon form,
:class:`Echelon`.  Rows are kept sparse, as ``{column: nonzero entry}``; a
new row is reduced against the pivot rows kept so far in ascending column
order, and kept with its leading entry scaled to 1 when anything is left.
Elimination happens in the field, so entries are canonical reduced
fractions throughout.

The pivot columns (each column that is not in the span of the columns
before it) and the reduced kernel basis (1 at its free column, 0 at the
other free columns) are determined by the matrix alone, not by how it is
eliminated, so all certificates built from them are reproducible.

``kernel_mod_p`` is the small dense mod-p solver used by the bounded
annihilator oracle; the systems there have scalar entries, so numpy
row operations carry the elimination.
"""

import numpy as np

from .errors import BadParameterError, InternalError
from .rational import RationalElement


class FFMatrix:
    """A rectangular matrix of canonical RationalElement entries.

    ``ncols`` is taken from the rows unless given; pass it whenever the
    matrix may have no rows.
    """

    def __init__(self, p, rows, row_labels=None, col_labels=None, ncols=None):
        self.p = p
        self.rows = [list(r) for r in rows]
        widths = {len(r) for r in self.rows}
        if ncols is not None:
            widths.add(ncols)
        if len(widths) > 1:
            raise BadParameterError("ragged matrix")
        self.nrows = len(self.rows)
        self.ncols = widths.pop() if widths else 0
        self.row_labels = list(row_labels) if row_labels else None
        self.col_labels = list(col_labels) if col_labels else None

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        rows = [
            [self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)
        ]
        return FFMatrix(
            self.p,
            rows,
            row_labels=self.col_labels,
            col_labels=self.row_labels,
            ncols=self.nrows,
        )

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
        span.add_row(dict(enumerate(row)))
    return span


def rank(matrix):
    """Rank over the rational function field."""
    return _echelon(matrix).rank


def kernel(matrix):
    """Reduced basis of the right kernel; every vector re-verified."""
    basis = _echelon(matrix).kernel()
    for v in basis:
        _verify_in_kernel(matrix, v)
    return basis


def _verify_in_kernel(matrix, v):
    zero = RationalElement.zero(matrix.p)
    for row in matrix.rows:
        s = zero
        for e, x in zip(row, v):
            if e.is_zero() or x.is_zero():
                continue
            s = s + e * x
        if not s.is_zero():
            raise InternalError("kernel vector failed exact re-verification")


def dependence_witness(rows, p=None):
    """A nonzero combination annihilating the given coordinate rows, or None.

    The witness c satisfies sum_i c_i * rows_i = 0 exactly and is re-verified
    before being returned.
    """
    if not rows:
        return None
    if p is None:
        p = next(e.p for r in rows for e in r)
    span = Echelon(p, len(rows))
    for j in range(len(rows[0])):
        span.add_row({i: r[j] for i, r in enumerate(rows)})
    basis = span.kernel()
    if not basis:
        return None
    witness = basis[0]
    zero = RationalElement.zero(p)
    for j in range(len(rows[0])):
        s = zero
        for c, row in zip(witness, rows):
            if c.is_zero() or row[j].is_zero():
                continue
            s = s + c * row[j]
        if not s.is_zero():
            raise InternalError("dependence witness failed exact re-verification")
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
