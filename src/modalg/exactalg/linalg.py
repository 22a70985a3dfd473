"""Small exact matrices and linear algebra over the ring/field protocol.

Matrix.det expands cofactors and Matrix.inverse builds the adjugate, so both
also work over commutative rings; the inverse exists when the determinant
is a unit, and an explicit inverse certifies invertibility.

Every elimination over a field is one Echelon: a Gauss-Jordan elimination
of the columns of a matrix, taken one column at a time, recorded once and
replayed on any number of further vectors.  A vector is a dense sequence
(keys 0, 1, ...) or a sparse dict {key: entry}; its keys name the rows, and
a key may first appear in a later vector.  Each independent vector records
one step: its pivot key, the inverse of its pivot and the (key, -factor)
pairs that clear its other entries.  Replaying the steps touches only
nonzero entries, so the work scales with the nonzeros, not with the matrix.
Span membership, the solution of a right-hand side and the relation of each
dependent vector are read off the replay.  kernel_basis, solve_linear and
rref are short reads of one Echelon over the columns of a dense matrix.
"""

from __future__ import annotations

from . import terms as _terms


class Matrix:
    """Rectangular matrix with entries in a common ring context."""

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        if self.rows and any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, ring, n: int) -> "Matrix":
        return cls(ring, [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ring is not other.ring or self.ncols != other.nrows:
            raise ValueError("matrix shape/ring mismatch")
        R = self.ring
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                s = R.zero()
                for k in range(self.ncols):
                    s = R.add(s, R.mul(self.rows[i][k], other.rows[k][j]))
                row.append(s)
            out.append(row)
        return Matrix(R, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.ring is not other.ring or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shape/ring mismatch")
        R = self.ring
        return Matrix(R, [[R.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def map(self, fn, new_ring=None) -> "Matrix":
        return Matrix(new_ring or self.ring, [[fn(e) for e in row] for row in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, [list(col) for col in zip(*self.rows)])

    def __eq__(self, other):
        if not isinstance(other, Matrix) or self.ring is not other.ring:
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        R = self.ring
        return all(
            R.eq(a, b) for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2)
        )

    def det(self):
        """Determinant by cofactor expansion (square, small sizes)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        R = self.ring
        n = self.nrows
        if n == 0:
            return R.one()
        if n == 1:
            return self.rows[0][0]
        d = R.zero()
        for j in range(n):
            c = self.rows[0][j]
            if R.is_zero(c):
                continue
            minor = Matrix(R, [[self.rows[i][k] for k in range(n) if k != j] for i in range(1, n)])
            t = R.mul(c, minor.det())
            d = R.add(d, t if j % 2 == 0 else R.neg(t))
        return d

    def inverse(self) -> "Matrix":
        """Exact inverse via the adjugate; raises ValueError when the
        determinant is not a unit.  The result certifies itself:
        self * inverse == identity by construction of the adjugate."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        R = self.ring
        n = self.nrows
        d = self.det()
        if not R.is_unit(d):
            raise ValueError("matrix is not invertible (determinant is not a unit)")
        dinv = R.inv(d)
        if n == 0:
            return Matrix(R, [])
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = Matrix(
                    R,
                    [[self.rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i],
                )
                cof = minor.det()
                if (i + j) % 2 == 1:
                    cof = R.neg(cof)
                out[j][i] = R.mul(cof, dinv)
        inv = Matrix(R, out)
        if not (self * inv) == Matrix.identity(R, n):
            raise ValueError("inverse certification failed")
        return inv

    def __str__(self):
        R = self.ring
        return "[" + "; ".join(", ".join(R.to_str(e) for e in row) for row in self.rows) + "]"

    def __repr__(self):
        return f"Matrix({self})"


class Echelon:
    """Gauss-Jordan elimination over a field, recorded and replayed.

    The vectors added are the columns of a matrix whose rows are their
    keys.  add replays the recorded steps on a new vector: a nonzero entry
    left outside the pivot keys makes it independent, and it records one
    more step with that key as its pivot; otherwise the entry at each pivot
    key is its coefficient on the vector of that step, and those
    coefficients are kept in dependent.  The steps reduce every column to
    the reduced row echelon form, which is unique, so the choice of pivot
    key changes no answer.  contains and solve replay without adding."""

    def __init__(self, field, vectors=()):
        self.field = field
        self.steps: list[tuple] = []  # (pivot key, inverse of the pivot, [(key, -factor)])
        self.pivots: dict = {}  # pivot key -> index of the vector of its step
        self.dependent: dict[int, dict] = {}  # index -> {index of a pivot vector: coefficient}
        self.size = 0  # the number of vectors added
        for vec in vectors:
            self.add(vec)

    def _replay(self, vec) -> dict:
        """vec reduced by the steps, as a dict of its nonzero entries."""
        field = self.field
        mul = field.mul
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {key: x for key, x in items if not field.is_zero(x)}
        for p, inv, clears in self.steps:
            c = v.get(p)
            if c is None:
                continue
            c = v[p] = mul(inv, c)
            _terms.accumulate(v, ((key, mul(f, c)) for key, f in clears), field)
        return v

    def add(self, vec) -> bool:
        """Append vec; True iff it is independent of the vectors before it."""
        field = self.field
        v = self._replay(vec)
        j = self.size
        self.size += 1
        p = next((key for key in v if key not in self.pivots), None)
        if p is None:
            self.dependent[j] = {self.pivots[key]: x for key, x in v.items()}
            return False
        self.steps.append((p, field.inv(v[p]),
                           [(key, field.neg(x)) for key, x in v.items() if key != p]))
        self.pivots[p] = j
        return True

    def contains(self, vec) -> bool:
        """Is vec in the span of the vectors added so far?"""
        return all(key in self.pivots for key in self._replay(vec))

    def solve(self, vec):
        """The coefficients of vec on the vectors added so far, one per
        vector and zero at the dependent ones, or None when vec is outside
        their span."""
        v = self._replay(vec)
        if any(key not in self.pivots for key in v):
            return None
        x = [self.field.zero()] * self.size
        for key, c in v.items():
            x[self.pivots[key]] = c
        return x

    def relation(self, j: int) -> dict:
        """The relation of the dependent vector j as {index: coefficient},
        in index order: j with coefficient one, minus its coefficients on
        the pivot vectors before it."""
        field = self.field
        rel = {i: field.neg(c) for i, c in self.dependent[j].items()}
        rel[j] = field.one()
        return dict(sorted(rel.items()))


def _columns(rows: list[list], ncols: int):
    return ([row[c] for row in rows] for c in range(ncols))


def rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over a field; returns (rows, pivot columns)."""
    ncols = len(rows[0]) if rows else 0
    ech = Echelon(field, _columns(rows, ncols))
    pivots = list(ech.pivots.values())
    m = [[field.zero()] * ncols for _ in rows]
    row_of = {}
    for r, pc in enumerate(pivots):
        m[r][pc] = field.one()
        row_of[pc] = r
    for fc, coeffs in ech.dependent.items():
        for pc, c in coeffs.items():
            m[row_of[pc]][fc] = c
    return m, pivots


def kernel_basis(rows: list[list], field, ncols: int | None = None) -> list[list]:
    """Basis of {x : rows * x = 0} over a field, echelonized, deterministic.

    Free coordinates are set to 1 one at a time in ascending column order."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    ech = Echelon(field, _columns(rows, ncols))
    basis = []
    for fc in ech.dependent:
        rel = ech.relation(fc)
        basis.append([rel.get(c, field.zero()) for c in range(ncols)])
    return basis


def solve_linear(rows: list[list], rhs: list, field):
    """One solution of rows * x = rhs over a field, or None if inconsistent;
    the free coordinates are zero."""
    if not rows:
        return [] if all(field.is_zero(b) for b in rhs) else None
    return Echelon(field, _columns(rows, len(rows[0]))).solve(rhs)


def restriction_kernel(elems_by_column: list[list], domain, field) -> list[list]:
    """Kernel over the scalar field of a map given by columns of domain values.

    Each column is a list of elements of the context `domain`; each row of
    elements is expanded into equations over the scalars by
    domain.scalar_coordinates.  The result is an echelonized basis of the
    scalar vectors x with sum_j x_j * column_j = 0."""
    ncols = len(elems_by_column)
    if ncols == 0:
        return []
    height = len(elems_by_column[0])
    rows: list[list] = []
    for i in range(height):
        _, coord_rows = domain.scalar_coordinates([col[i] for col in elems_by_column])
        # coord_rows: one row per element; transpose to equations
        rows.extend(list(eq) for eq in zip(*coord_rows))
    return kernel_basis(rows, field, ncols)
