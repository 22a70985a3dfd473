"""Small exact matrices and linear solving over the ring/field protocol.

Row reduction assumes the entry domain is a field (every nonzero pivot is
invertible).  Matrix inversion also works over commutative rings via the
adjugate, provided the determinant is a unit; an explicit inverse certifies
invertibility.

rref touches only nonzero entries: the pivot row is scaled on its nonzero
columns, and each elimination updates only those columns of the target row
(a - f*0 = a exactly).  Its field operations therefore scale with pivots
times the nonzeros of each pivot row, not with the full matrix; a zero-test
scan of each column remains.

Echelon is an incremental row echelon over a field for repeated span
membership: rows are sparse dicts {column: entry}, each reduced against the
rows before it and scaled to a unit pivot.  add(vec) reports whether vec was
independent (and keeps it if so); contains(vec) tests membership without
changing the span.  A column may be any hashable key, so vectors indexed by
coordinate labels need no common dense column order.
"""

from __future__ import annotations


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
        if self.ring != other.ring or self.ncols != other.nrows:
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
        if self.ring != other.ring or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shape/ring mismatch")
        R = self.ring
        return Matrix(R, [[R.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def map(self, fn, new_ring=None) -> "Matrix":
        return Matrix(new_ring or self.ring, [[fn(e) for e in row] for row in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, [list(col) for col in zip(*self.rows)])

    def __eq__(self, other):
        if not isinstance(other, Matrix) or self.ring != other.ring:
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


def rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over a field; returns (rows, pivot columns)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    is_zero, mul, sub = field.is_zero, field.mul, field.sub
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if not is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        inv = field.inv(prow[c])
        # rows at and below r vanish left of c, so the pivot row does too
        nz = [j for j in range(c, nc) if not is_zero(prow[j])]
        for j in nz:
            prow[j] = mul(inv, prow[j])
        for i in range(nr):
            row = m[i]
            if i != r and not is_zero(row[c]):
                f = row[c]
                for j in nz:
                    row[j] = sub(row[j], mul(f, prow[j]))
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


class Echelon:
    """Incremental row echelon over a field for span membership.

    Rows are sparse dicts {column: entry} with a unit pivot; every row is
    zero at the pivots of the rows added before it, so one pass in insertion
    order reduces a vector to zero exactly when it lies in the span.
    Vectors are given as dense sequences (columns 0, 1, ...) or as dicts
    from column keys to entries."""

    def __init__(self, field):
        self.field = field
        self.rows: list[tuple[object, dict]] = []  # (pivot column, row)

    def _reduce(self, vec) -> dict:
        field = self.field
        is_zero, mul, sub = field.is_zero, field.mul, field.sub
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {j: x for j, x in items if not is_zero(x)}
        for p, row in self.rows:
            f = v.pop(p, None)
            if f is None:
                continue
            # the pivot entry is one, so v[p] - f*1 = 0 exactly
            for j, b in row.items():
                if j == p:
                    continue
                a = v.get(j)
                x = field.neg(mul(f, b)) if a is None else sub(a, mul(f, b))
                if is_zero(x):
                    v.pop(j, None)
                else:
                    v[j] = x
        return v

    def contains(self, vec) -> bool:
        """Is vec in the span of the rows added so far?"""
        return not self._reduce(vec)

    def add(self, vec) -> bool:
        """Add vec to the span; True iff it was independent of the rows."""
        v = self._reduce(vec)
        if not v:
            return False
        p = next(iter(v))
        inv = self.field.inv(v[p])
        self.rows.append((p, {j: self.field.mul(inv, x) for j, x in v.items()}))
        return True


def kernel_basis(rows: list[list], field, ncols: int | None = None) -> list[list]:
    """Basis of {x : rows * x = 0} over a field, echelonized, deterministic.

    Free coordinates are set to 1 one at a time in ascending column order."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        rows = [[field.zero()] * ncols]
    m, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(m[r][fc])
        basis.append(v)
    return basis


def solve_linear(rows: list[list], rhs: list, field):
    """One solution of rows * x = rhs over a field, or None if inconsistent."""
    if not rows:
        return [] if all(field.is_zero(b) for b in rhs) else None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = rref(aug, field)
    nc = len(rows[0])
    if nc in pivots:
        return None
    x = [field.zero()] * nc
    for r, pc in enumerate(pivots):
        x[pc] = m[r][nc]
    return x


def restriction_kernel(elems_by_column: list[list], domain, field) -> list[list]:
    """Kernel over the scalar field of a map given by columns of domain values.

    Each column is a list of elements of `domain` (a ring with a
    scalar_coordinates method, or the scalar field itself); the result is an
    echelonized basis of the scalar vectors x with sum_j x_j * column_j = 0."""
    ncols = len(elems_by_column)
    if ncols == 0:
        return []
    height = len(elems_by_column[0])
    rows: list[list] = []
    for i in range(height):
        slice_ = [col[i] for col in elems_by_column]
        if hasattr(domain, "scalar_coordinates"):
            _, coord_rows = domain.scalar_coordinates(slice_)
            # coord_rows: one row per element; transpose to equations
            for k in range(len(coord_rows[0]) if coord_rows else 0):
                rows.append([coord_rows[j][k] for j in range(ncols)])
        else:
            rows.append(list(slice_))
    return kernel_basis(rows, field, ncols)
