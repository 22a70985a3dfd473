"""Small exact matrices and linear algebra over the ring/field protocol.

Every elimination is one Echelon: a Gauss-Jordan elimination of the columns
of a matrix, taken one column at a time, recorded once and replayed on any
number of further vectors.  A vector is a dense sequence (keys 0, 1, ...)
or a sparse dict {key: entry}; its keys name the rows, and a key may first
appear in a later vector.  Each independent vector records one step: its
pivot key, the inverse of its pivot and the (key, -factor) pairs that clear
its other entries.  Replaying the steps touches only nonzero entries, so
the work scales with the nonzeros, not with the matrix.  Pivots are units,
so the elimination is complete over a field and over a local ring such as
NilAlgebra, where a square matrix is invertible exactly when every column
takes a pivot.  Matrix.inverse and Matrix.det (one per factor of a product
ring), span membership, solutions, kernels and rref read one Echelon.

The pivot of a vector is the minimum-count rule of sparse elimination
(Markowitz 1957): of its unit entries outside the pivot keys, the one at the
key that the fewest vectors still to come touch, since each of those
vectors takes the step's clears as fill-in.  The counts exist only for the
vectors an Echelon is built with; a vector added later reads every count as
zero and so pivots on its first unit key.  No answer depends on the rule:
over a field the reduced echelon form is unique, over a local ring a vector
takes a unit pivot exactly when it is independent modulo the maximal ideal,
and Matrix.det signs its product by the order of the pivot keys.
"""

from __future__ import annotations

from collections import Counter

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

    def map(self, fn, new_ring=None) -> "Matrix":
        return Matrix(new_ring or self.ring, [[fn(e) for e in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix) or self.ring is not other.ring:
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        R = self.ring
        return all(
            R.eq(a, b) for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2)
        )

    def _echelon(self, what: str) -> "Echelon":
        if self.nrows != self.ncols:
            raise ValueError(f"{what} of a non-square matrix")
        return Echelon(self.ring, _columns(self.rows, self.ncols))

    def _factorwise(self, op) -> list:
        """op applied to the matrix of each factor of a product ring."""
        return [op(Matrix(F, [[e[i] for e in row] for row in self.rows]))
                for i, F in enumerate(self.ring.factors())]

    def det(self):
        """The determinant from one Echelon of the columns: the product of
        its pivots, signed by the order of their keys, and zero when a
        column is dependent.  Raises ValueError where a column has no unit
        pivot, which over a local ring needs a nonunit determinant.  Over a
        product of rings, the tuple of the factors' determinants."""
        R = self.ring
        if R.factors():
            return tuple(self._factorwise(Matrix.det))
        ech = self._echelon("determinant")
        if ech.dependent:
            return R.zero()
        keys = [p for p, _, _ in ech.steps]
        d = R.one()
        for _, inv, _ in ech.steps:
            d = R.mul(d, inv)
        d = R.inv(d)
        odd = sum(a > b for i, a in enumerate(keys) for b in keys[i + 1:]) % 2
        return R.neg(d) if odd else d

    def inverse(self) -> "Matrix":
        """The exact inverse: one Echelon of the columns and one solve per
        unit vector.  Raises ValueError when a column is dependent or takes
        no unit pivot.  Over a product of rings, factor by factor."""
        R = self.ring
        if R.factors():
            inverses = self._factorwise(Matrix.inverse)
            return Matrix(R, [zip(*rows) for rows in zip(*(m.rows for m in inverses))])
        ech = self._echelon("inverse")
        if ech.dependent:
            raise ValueError("matrix is not invertible (dependent column)")
        cols = [ech.solve({i: R.one()}) for i in range(self.nrows)]
        return Matrix(R, zip(*cols))

    def __str__(self):
        R = self.ring
        return "[" + "; ".join(", ".join(R.to_str(e) for e in row) for row in self.rows) + "]"

    def __repr__(self):
        return f"Matrix({self})"


class Echelon:
    """Gauss-Jordan elimination with unit pivots, recorded and replayed.

    The vectors added are the columns of a matrix whose rows are their
    keys.  add replays the recorded steps on a new vector: a unit entry
    left outside the pivot keys makes it independent, and it records one
    more step pivoting at one such unit: the one whose key the fewest of
    the vectors given to the constructor and not yet added touch, the
    first on a tie, so a vector added after construction pivots at its
    first unit key; a vector with no entry left outside the pivot keys is
    dependent, the entry at each pivot key is its coefficient on the vector
    of that step, and those coefficients are kept in dependent; a vector
    whose entries left outside the pivot keys are all nonunits raises
    ValueError.  Over a field the steps reduce every column to the reduced
    row echelon form, which is unique, so the choice of pivot key changes
    no answer.  contains and solve replay without adding."""

    def __init__(self, field, vectors=()):
        self.field = field
        self.steps: list[tuple] = []  # (pivot key, inverse of the pivot, [(key, -factor)])
        self.pivots: dict = {}  # pivot key -> index of the vector of its step
        self.dependent: dict[int, dict] = {}  # index -> {index of a pivot vector: coefficient}
        self.size = 0  # the number of vectors added
        vectors = [self._nonzero(vec) for vec in vectors]
        # key -> nonzero entries at it in the given vectors not yet added
        later = self.later = Counter(key for v in vectors for key in v)
        for v in vectors:
            for key in v:
                later[key] -= 1
            self._add(v)

    def _nonzero(self, vec) -> dict:
        is_zero = self.field.is_zero
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        return {key: x for key, x in items if not is_zero(x)}

    def _replay(self, v: dict) -> dict:
        """v, a dict of nonzero entries, reduced by the steps in place."""
        field = self.field
        mul, is_unit, is_zero = field.mul, field.is_unit, field.is_zero
        for p, inv, clears in self.steps:
            c = v.get(p)
            if c is None:
                continue
            c = v[p] = mul(inv, c)
            products = ((key, mul(f, c)) for key, f in clears)
            if not is_unit(c):
                # over a ring with zero divisors a product by a nonunit can
                # vanish, and accumulate takes nonzero terms only
                products = [(key, x) for key, x in products if not is_zero(x)]
            _terms.accumulate(v, products, field)
        return v

    def add(self, vec) -> bool:
        """Append vec; True iff it is independent of the vectors before it."""
        return self._add(self._nonzero(vec))

    def _add(self, v: dict) -> bool:
        """add for v, a dict of nonzero entries, which it reduces in place."""
        field = self.field
        self._replay(v)
        pivots, is_unit, later = self.pivots, field.is_unit, self.later
        p = fewest = None
        for key, x in v.items():
            if key in pivots:
                continue
            n = later.get(key, 0)
            if (p is None or n < fewest) and is_unit(x):
                p, fewest = key, n
                if not n:
                    break
        if p is None and any(key not in pivots for key in v):
            raise ValueError("no unit pivot")
        j = self.size
        self.size += 1
        if p is None:
            self.dependent[j] = {pivots[key]: x for key, x in v.items()}
            return False
        self.steps.append((p, field.inv(v[p]),
                           [(key, field.neg(x)) for key, x in v.items() if key != p]))
        self.pivots[p] = j
        return True

    def contains(self, vec) -> bool:
        """Is vec in the span of the vectors added so far?"""
        return all(key in self.pivots for key in self._replay(self._nonzero(vec)))

    def solve(self, vec):
        """The coefficients of vec on the vectors added so far, one per
        vector and zero at the dependent ones, or None when vec is outside
        their span."""
        v = self._replay(self._nonzero(vec))
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
