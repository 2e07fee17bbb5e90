"""Dense exact linear algebra over a FieldCtx.

A Matrix keeps its entries as FieldElem, which is what callers read and
write.  The arithmetic runs on the raw values underneath: ints mod p over
GF(p), Fractions over Q (never ints, so a Q entry always has a numerator
and a denominator).  rref, products and matvec unwrap the entries, skip
zeros, reduce mod p once per entry and wrap only what they return; so do
rank, kernel, solve and invert.  The raw routines (raw_zero, wrap,
rref_raw, kernel_raw, solve_raw) are shared with liealg, whose structure
constants are stored as raw values too, and with the isomorphism oracle;
rref_raw is the only elimination loop in the package.

Everything is small (dimensions stay below ~40), so the implementation
favours determinism and exactness over asymptotics: pivots are the first
nonzero entry in a column, free variables in solve() are set to 0.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MixedFields, Singular
from .field import FieldCtx, FieldElem


def raw_zero(field: FieldCtx):
    """The zero every raw accumulation starts from: 0, or Fraction(0) over Q."""
    return 0 if field.p else Fraction(0)


def wrap(field: FieldCtx, raw) -> list:
    """FieldElem list of reduced raw values; the zeros share one object."""
    zero = FieldElem(field, raw_zero(field))
    return [FieldElem(field, x) if x else zero for x in raw]


def rref_raw(field: FieldCtx, m, cols: int) -> list:
    """Reduce the rows m (lists of reduced raw values) in place to reduced
    row echelon form and return the pivot columns."""
    p = field.p
    rows = len(m)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for pr in range(r, rows):
            if m[pr][c]:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        if p:
            inv = pow(prow[c], -1, p)
            prow = [x * inv % p for x in prow]
        else:
            inv = 1 / prow[c]
            prow = [x * inv if x else x for x in prow]
        m[r] = prow
        # left of c the pivot row is zero, so only its nonzero tail matters
        nz = [j for j in range(c, cols) if prow[j]]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                row = m[i]
                if p:
                    for j in nz:
                        row[j] = (row[j] - f * prow[j]) % p
                else:
                    for j in nz:
                        row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
    return pivots


def kernel_raw(field: FieldCtx, m, cols: int) -> list:
    """Null-space basis of the raw rows m (consumed), one vector per free
    column with a 1 there and free variables 0."""
    p = field.p
    pivots = rref_raw(field, m, cols)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [raw_zero(field)] * cols
        v[fc] = raw_zero(field) + 1
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc] % p if p else -m[r][fc]
        basis.append(v)
    return basis


def solve_raw(field: FieldCtx, m, b, cols: int):
    """A particular solution x of m x = b on raw rows (free variables 0),
    or None when the system is inconsistent."""
    m = [[*row, x] for row, x in zip(m, b)]
    pivots = rref_raw(field, m, cols + 1)
    if cols in pivots:
        return None
    x = [raw_zero(field)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][cols]
    return x


class Matrix:
    """Immutable-by-convention dense matrix of FieldElem entries."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldCtx, data, cols: int | None = None):
        self.field = field
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else (cols or 0)
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, field: FieldCtx, rows) -> "Matrix":
        return cls(field, [[field.el(x) for x in row] for row in rows])

    @classmethod
    def identity(cls, field: FieldCtx, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: FieldCtx, rows: int, cols: int) -> "Matrix":
        zero = field.zero()
        return cls(field, [[zero] * cols for _ in range(rows)], cols=cols)

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def row(self, i):
        return tuple(self.data[i])

    def col(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{body}]"

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise MixedFields("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(
            self.field,
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(
            self.field,
            [
                [self.data[i][j] - other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-x for x in row] for row in self.data])

    def scale(self, c: FieldElem) -> "Matrix":
        return Matrix(self.field, [[c * x for x in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        p = self.field.p
        zero = raw_zero(self.field)
        bcols = [[row[j].v for row in other.data] for j in range(other.cols)]
        out = []
        for arow in self.data:
            nz = [(k, a.v) for k, a in enumerate(arow) if a.v]
            orow = []
            for col in bcols:
                s = zero
                for k, a in nz:
                    b = col[k]
                    if b:
                        s += a * b
                orow.append(s % p if p else s)
            out.append(wrap(self.field, orow))
        return Matrix(self.field, out, cols=other.cols)

    def matvec(self, v):
        """Apply to a coordinate vector (tuple of FieldElem)."""
        p = self.field.p
        zero = raw_zero(self.field)
        x = [e.v for e in v[: self.cols]]
        nz = [k for k, e in enumerate(x) if e]
        out = []
        for row in self.data:
            s = zero
            for k in nz:
                a = row[k].v
                if a:
                    s += a * x[k]
            out.append(s % p if p else s)
        return tuple(wrap(self.field, out))

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def augment(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix(self.field, [a + b for a, b in zip(self.data, other.data)])

    def is_zero(self) -> bool:
        return all(not x.v for row in self.data for x in row)

    # -- elimination -----------------------------------------------------

    def _raw(self) -> list:
        return [[x.v for x in row] for row in self.data]

    def rref(self):
        """Reduced row echelon form: (R, pivot column indices, rank)."""
        m = self._raw()
        pivots = rref_raw(self.field, m, self.cols)
        R = Matrix(self.field, [wrap(self.field, row) for row in m], cols=self.cols)
        return R, tuple(pivots), len(pivots)

    def rank(self) -> int:
        return len(rref_raw(self.field, self._raw(), self.cols))

    def kernel(self):
        """Basis of the null space, as a list of coordinate vectors."""
        return [tuple(wrap(self.field, v)) for v in kernel_raw(self.field, self._raw(), self.cols)]

    def solve(self, b):
        """A particular solution of M x = b, or None when inconsistent.

        Free variables are set to 0, so the output is deterministic.
        """
        if len(b) != self.rows:
            raise ValueError("row count mismatch")
        x = solve_raw(self.field, self._raw(), [e.v for e in b], self.cols)
        return None if x is None else tuple(wrap(self.field, x))

    def invert(self) -> "Matrix":
        if self.rows != self.cols:
            raise Singular("only square matrices can be inverted")
        n = self.rows
        one = raw_zero(self.field) + 1
        m = [row + [one if j == i else raw_zero(self.field) for j in range(n)]
             for i, row in enumerate(self._raw())]
        pivots = rref_raw(self.field, m, 2 * n)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise Singular("matrix is singular")
        return Matrix(self.field, [wrap(self.field, row[n:]) for row in m])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def block_diag(self, other: "Matrix") -> "Matrix":
        self._check(other)
        zero = self.field.zero()
        out = []
        for row in self.data:
            out.append(row + [zero] * other.cols)
        for row in other.data:
            out.append([zero] * self.cols + row)
        return Matrix(self.field, out)


def is_zero_vec(a) -> bool:
    return all(not x.v for x in a)
