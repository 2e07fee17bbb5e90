"""Lie algebras given by structure constants, and their structural maps.

A LieAlgebra stores its structure constants once, as raw values: ints
mod p over GF(p), Fractions over Q.  The table is sparse: one entry per
pair i < j with a nonzero bracket, holding the nonzero (k, c_ij^k) in
increasing k; the other brackets follow by antisymmetry.  bracket, the
Jacobi check, the lower central series, the centre and the homomorphism
test run on the raw values and wrap into FieldElem only what they return.
A Subspace keeps its reduced row echelon basis once, as raw rows, which
makes equality and membership tests canonical; `basis` boxes the rows on
access.  Subspace.complement is the package's one greedy complement: the
abelian summand and the core basis here, the H^2 representatives in
cohomology and every complement and coset choice of the oracle.  All
objects are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import MixedFields, NotAnIdeal, NotAnAutomorphism
from .field import FieldCtx, FieldElem
from .linalg import Matrix, kernel_raw, raw_zero, rref_raw, wrap


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple  # 1-based basis indices
    defect: tuple  # coordinates of the Jacobi sum

    def __str__(self):
        i, j, k = self.triple
        return f"Jacobi fails on (x{i}, x{j}, x{k}): defect {list(self.defect)}"


class LieAlgebra:
    """Structure-constant Lie algebra over an exact field."""

    __slots__ = ("field", "dim", "_sc", "_cache")

    def __init__(self, field: FieldCtx, dim: int, tab):
        # tab[i][j] for i < j is the coordinate vector of [x_i, x_j]
        sc = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                terms = tuple((k, c.v) for k, c in enumerate(tab[i][j]) if c.v)
                if terms:
                    sc[(i, j)] = terms
        self._set(field, dim, sc)

    def _set(self, field: FieldCtx, dim: int, sc: dict):
        self.field = field
        self.dim = dim
        self._sc = sc  # {(i, j): ((k, c_ij^k), ...)}, 0-based, i < j
        self._cache = {}

    @classmethod
    def _from_sc(cls, field: FieldCtx, dim: int, sc: dict) -> "LieAlgebra":
        L = cls.__new__(cls)
        L._set(field, dim, sc)
        return L

    @classmethod
    def from_table(cls, field: FieldCtx, dim: int, brackets: dict) -> "LieAlgebra":
        """Build from {(i, j): {k: coeff}} with 1-based indices, i < j."""
        sc = {}
        for (i, j), comps in brackets.items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bad bracket indices ({i}, {j})")
            terms = []
            for k, c in sorted(comps.items()):
                if not 1 <= k <= dim:
                    raise ValueError(f"bad component index {k}")
                v = field.el(c).v
                if v:
                    terms.append((k - 1, v))
            if terms:
                sc[(i - 1, j - 1)] = tuple(terms)
        return cls._from_sc(field, dim, sc)

    @classmethod
    def abelian(cls, field: FieldCtx, dim: int) -> "LieAlgebra":
        return cls._from_sc(field, dim, {})

    def _ad(self) -> list:
        """ad[i][j]: the terms of [x_i, x_j] for every i, j, signed."""
        n, p = self.dim, self.field.p
        ad = [[()] * n for _ in range(n)]
        for (i, j), terms in self._sc.items():
            ad[i][j] = terms
            ad[j][i] = tuple((k, -c % p if p else -c) for k, c in terms)
        return ad

    def _row(self, i: int, j: int) -> list:
        """[x_i, x_j] as a raw coordinate list."""
        p = self.field.p
        out = [raw_zero(self.field)] * self.dim
        if i < j:
            for k, c in self._sc.get((i, j), ()):
                out[k] = c
        elif i > j:
            for k, c in self._sc.get((j, i), ()):
                out[k] = -c % p if p else -c
        return out

    def _apply_ad(self, ad_i, b) -> list:
        """ad(x_i) b on a raw coordinate list, reduced; ad_i is _ad()[i]."""
        p = self.field.p
        out = [raw_zero(self.field)] * self.dim
        for j, bj in enumerate(b):
            if bj:
                for k, c in ad_i[j]:
                    out[k] += bj * c
        return [x % p for x in out] if p else out

    def _bracket_raw(self, u, v) -> list:
        """[u, v] on raw coordinate lists, reduced."""
        p = self.field.p
        out = [raw_zero(self.field)] * self.dim
        for (i, j), terms in self._sc.items():
            c = 0
            if u[i] and v[j]:
                c = u[i] * v[j]
            if u[j] and v[i]:
                c -= u[j] * v[i]
            if c:
                for k, s in terms:
                    out[k] += c * s
        return [x % p for x in out] if p else out

    def bracket_basis(self, i: int, j: int):
        """[x_i, x_j] for 0-based indices."""
        return tuple(wrap(self.field, self._row(i, j)))

    def bracket(self, u, v):
        """Bilinear extension of the table to coordinate vectors."""
        raw = self._bracket_raw([x.v for x in u], [x.v for x in v])
        return tuple(wrap(self.field, raw))

    def structure_constant(self, i: int, j: int, k: int) -> FieldElem:
        return self.bracket_basis(i, j)[k]

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self._sc == other._sc
        )

    def __repr__(self):
        parts = []
        for (i, j), terms in sorted(self._sc.items()):
            rhs = "+".join(f"{c}*x{k + 1}" for k, c in terms)
            parts.append(f"[x{i + 1},x{j + 1}]={rhs}")
        return f"LieAlgebra(dim={self.dim}, {', '.join(parts) or 'abelian'})"

    # -- validation and invariants ----------------------------------------

    def validate(self) -> JacobiViolation | None:
        """None when the Jacobi identity holds on every basis triple.

        The Jacobi sum of (x_i, x_j, x_k) has coordinates
        sum_l (c_ij^l c_lk^m + c_ki^l c_lj^m + c_jk^l c_li^m).
        """
        n, p = self.dim, self.field.p
        ad = self._ad()
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = [raw_zero(self.field)] * n
                    for a, b, c in ((i, j, k), (k, i, j), (j, k, i)):
                        for l, x in ad[a][b]:
                            for m, y in ad[l][c]:
                                s[m] += x * y
                    if p:
                        s = [x % p for x in s]
                    if any(s):
                        defect = tuple(wrap(self.field, s))
                        return JacobiViolation((i + 1, j + 1, k + 1), defect)
        return None

    @property
    def is_abelian(self) -> bool:
        return not self._sc

    def center(self) -> "Subspace":
        if "center" in self._cache:
            return self._cache["center"]
        n = self.dim
        ad = self._ad()
        # z is central iff sum_i z_i c_ij^k = 0 for every j and k
        rows = [[raw_zero(self.field)] * n for _ in range(n * n)]
        for i in range(n):
            for j in range(n):
                for k, c in ad[i][j]:
                    rows[j * n + k][i] = c
        ker = kernel_raw(self.field, rows, n)
        out = Subspace._span_raw(self.field, n, ker)
        self._cache["center"] = out
        return out

    def derived_subalgebra(self) -> "Subspace":
        gens = [self._row(i, j) for i, j in self._sc]
        return Subspace._span_raw(self.field, self.dim, gens)

    def _series(self, key: str, step) -> list["Subspace"]:
        """S_0 = F^n and S_{k+1} = span of step(S_k.rows), up to the first
        term of dimension 0 or equal to the one before (cached)."""
        if key in self._cache:
            return self._cache[key]
        cur = Subspace._whole(self.field, self.dim)
        series = [cur]
        while cur.dim > 0:
            nxt = Subspace._span_raw(self.field, self.dim, step(cur.rows))
            series.append(nxt)
            if nxt.dim == cur.dim:
                break
            cur = nxt
        self._cache[key] = series
        return series

    def lower_central_series(self) -> list["Subspace"]:
        def step(rows):
            # the next term is spanned by the columns ad(x_i) b
            ad = self._ad()
            return [self._apply_ad(ad[i], b) for b in rows for i in range(self.dim)]

        return self._series("lcs", step)

    def derived_series(self) -> list["Subspace"]:
        return self._series(
            "derived", lambda rows: [self._bracket_raw(a, b) for a, b in combinations(rows, 2)]
        )

    @property
    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    # -- constructions -----------------------------------------------------

    def quotient(self, ideal: "Subspace"):
        """(Q, proj, section) for an ideal; section hits the coordinate
        complement of the ideal's pivot columns."""
        n, p = self.dim, self.field.p
        ad = self._ad()
        for b in ideal.rows:
            for i in range(n):
                if any(ideal._reduce_raw(self._apply_ad(ad[i], b))):
                    raise NotAnIdeal("subspace is not an ideal")
        pivots = ideal.pivots
        comp = [c for c in range(n) if c not in pivots]
        m = len(comp)
        zero, one = self.field.zero(), self.field.one()
        proj_rows = []
        for c in comp:
            row = [raw_zero(self.field)] * n
            for r, pc in zip(ideal.rows, pivots):
                row[pc] = -r[c] % p if p else -r[c]
            row = wrap(self.field, row)
            row[c] = one
            proj_rows.append(row)
        proj_mat = Matrix(self.field, proj_rows, cols=n)
        sect_rows = [[zero] * m for _ in range(n)]
        for a in range(m):
            sect_rows[comp[a]][a] = one
        sect_mat = Matrix(self.field, sect_rows)
        tab = [[None] * m for _ in range(m)]
        for a in range(m):
            for b in range(a + 1, m):
                tab[a][b] = proj_mat.matvec(self.bracket_basis(comp[a], comp[b]))
        Q = LieAlgebra(self.field, m, tab)
        return Q, LinearMap(self, Q, proj_mat), LinearMap(Q, self, sect_mat)

    def direct_sum(self, other: "LieAlgebra") -> "LieAlgebra":
        if self.field != other.field:
            raise MixedFields("direct sum over different fields")
        n = self.dim
        sc = dict(self._sc)
        for (i, j), terms in other._sc.items():
            sc[(n + i, n + j)] = tuple((n + k, c) for k, c in terms)
        return LieAlgebra._from_sc(self.field, n + other.dim, sc)

    def change_basis(self, P: Matrix) -> "LieAlgebra":
        """Table with respect to the new basis y_j = sum_i P[i][j] x_i."""
        n = self.dim
        Pinv = P.invert()
        cols = [P.col(j) for j in range(n)]
        tab = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                tab[a][b] = Pinv.matvec(self.bracket(cols[a], cols[b]))
        return LieAlgebra(self.field, n, tab)

    def strip_central_component(self):
        """(core, abelian_dim, iso : self -> core + abelian summand).

        The abelian summand is a complement of C(K) intersected with [K, K]
        inside C(K); the core keeps the whole derived subalgebra.
        """
        n = self.dim
        Z = self.center()
        D = self.derived_subalgebra()
        W = Z.intersect(D)
        d = Z.dim - W.dim
        if d == 0:
            ident = LinearMap(self, self, Matrix.identity(self.field, n))
            return self, 0, ident
        U, _ = W.complement(Z.rows)
        span = Subspace._span_raw(self.field, n, U)
        K1, _ = span.complement(D.rows + Subspace._whole(self.field, n).rows)
        m = len(K1)
        cols = [wrap(self.field, v) for v in K1 + U]
        basis_mat = Matrix(self.field, [[c[i] for c in cols] for i in range(n)])
        coords = basis_mat.invert()
        core_tab = [[None] * m for _ in range(m)]
        for a in range(m):
            for b in range(a + 1, m):
                w = coords.matvec(wrap(self.field, self._bracket_raw(K1[a], K1[b])))
                core_tab[a][b] = w[:m]
        core = LieAlgebra(self.field, m, core_tab)
        target = core.direct_sum(LieAlgebra.abelian(self.field, d))
        return core, d, LinearMap(self, target, coords)


class Subspace:
    """Subspace of F^n with canonical (RREF) basis, stored once as raw rows."""

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: FieldCtx, ambient_dim: int, rows, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows  # tuples of reduced raw values
        self.pivots = pivots

    @classmethod
    def from_spanning(cls, field: FieldCtx, ambient_dim: int, vectors) -> "Subspace":
        return cls._span_raw(field, ambient_dim, [[x.v for x in v] for v in vectors])

    @classmethod
    def _span_raw(cls, field: FieldCtx, ambient_dim: int, vectors) -> "Subspace":
        """The span of reduced raw coordinate sequences."""
        rows = [list(v) for v in vectors if any(v)]
        pivots = rref_raw(field, rows, ambient_dim)
        return cls(field, ambient_dim, tuple(map(tuple, rows[: len(pivots)])), tuple(pivots))

    @classmethod
    def _whole(cls, field: FieldCtx, n: int) -> "Subspace":
        """F^n, whose rows are the standard basis."""
        zero = raw_zero(field)
        rows = tuple(tuple(zero + 1 if j == i else zero for j in range(n)) for i in range(n))
        return cls(field, n, rows, tuple(range(n)))

    @property
    def basis(self):
        """The RREF basis as FieldElem tuples."""
        return tuple(tuple(wrap(self.field, r)) for r in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce_raw(self, v) -> list:
        """The remainder of a reduced raw vector v against the RREF rows."""
        p = self.field.p
        w = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = w[pc]
            if c:
                for i, x in enumerate(row):
                    if x:
                        w[i] = (w[i] - c * x) % p if p else w[i] - c * x
        return w

    def complement(self, vectors):
        """(kept, span): in order, each reduced raw vector outside the span
        of this subspace and the vectors kept before it, and the span of
        this subspace and all the kept vectors."""
        kept, span = [], self
        for v in vectors:
            if any(span._reduce_raw(v)):
                kept.append(v)
                span = Subspace._span_raw(self.field, self.ambient_dim, [*span.rows, v])
        return kept, span

    def contains(self, v) -> bool:
        return not any(self._reduce_raw([x.v for x in v]))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.field, self.ambient_dim, (), ())
        field, n = self.field, self.ambient_dim
        p = field.p
        A, B = self.rows, other.rows
        # kernel vectors (k, l) of sum_r k_r a_r = sum_s l_s b_s
        rows = [[a[i] for a in A] + [-b[i] % p if p else -b[i] for b in B] for i in range(n)]
        vecs = []
        for k in kernel_raw(field, rows, len(A) + len(B)):
            v = [raw_zero(field)] * n
            for kr, a in zip(k, A):
                if kr:
                    for i, x in enumerate(a):
                        v[i] += kr * x
            vecs.append([x % p for x in v] if p else v)
        return Subspace._span_raw(field, n, vecs)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"


class LinearMap:
    """Linear map between two algebras; column i is the image of basis i."""

    __slots__ = ("domain", "codomain", "matrix", "verified")

    def __init__(self, domain: LieAlgebra, codomain: LieAlgebra, matrix: Matrix):
        if matrix.rows != codomain.dim or matrix.cols != domain.dim:
            raise ValueError("matrix shape does not match the algebras")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.verified = False

    def apply(self, v):
        return self.matrix.matvec(v)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner."""
        if inner.codomain.dim != self.domain.dim:
            raise ValueError("maps do not compose")
        return LinearMap(inner.domain, self.codomain, self.matrix * inner.matrix)

    def inverse(self) -> "LinearMap":
        return LinearMap(self.codomain, self.domain, self.matrix.invert())

    def is_homomorphism(self) -> bool:
        dom, cod, M = self.domain, self.codomain, self.matrix
        p = cod.field.p
        cols = [[row[j].v for row in M.data] for j in range(M.cols)]
        for i in range(dom.dim):
            for j in range(i + 1, dom.dim):
                # M [x_i, x_j] against [M x_i, M x_j]
                lhs = [raw_zero(cod.field)] * M.rows
                for k, c in dom._sc.get((i, j), ()):
                    for r, x in enumerate(cols[k]):
                        if x:
                            lhs[r] += c * x
                if p:
                    lhs = [x % p for x in lhs]
                if lhs != cod._bracket_raw(cols[i], cols[j]):
                    return False
        return True

    def is_isomorphism(self) -> bool:
        return (
            self.domain.dim == self.codomain.dim
            and self.matrix.is_invertible()
            and self.is_homomorphism()
        )

    def verify(self) -> "LinearMap":
        """Mark verified after an exact isomorphism check; raise otherwise."""
        if not self.is_isomorphism():
            raise NotAnAutomorphism("map is not a Lie algebra isomorphism")
        self.verified = True
        return self

    def __repr__(self):
        return f"LinearMap({self.domain.dim} -> {self.codomain.dim})"
