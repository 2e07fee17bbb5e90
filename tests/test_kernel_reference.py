"""The raw-value kernel against the FieldElem loops it replaced.

The reference functions below are the former implementations of
LieAlgebra.bracket, the Jacobi check, the lower central and derived
series, the greedy complement now in Subspace.complement and
Matrix.rref/__mul__/matvec, written on FieldElem arithmetic and the public
bracket_basis table.  Random tables over GF(3), GF(7) and Q (most of them
violating Jacobi) and random matrices must give the same values, pivots,
violating triple and defect, and every Q entry must still be a Fraction.
Matrix.solve and Matrix.invert, which the isomorphism oracle shares, are
checked against the reference rref and product: M x = b exactly when the
system is consistent, and M M^-1 = M^-1 M = I.  SkewForm.is_cocycle, one
product against the cached cocycle equations, is checked against the
former triple loop of form evaluations on random forms and cocycles.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcat.catalog import ids_over, instantiate
from nilcat.cohomology import SkewForm, compute_spaces, pairs
from nilcat.errors import Singular
from nilcat.field import prime_field, rationals
from nilcat.liealg import LieAlgebra, LinearMap, Subspace
from nilcat.linalg import Matrix, wrap
from nilcat.oracle import fuzz_basis_change

FIELDS = [prime_field(3), prime_field(7), rationals()]


# -- reference implementations ------------------------------------------------


def ref_rref(M):
    m = [row[:] for row in M.data]
    rows, cols = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c].v:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c].v:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, tuple(pivots), r


def ref_mul(A, B):
    zero = A.field.zero()
    out = []
    for arow in A.data:
        orow = []
        for j in range(B.cols):
            s = zero
            for k in range(A.cols):
                if arow[k].v:
                    s = s + arow[k] * B.data[k][j]
            orow.append(s)
        out.append(orow)
    return out


def ref_matvec(M, v):
    zero = M.field.zero()
    out = []
    for row in M.data:
        s = zero
        for a, x in zip(row, v):
            if a.v and x.v:
                s = s + a * x
        out.append(s)
    return tuple(out)


def ref_bracket(L, u, v):
    out = [L.field.zero()] * L.dim
    n = L.dim
    for i in range(n):
        for j in range(i + 1, n):
            c = u[i] * v[j] - u[j] * v[i]
            if c.v:
                w = L.bracket_basis(i, j)
                for k in range(n):
                    if w[k].v:
                        out[k] = out[k] + c * w[k]
    return tuple(out)


def basis_vec(field, n, i):
    return tuple(field.el(1 if j == i else 0) for j in range(n))


def ref_validate(L):
    n, F = L.dim, L.field
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = [
                    ref_bracket(L, L.bracket_basis(i, j), basis_vec(F, n, k)),
                    ref_bracket(L, L.bracket_basis(k, i), basis_vec(F, n, j)),
                    ref_bracket(L, L.bracket_basis(j, k), basis_vec(F, n, i)),
                ]
                s = tuple(a + b + c for a, b, c in zip(*terms))
                if any(x.v for x in s):
                    return (i + 1, j + 1, k + 1), s
    return None


def ref_span(field, n, vectors):
    vectors = [v for v in vectors if any(x.v for x in v)]
    if not vectors:
        return (), ()
    m, pivots, rank = ref_rref(Matrix(field, vectors))
    return tuple(tuple(m[i]) for i in range(rank)), pivots


def ref_lcs(L):
    n, F = L.dim, L.field
    cur = ref_span(F, n, [basis_vec(F, n, i) for i in range(n)])
    series = [cur]
    while cur[0]:
        gens = [ref_bracket(L, basis_vec(F, n, i), b) for b in cur[0] for i in range(n)]
        nxt = ref_span(F, n, gens)
        series.append(nxt)
        if len(nxt[0]) == len(cur[0]):
            break
        cur = nxt
    return series


def ref_derived(L):
    n, F = L.dim, L.field
    cur = ref_span(F, n, [basis_vec(F, n, i) for i in range(n)])
    series = [cur]
    while cur[0]:
        bs = cur[0]
        gens = [ref_bracket(L, bs[a], bs[b])
                for a in range(len(bs)) for b in range(a + 1, len(bs))]
        nxt = ref_span(F, n, gens)
        series.append(nxt)
        if len(nxt[0]) == len(cur[0]):
            break
        cur = nxt
    return series


def ref_complement(field, n, rows, vectors):
    """The former liealg._extends greedy loop: starting from the RREF basis
    of the rows, keep each vector that raises the rank of what is kept."""
    cur = list(ref_span(field, n, rows)[0])
    kept = []
    for v in vectors:
        if ref_rref(Matrix(field, cur + [v], cols=n))[2] == len(cur) + 1:
            kept.append(v)
            cur.append(v)
    return kept, ref_span(field, n, cur)


def ref_is_cocycle(theta):
    L = theta.base
    n, F = L.dim, L.field
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = (
                    theta.eval(L.bracket_basis(i, j), basis_vec(F, n, k))
                    + theta.eval(L.bracket_basis(k, i), basis_vec(F, n, j))
                    + theta.eval(L.bracket_basis(j, k), basis_vec(F, n, i))
                )
                if s.v:
                    return False
    return True


# -- strategies ---------------------------------------------------------------


def scalars(field):
    if field.is_rationals:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, field.p - 1)


@st.composite
def random_algebras(draw):
    """Arbitrary tables: most of them violate Jacobi."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 5))
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if draw(st.booleans()):
                ks = draw(st.sets(st.integers(1, n), max_size=2))
                brackets[(i, j)] = {k: draw(scalars(field)) for k in ks}
    return LieAlgebra.from_table(field, n, brackets)


@st.composite
def catalog_copies(draw):
    """Lie algebras: catalog tables under a seeded basis change."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(3, 5))
    cid = draw(st.sampled_from(ids_over(field, dim)))
    seed = draw(st.integers(0, 10**6))
    return next(fuzz_basis_change(instantiate(cid), 1, seed))[1]


algebras = st.one_of(random_algebras(), catalog_copies())


@st.composite
def algebra_and_vectors(draw):
    L = draw(algebras)
    vec = st.lists(scalars(L.field), min_size=L.dim, max_size=L.dim)
    u, v = draw(vec), draw(vec)
    return L, tuple(map(L.field.el, u)), tuple(map(L.field.el, v))


@st.composite
def matrices(draw, rows=None, cols=None, field=None):
    field = field or draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols
    data = draw(st.lists(st.lists(scalars(field), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Matrix(field, [[field.el(x) for x in row] for row in data], cols=cols)


def assert_fractions(field, entries):
    if field.is_rationals:
        assert all(type(x.v) is Fraction for x in entries)


# -- tests --------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(algebra_and_vectors())
def test_bracket_matches_reference(case):
    L, u, v = case
    got = L.bracket(u, v)
    assert got == ref_bracket(L, u, v)
    assert_fractions(L.field, got)
    for i in range(L.dim):
        for j in range(L.dim):
            assert_fractions(L.field, L.bracket_basis(i, j))
            if i > j:
                assert L.bracket_basis(i, j) == tuple(-x for x in L.bracket_basis(j, i))


@settings(max_examples=150, deadline=None)
@given(algebras)
def test_validate_matches_reference(L):
    bad, ref = L.validate(), ref_validate(L)
    if ref is None:
        assert bad is None
    else:
        assert bad is not None
        assert (bad.triple, bad.defect) == ref
        assert_fractions(L.field, bad.defect)


@settings(max_examples=100, deadline=None)
@given(algebras)
def test_lower_central_series_matches_reference(L):
    for got, ref in [(L.lower_central_series(), ref_lcs(L)),
                     (L.derived_series(), ref_derived(L))]:
        assert [(S.basis, S.pivots) for S in got] == ref
        for S in got:
            for b in S.basis:
                assert_fractions(L.field, b)


@settings(max_examples=100, deadline=None)
@given(algebras)
def test_identity_is_homomorphism_and_table_round_trips(L):
    ident = LinearMap(L, L, Matrix.identity(L.field, L.dim))
    assert ident.is_homomorphism()
    tab = [[L.bracket_basis(i, j) for j in range(L.dim)] for i in range(L.dim)]
    assert LieAlgebra(L.field, L.dim, tab) == L


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_reference(M):
    R, pivots, rank = M.rref()
    m, ref_pivots, ref_rank = ref_rref(M)
    assert R.data == m and pivots == ref_pivots and rank == ref_rank
    assert_fractions(M.field, [x for row in R.data for x in row])


@st.composite
def matrix_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    r, k, c = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(matrices(r, k, field)), draw(matrices(k, c, field))


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_mul_and_matvec_match_reference(pair):
    A, B = pair
    AB = A * B
    assert AB.data == ref_mul(A, B)
    assert_fractions(A.field, [x for row in AB.data for x in row])
    for j in range(B.cols):
        col = B.col(j)
        assert A.matvec(col) == ref_matvec(A, col)
        assert_fractions(A.field, A.matvec(col))


@st.composite
def spans_and_vectors(draw):
    """Spanning rows of a subspace and candidate vectors, in one F^n."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 6))
    return draw(matrices(None, n, field)), draw(matrices(None, n, field))


@settings(max_examples=200, deadline=None)
@given(spans_and_vectors())
def test_complement_matches_reference(case):
    S_rows, V = case
    field, n = V.field, V.cols
    kept, span = Subspace.from_spanning(field, n, S_rows.data).complement(
        [[x.v for x in v] for v in V.data]
    )
    ref_kept, ref_span_rows = ref_complement(field, n, S_rows.data, V.data)
    assert [tuple(wrap(field, v)) for v in kept] == [tuple(v) for v in ref_kept]
    assert (span.basis, span.pivots) == ref_span_rows
    assert_fractions(field, [x for b in span.basis for x in b])


@st.composite
def systems(draw):
    """(M, b); half the time b = M x for a drawn x, so the system is consistent."""
    M = draw(matrices())
    field = M.field

    def vec(k):
        return tuple(map(field.el, draw(st.lists(scalars(field), min_size=k, max_size=k))))

    b = ref_matvec(M, vec(M.cols)) if draw(st.booleans()) else vec(M.rows)
    return M, b


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_matches_reference(case):
    M, b = case
    x = M.solve(b)
    aug = Matrix(M.field, [row + [y] for row, y in zip(M.data, b)], cols=M.cols + 1)
    if ref_rref(aug)[2] > ref_rref(M)[2]:
        assert x is None
    else:
        assert x is not None and ref_matvec(M, x) == tuple(b)
        assert_fractions(M.field, x)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(matrices(n, n))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_invert_matches_reference(M):
    n = M.rows
    if ref_rref(M)[2] < n:
        with pytest.raises(Singular):
            M.invert()
        return
    Minv = M.invert()
    ident = Matrix.identity(M.field, n).data
    assert ref_mul(M, Minv) == ident and ref_mul(Minv, M) == ident
    assert_fractions(M.field, [x for row in Minv.data for x in row])


@st.composite
def skew_forms(draw):
    """Random forms, or random combinations of the cocycle basis."""
    L = draw(algebras)
    F, m = L.field, len(pairs(L.dim))
    if draw(st.booleans()):
        coeffs = draw(st.lists(scalars(F), min_size=m, max_size=m))
        return SkewForm(L, [F.el(x) for x in coeffs])
    theta = SkewForm.zero(L)
    for z in compute_spaces(L).z2:
        theta = theta + z.scale(F.el(draw(scalars(F))))
    return theta


@settings(max_examples=200, deadline=None)
@given(skew_forms())
def test_is_cocycle_matches_reference(theta):
    assert theta.is_cocycle() == ref_is_cocycle(theta)
