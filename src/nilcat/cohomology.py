"""Skew bilinear forms, cocycles, central extensions and their isomorphisms.

Coefficients of skew forms live on the basis of elementary forms indexed by
pairs (i, j), i < j, in lexicographic order.  The module computes the space
of cocycles and coboundaries of an algebra (keeping the cocycle equations,
against which is_cocycle is one product), builds central extensions, and
owns the one convention for isomorphisms between extensions: the datum
(phi, A, B) of an automorphism phi of the base, a centre base change A and
functional values B.  lift_matrix builds the matrix of that datum and
extension_forms the forms it must carry the cocycles to; assemble_iso,
coboundary_shift_iso and the recognition engine's moves all go through
this pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import Eq1Violated, NotACocycle, NotAnAutomorphism
from .field import FieldElem
from .liealg import LieAlgebra, LinearMap, Subspace
from .linalg import Matrix, is_zero_vec, raw_zero, wrap


@lru_cache(maxsize=None)
def pairs(n: int):
    """Index pairs (i, j), i < j, 0-based, lexicographic."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def pair_index(n: int):
    return {p: a for a, p in enumerate(pairs(n))}


class SkewForm:
    """Skew-symmetric bilinear form on a fixed algebra's basis."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: LieAlgebra, coeffs):
        self.base = base
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != len(pairs(base.dim)):
            raise ValueError("coefficient vector has the wrong length")

    @classmethod
    def from_dict(cls, base: LieAlgebra, d: dict) -> "SkewForm":
        """Build from {(i, j): coeff} with 1-based indices, i < j."""
        idx = pair_index(base.dim)
        c = [base.field.zero()] * len(idx)
        for (i, j), val in d.items():
            c[idx[(i - 1, j - 1)]] = base.field.el(val)
        return cls(base, c)

    @classmethod
    def zero(cls, base: LieAlgebra) -> "SkewForm":
        return cls(base, [base.field.zero()] * len(pairs(base.dim)))

    def value(self, i: int, j: int) -> FieldElem:
        if i == j:
            return self.base.field.zero()
        idx = pair_index(self.base.dim)
        if i < j:
            return self.coeffs[idx[(i, j)]]
        return -self.coeffs[idx[(j, i)]]

    def gram(self) -> Matrix:
        n = self.base.dim
        return Matrix(
            self.base.field,
            [[self.value(i, j) for j in range(n)] for i in range(n)],
        )

    def eval(self, u, v) -> FieldElem:
        s = self.base.field.zero()
        for a, (i, j) in enumerate(pairs(self.base.dim)):
            c = self.coeffs[a]
            if c.v:
                s = s + c * (u[i] * v[j] - u[j] * v[i])
        return s

    def pullback(self, M: Matrix) -> "SkewForm":
        """The form (x, y) -> self(Mx, My)."""
        G = M.transpose() * self.gram() * M
        return SkewForm(
            self.base, [G.data[i][j] for (i, j) in pairs(self.base.dim)]
        )

    def radical(self) -> Subspace:
        """{x : theta(x, y) = 0 for all y}."""
        return Subspace.from_spanning(
            self.base.field, self.base.dim, self.gram().kernel()
        )

    def is_cocycle(self) -> bool:
        """True iff the form satisfies every cocycle equation of its base."""
        return is_zero_vec(compute_spaces(self.base).equations.matvec(self.coeffs))

    def __add__(self, other: "SkewForm") -> "SkewForm":
        return SkewForm(self.base, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "SkewForm") -> "SkewForm":
        return SkewForm(self.base, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c: FieldElem) -> "SkewForm":
        return SkewForm(self.base, [c * a for a in self.coeffs])

    def is_zero(self) -> bool:
        return is_zero_vec(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, SkewForm)
            and self.base.dim == other.base.dim
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        terms = [
            f"{c}*D{i + 1}{j + 1}"
            for c, (i, j) in zip(self.coeffs, pairs(self.base.dim))
            if c.v
        ]
        return " + ".join(terms) or "0"


@dataclass
class CohomologySpaces:
    base: LieAlgebra
    equations: Matrix  # the cocycle equations, row reduced; z2 is their kernel
    z2: list  # SkewForm basis of the cocycle space
    b2: list  # SkewForm basis of the coboundary space
    h2reps: list  # canonical complement of b2 inside z2

    @property
    def dim_z2(self) -> int:
        return len(self.z2)

    @property
    def dim_b2(self) -> int:
        return len(self.b2)

    @property
    def dim_h2(self) -> int:
        return len(self.h2reps)


def coboundary_basis_vectors(L: LieAlgebra):
    """For each m, the form (x, y) -> coefficient of x_m in [x, y]."""
    ps = pairs(L.dim)
    return [tuple(L.bracket_basis(i, j)[m] for (i, j) in ps) for m in range(L.dim)]


def compute_spaces(L: LieAlgebra) -> CohomologySpaces:
    """Cocycles, coboundaries and canonical quotient representatives."""
    if "coh" in L._cache:
        return L._cache["coh"]
    n = L.dim
    ps = pairs(n)
    idx = pair_index(n)
    field = L.field
    zero = field.zero()

    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                row = [zero] * len(ps)
                for (a, b, c) in ((i, j, k), (k, i, j), (j, k, i)):
                    w = L.bracket_basis(a, b)
                    for l in range(n):
                        if w[l].v and l != c:
                            if l < c:
                                row[idx[(l, c)]] = row[idx[(l, c)]] + w[l]
                            else:
                                row[idx[(c, l)]] = row[idx[(c, l)]] - w[l]
                rows.append(row)
    R, _, rank = Matrix(field, rows, cols=len(ps)).rref()
    equations = Matrix(field, R.data[:rank], cols=len(ps))
    z2_vecs = equations.kernel()

    b2_span = Subspace.from_spanning(field, len(ps), coboundary_basis_vectors(L))
    reps, _ = b2_span.complement([[x.v for x in z] for z in z2_vecs])

    out = CohomologySpaces(
        base=L,
        equations=equations,
        z2=[SkewForm(L, v) for v in z2_vecs],
        b2=[SkewForm(L, v) for v in b2_span.basis],
        h2reps=[SkewForm(L, wrap(field, v)) for v in reps],
    )
    L._cache["coh"] = out
    return out


def recover_functional(L: LieAlgebra, cob: SkewForm):
    """A linear functional nu with nu([x, y]) = cob(x, y), or None."""
    cols = coboundary_basis_vectors(L)
    M = Matrix(L.field, [[cols[m][a] for m in range(L.dim)] for a in range(len(cols[0]))])
    return M.solve(list(cob.coeffs))


def joint_radical(thetas) -> Subspace:
    """Intersection of the radicals of a list of forms on one base."""
    rad = thetas[0].radical()
    for th in thetas[1:]:
        rad = rad.intersect(th.radical())
    return rad


def central_extension(L: LieAlgebra, thetas, check: bool = True):
    """The extension of L by s central generators, one per cocycle.

    Returns (K, embed) where K has basis (x_1..x_n, e_1..e_s) and embed is
    the linear section x_i -> x_i (not in general a homomorphism).
    """
    for th in thetas:
        if th.base is not L and th.base != L:
            raise ValueError("cocycle on a different base algebra")
        if check and not th.is_cocycle():
            raise NotACocycle(f"{th} violates the cocycle identity")
    n, s = L.dim, len(thetas)
    zero = L.field.zero()
    tab = [[None] * (n + s) for _ in range(n + s)]
    for i in range(n + s):
        for j in range(i + 1, n + s):
            tab[i][j] = (zero,) * (n + s)
    for i in range(n):
        for j in range(i + 1, n):
            ext = tuple(th.value(i, j) for th in thetas)
            tab[i][j] = L.bracket_basis(i, j) + ext
    K = LieAlgebra(L.field, n + s, tab)
    embed = Matrix(
        L.field,
        [[L.field.one() if i == j else zero for j in range(n)] for i in range(n + s)],
    )
    return K, LinearMap(L, K, embed)


def extension_center_ok(L: LieAlgebra, thetas) -> bool:
    """True iff the centre of the extension is exactly the new summand."""
    return joint_radical(thetas).intersect(L.center()).dim == 0


def no_central_component(L: LieAlgebra, thetas) -> bool:
    """True iff the cocycles are independent modulo coboundaries."""
    b2 = [f.coeffs for f in compute_spaces(L).b2]
    B2 = Subspace.from_spanning(L.field, len(pairs(L.dim)), b2)
    kept, _ = B2.complement([[x.v for x in th.coeffs] for th in thetas])
    return len(kept) == len(thetas)


def aut_action(phi: Matrix, theta: SkewForm) -> SkewForm:
    """Pullback of theta through a verified automorphism of its base."""
    L = theta.base
    if not LinearMap(L, L, phi).is_isomorphism():
        raise NotAnAutomorphism("matrix is not an automorphism of the base")
    return theta.pullback(phi)


def lift_matrix(phi: Matrix, A: Matrix, B: Matrix) -> Matrix:
    """The matrix of the datum (phi, A, B) on the basis (x_1..x_n, e_1..e_s):
    x_i -> phi x_i + sum_l B[i][l] e_l and e_k -> sum_l A[l][k] e_l."""
    zero = phi.field.zero()
    rows = [row + [zero] * A.cols for row in phi.data]
    rows += [[b[l] for b in B.data] + A.data[l] for l in range(A.rows)]
    return Matrix(phi.field, rows)


def extension_forms(L: LieAlgebra, thetas, A: Matrix, B: Matrix) -> list:
    """The forms sum_k A[l][k] theta_k + nu_l o [., .], where nu_l(x_i) =
    B[i][l]: lift_matrix(phi, A, B) is an isomorphism ext(L, thetas) ->
    ext(L, etas) exactly when phi is an automorphism of L and these are
    the pullbacks eta_l o phi."""
    field, p = L.field, L.field.p
    cob = () if B.is_zero() else coboundary_basis_vectors(L)
    out = []
    for l in range(len(thetas)):
        acc = [raw_zero(field)] * len(pairs(L.dim))
        terms = [(A.data[l][k], th.coeffs) for k, th in enumerate(thetas)]
        for a, coeffs in terms + [(b[l], c) for b, c in zip(B.data, cob)]:
            if a.v:
                acc = [x + a.v * c.v for x, c in zip(acc, coeffs)]
        out.append(SkewForm(L, wrap(field, [x % p for x in acc] if p else acc)))
    return out


def assemble_iso(L: LieAlgebra, thetas, etas, phi: Matrix, A: Matrix, B: Matrix) -> LinearMap:
    """Isomorphism ext(L, thetas) -> ext(L, etas) from compatible data.

    phi is an automorphism of L, A the s x s centre base change, B the
    n x s matrix of functional values (see lift_matrix).  The compatibility
    equation

        eta_l(phi x_i, phi x_j) = sum_k A[l][k] theta_k(x_i, x_j)
                                  + sum_k c_ij^k B[k][l]

    is checked exactly for every pair and raises Eq1Violated on failure.
    """
    if not LinearMap(L, L, phi).is_isomorphism():
        raise NotAnAutomorphism("phi is not an automorphism of the base")
    for l, (eta, want) in enumerate(zip(etas, extension_forms(L, thetas, A, B))):
        for (i, j), x, y in zip(pairs(L.dim), eta.pullback(phi).coeffs, want.coeffs):
            if x != y:
                raise Eq1Violated(f"compatibility fails at l={l + 1}, pair ({i + 1},{j + 1})")
    K1, _ = central_extension(L, thetas)
    K2, _ = central_extension(L, etas)
    return LinearMap(K1, K2, lift_matrix(phi, A, B)).verify()


def coboundary_shift_iso(L: LieAlgebra, thetas, nus) -> LinearMap:
    """Isomorphism from ext(L, thetas) to ext(L, thetas + nu o bracket).

    nus is one functional (coordinate tuple on L) per cocycle; the datum is
    (1, 1, B) with B[i][l] = nus[l][i].
    """
    one = Matrix.identity(L.field, len(thetas))
    B = Matrix(L.field, [[nu[i] for nu in nus] for i in range(L.dim)])
    etas = extension_forms(L, thetas, one, B)
    return assemble_iso(L, thetas, etas, Matrix.identity(L.field, L.dim), one, B)


def factor_by_center(K: LieAlgebra):
    """Present K as a central extension of K / C(K).

    Returns (Q, thetas, phi) with phi : K -> ext(Q, thetas) an isomorphism;
    thetas are the cocycles cut out by the canonical section sigma, which
    hits the coordinates off the centre's pivot columns.  Every v has
    v - sigma(proj v) = sum_l v[pivot_l] C.basis[l], so theta_l(a, b) is
    the pivot-l entry of [sigma a, sigma b], and phi's centre rows read
    the pivot coordinates.  Neither is re-checked here: the cocycles come
    from a Lie algebra, and phi is left unverified (call phi.verify() to
    certify it; recognition certifies only the composed map).
    """
    C = K.center()
    Q, proj, _ = K.quotient(C)
    comp = [c for c in range(K.dim) if c not in C.pivots]
    brackets = [K.bracket_basis(comp[a], comp[b]) for a, b in pairs(Q.dim)]
    thetas = [SkewForm(Q, [w[pc] for w in brackets]) for pc in C.pivots]
    ext, _ = central_extension(Q, thetas, check=False)
    one, zero = K.field.one(), K.field.zero()
    centre_rows = [[one if i == pc else zero for i in range(K.dim)] for pc in C.pivots]
    return Q, thetas, LinearMap(K, ext, Matrix(K.field, proj.matrix.data + centre_rows))
