"""Recognition: identify a nilpotent Lie algebra of dimension at most 6
as a catalog class and produce an explicit verified isomorphism.

The driver peels off central components, factors the remainder as a
central extension of its quotient by the centre, recognizes the quotient
recursively, transports the cocycles onto the catalog quotient, and then
hands over to a per-quotient normalizer (see normalizers.py) that replays
the orbit analysis with exact arithmetic.  Every normalizer step is one
Skjelbred-Sund move (phi, A, B) built by cohomology.lift_matrix, or an
explicit relabelling.  A normalizer that ends without a relabelling must
have reached the target entry's defining cocycles on its defining
quotient, which NormEngine.finish compares directly: the catalog table is
that extension.  No step is checked as a map: the composed map is
verified exactly once, as an isomorphism onto the catalog table, before
recognize returns it, and a broken step fails that check.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import catalog
from .autgroups import template_for
from .cohomology import (
    SkewForm,
    compute_spaces,
    extension_forms,
    factor_by_center,
    lift_matrix,
    pairs,
    recover_functional,
)
from .errors import (
    DimTooLarge,
    InternalInvariantViolated,
    NotALieAlgebra,
    NotNilpotent,
)
from .liealg import LieAlgebra, LinearMap
from .linalg import Matrix

__all__ = [
    "recognize",
    "RecognitionResult",
    "NormalizationStep",
    "skew_normal_form",
]


def skew_normal_form(theta: SkewForm):
    """Basis change P putting a skew form into hyperbolic normal form.

    Returns (P, r) with P invertible and the pullback of theta through P
    equal to the sum of elementary forms on (1,2), (3,4), ..., (r-1, r).
    """
    L = theta.base
    field = L.field
    n = L.dim
    remaining = [
        tuple(field.el(1 if k == i else 0) for k in range(n)) for i in range(n)
    ]
    paired = []
    radical = []
    while remaining:
        u = remaining.pop(0)
        partner = None
        for idx, w in enumerate(remaining):
            if theta.eval(u, w).v:
                partner = idx
                break
        if partner is None:
            radical.append(u)
            continue
        v = remaining.pop(partner)
        c = theta.eval(u, v).inv()
        v = tuple(c * x for x in v)
        fixed = []
        for w in remaining:
            cu = theta.eval(u, w)
            cv = theta.eval(v, w)
            fixed.append(
                tuple(wx + cv * ux - cu * vx for wx, ux, vx in zip(w, u, v))
            )
        remaining = fixed
        paired.extend([u, v])
    cols = paired + radical
    P = Matrix(field, [[cols[j][i] for j in range(n)] for i in range(n)])
    return P, len(paired)


@dataclass
class NormalizationStep:
    kind: str  # QuotientRecognize | SkewCanonical | AutApply |
    #            CenterBaseChange | CoboundaryShift | Relabel | ScaleParam
    data: object  # the automorphism / centre / functional / scaling data
    note: str = ""
    full: object = None  # the lifted square matrix acting on the extension


@dataclass
class RecognitionResult:
    id: catalog.CatalogId
    iso: LinearMap  # isomorphism onto instantiate(id), verified by recognize
    trace: list = dc_field(default_factory=list)


class NormEngine:
    """Normalization state: catalog quotient N (key qkey), current cocycles,
    and the accumulated isomorphism from the starting extension.  Until a
    relabel, the current algebra is the central extension of N by etas."""

    def __init__(self, qkey, N: LieAlgebra, etas, rep_dicts):
        self.qkey = qkey
        self.N = N
        self.field = N.field
        self.n = N.dim
        self.s = len(etas)
        self.etas = list(etas)
        self.steps: list[NormalizationStep] = []
        self.total = Matrix.identity(self.field, self.n + self.s)
        self.template = template_for(self.field, *qkey)
        self.reps = [SkewForm.from_dict(N, d) for d in rep_dicts]
        coh = compute_spaces(N)
        cols = [list(r.coeffs) for r in self.reps] + [list(b.coeffs) for b in coh.b2]
        self.dec = Matrix(
            self.field,
            [[cols[c][r] for c in range(len(cols))] for r in range(len(pairs(self.n)))],
        )
        if self.dec.rank() != len(cols) or len(cols) != len(coh.z2):
            raise InternalInvariantViolated(
                f"representative basis for {qkey} does not complement B2"
            )
        self.b2_funcs = [recover_functional(N, b) for b in coh.b2]
        self.relabelled = False  # set once a Relabel leaves the extension picture
        self._cob_reduce("transported cocycles reduced modulo coboundaries")

    # -- bookkeeping -----------------------------------------------------

    def require(self, cond: bool, why: str = ""):
        if not cond:
            raise InternalInvariantViolated(
                f"impossible state while normalizing over {self.qkey}: {why}"
            )

    def _decompose(self, form: SkewForm):
        sol = self.dec.solve(list(form.coeffs))
        self.require(sol is not None, "cocycle left the cocycle space")
        r = len(self.reps)
        return sol[:r], sol[r:]

    def c(self, i: int):
        """Coefficients of eta_i in the case representative basis."""
        rep, cob = self._decompose(self.etas[i])
        self.require(all(not x.v for x in cob), "unreduced coboundary part")
        return rep

    def _move(self, kind: str, data, note: str, pull=None, A=None, B=None):
        """One Skjelbred-Sund move (phi, A, B) with phi the inverse of pull
        (1 when pull is None), A and B defaulting to 1 and 0: the cocycles
        become extension_forms pulled back through pull, and lift_matrix
        joins the accumulated isomorphism.  data None records the lift."""
        field, n, s = self.field, self.n, self.s
        A = Matrix.identity(field, s) if A is None else A
        B = Matrix.zeros(field, n, s) if B is None else B
        forms = extension_forms(self.N, self.etas, A, B)
        self.etas = forms if pull is None else [f.pullback(pull) for f in forms]
        phi = Matrix.identity(field, n) if pull is None else pull.invert()
        M = lift_matrix(phi, A, B)
        self.total = M * self.total
        self.steps.append(NormalizationStep(kind, M if data is None else data, note, M))

    def _cob_reduce(self, note: str):
        """Shift every cocycle by a coboundary onto the representative span."""
        cobs = [self._decompose(e)[1] for e in self.etas]
        if all(not x.v for cob in cobs for x in cob):
            return
        zero = self.field.zero()
        # B[i][l] = nu_l(x_i), nu_l = -sum_m cob_l[m] f_m with f_m o [., .] = b2[m]
        B = Matrix(self.field, [
            [sum((-cm * f[i] for cm, f in zip(cob, self.b2_funcs) if cm.v), zero)
             for cob in cobs]
            for i in range(self.n)
        ])
        self._move("CoboundaryShift", None, note, B=B)

    # -- elementary moves --------------------------------------------------

    def aut(self, phi, note: str = "", kind: str = "AutApply"):
        """Pull the cocycles back through an automorphism of N: template
        parameters, or a matrix (used on the abelian L3_1 and L4_1, where
        every invertible matrix is one and no coboundary cleanup arises)."""
        if not isinstance(phi, Matrix):
            phi = self.template(phi)
        self._move(kind, phi, note, pull=phi)
        self._cob_reduce("coboundary cleanup after automorphism")

    def center(self, rows, note: str = ""):
        """Replace the cocycle tuple by A * etas (A invertible s x s)."""
        A = Matrix.from_rows(self.field, rows)
        self._move("CenterBaseChange", A, note, A=A)

    def scale_eta(self, l: int, cval, note: str = ""):
        c = self.field.el(cval)
        rows = [
            [
                (c if (i == l and j == l) else (1 if i == j else 0))
                for j in range(self.s)
            ]
            for i in range(self.s)
        ]
        self.center(rows, note)

    def sub_eta(self, l: int, m: int, cval, note: str = ""):
        """eta_l := eta_l - c * eta_m."""
        c = self.field.el(cval)
        rows = [
            [
                (-c if (i == l and j == m) else (1 if i == j else 0))
                for j in range(self.s)
            ]
            for i in range(self.s)
        ]
        self.center(rows, note)

    def swap_etas(self, note: str = ""):
        self.require(self.s == 2, "swap is a two-cocycle move")
        self.center([[0, 1], [1, 0]], note)

    def skew_canonical(self, i: int, note: str = "") -> int:
        P, r = skew_normal_form(self.etas[i])
        self.aut(P, note or "hyperbolic normal form", kind="SkewCanonical")
        return r

    def relabel(self, cols, note: str = ""):
        """Apply a fixed basis change given by its columns ({1-based row:
        value}).  The engine then stops tracking cocycles, and the step is
        checked only as part of the final composed map."""
        field = self.field
        M = Matrix.zeros(field, self.n + self.s, self.n + self.s)
        for j, col in enumerate(cols):
            for i, val in col.items():
                M.data[i - 1][j] = field.el(val)
        self.total = M * self.total
        self.relabelled = True
        self.steps.append(NormalizationStep("Relabel", M, note, M))

    def expect(self, dicts, note: str = ""):
        """Assert the cocycles now equal the given tuple exactly."""
        want = [SkewForm.from_dict(self.N, d) for d in dicts]
        self.require(self.etas == want, note or "normal form not reached")

    def finish(self, key, eps=None) -> catalog.CatalogId:
        """Land on the catalog entry key (a family member at eps, which is
        then scaled to its square-class representative).  Without a
        relabel, N must be the entry's defining quotient and etas its
        defining cocycles; after one, the final certificate checks it."""
        field = self.field
        eps = None if eps is None else field.el(eps)
        if not self.relabelled:
            qkey, cocs = catalog.defining_extension(field, *key, eps)
            label = "L{}_{}".format(*key)
            self.require(
                qkey == self.qkey, f"{label} is not an extension of {self.qkey}"
            )
            self.expect(cocs, f"normal form does not match the {label} table")
        cid = catalog.CatalogId(field, *key, eps)
        if cid.param != eps:
            M = catalog.scaling_matrix(field, *key, eps, cid.param)
            self.total = M * self.total
            note = f"parameter {eps} moved to class representative {cid.param}"
            self.steps.append(NormalizationStep("ScaleParam", M, note, M))
        return cid


def recognize(K: LieAlgebra) -> RecognitionResult:
    """Catalog class of K with an explicit verified isomorphism onto it."""
    if not 1 <= K.dim <= 6:
        raise DimTooLarge(f"recognition covers dimensions 1..6, got {K.dim}")
    bad = K.validate()
    if bad is not None:
        raise NotALieAlgebra(str(bad))
    if not K.is_nilpotent:
        raise NotNilpotent("input algebra is not nilpotent")
    res = _recognize_checked(K)
    res.iso.verify()  # the certificate: the only check of any step
    return res


def _recognize_checked(K: LieAlgebra) -> RecognitionResult:
    """Recognition of a valid nilpotent K; the returned map is unverified."""
    from .normalizers import DISPATCH  # deferred: normalizers import this module

    field = K.field
    n = K.dim

    if K.is_abelian:
        cid = catalog.CatalogId(field, n, 1)
        iso = LinearMap(K, catalog.instantiate(cid), Matrix.identity(field, n))
        return RecognitionResult(cid, iso, [])

    core, d, split = K.strip_central_component()
    if d > 0:
        sub = _recognize_checked(core)
        key = catalog.sum_key(sub.id.key, d)
        if key is None:
            raise InternalInvariantViolated(
                f"unexpected direct sum shape {(sub.id.key, d)}"
            )
        cid = catalog.CatalogId(field, *key)
        M = sub.iso.matrix.block_diag(Matrix.identity(field, d)) * split.matrix
        iso = LinearMap(K, catalog.instantiate(cid), M)
        trace = [
            NormalizationStep(
                "QuotientRecognize",
                split.matrix,
                f"split off an abelian summand of dimension {d}",
                M,
            )
        ] + sub.trace
        return RecognitionResult(cid, iso, trace)

    Q, thetas, phi = factor_by_center(K)
    s = len(thetas)
    sub = _recognize_checked(Q)
    key = (sub.id.key[0], sub.id.key[1], s)
    if key not in DISPATCH:
        raise InternalInvariantViolated(
            f"no central extensions of {sub.id.label()} with centre dimension {s}"
        )
    rep_dicts, case = DISPATCH[key]
    N = catalog.instantiate(sub.id)
    tau = sub.iso.matrix
    tau_inv = tau.invert()
    # the cocycles composed with the inverse of the quotient recognition map
    etas = [SkewForm(N, th.pullback(tau_inv).coeffs) for th in thetas]
    tau_hat = tau.block_diag(Matrix.identity(field, s))

    eng = NormEngine((sub.id.key[0], sub.id.key[1]), N, etas, rep_dicts)
    cid = case(eng)

    total = eng.total * tau_hat * phi.matrix
    iso = LinearMap(K, catalog.instantiate(cid), total)
    trace = [
        NormalizationStep(
            "QuotientRecognize",
            tau,
            f"quotient by the centre recognized as {sub.id.label()}",
            tau_hat * phi.matrix,
        )
    ] + sub.trace + eng.steps
    return RecognitionResult(cid, iso, trace)
