"""Independent verification tools: isomorphism-invariant fingerprints, a
filtration-respecting backtracking isomorphism search over prime fields,
and a seeded basis-change fuzzer.

The search runs on the raw values the rest of nilcat uses: coordinate
lists of ints mod p, each algebra's raw bracket and cached lower central
series, liealg's Subspace (raw RREF rows, reduction and the greedy
complement) for every span, complement and rank, and linalg's solve_raw.
It peels off central components first (complements of the centre meet
the derived subalgebra trivially, so cores are unique up to
isomorphism), compares graded rank profiles of the lower-central-series
quotients, and then enumerates images of a generating set in two
stages: the induced map on the graded quotients, pruned by exact
relation transport over every generator pair, and lifts of the
surviving graded maps, pruned by incremental bracket consistency.  The
node budget bounds every enumeration: when one would have more elements
than the budget allows nodes, the search returns "budget" before
building it.  Any map found is re-verified as an isomorphism on the
public exact types before it escapes this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .cohomology import compute_spaces
from .errors import InternalInvariantViolated, MixedFields, ZeroArgument
from .liealg import LieAlgebra, LinearMap, Subspace
from .linalg import Matrix, solve_raw


@dataclass
class IsoSearchConfig:
    max_nodes: int = 10_000_000

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ZeroArgument("node budget must be positive")


@dataclass
class IsoOutcome:
    status: str  # "iso" | "non_iso" | "budget"
    iso: LinearMap | None
    nodes: int


def invariant_vector(L: LieAlgebra):
    """Isomorphism-invariant fingerprint used as a cheap prefilter."""
    lcs = tuple(S.dim for S in L.lower_central_series())
    der = tuple(S.dim for S in L.derived_series())
    C = L.center()
    D = L.derived_subalgebra()
    return (lcs, der, C.dim, C.intersect(D).dim, compute_spaces(L).dim_h2)


# -- raw coordinate lists over F_p ----------------------------------------


def _combo(p, n, terms):
    """The sum of c * v over the (c, v) terms, reduced mod p."""
    out = [0] * n
    for c, v in terms:
        if c:
            for i, y in enumerate(v):
                out[i] += c * y
    return [x % p for x in out]


def _span_elements(basis, p, n):
    coeffs = product(range(p), repeat=len(basis))
    return [tuple(_combo(p, n, zip(cs, basis))) for cs in coeffs]


class _Grade:
    """Coordinates in one graded slice F_w / F_{w+1}."""

    def __init__(self, upper: Subspace, lower: Subspace):
        self.lower = lower
        self.reps, _ = lower.complement(upper.rows)
        red = [lower._reduce_raw(r) for r in self.reps]
        self.solver = [list(col) for col in zip(*red)]

    @property
    def dim(self):
        return len(self.reps)

    def coord_of(self, v):
        red = self.lower._reduce_raw(v)
        if not self.reps:
            return () if not any(red) else None
        sol = solve_raw(self.lower.field, self.solver, red, self.dim)
        return None if sol is None else tuple(sol)


def _grades(series):
    """The slices F_w / F_{w+1} for w >= 2 of a lower central series."""
    return [_Grade(series[w], series[w + 1]) for w in range(1, len(series) - 1)]


def _proj_functionals(s, p):
    """Nonzero functionals on F_p^s up to scalar (first nonzero entry 1)."""
    out = []
    for v in product(range(p), repeat=s):
        if not any(v):
            continue
        lead = next(x for x in v if x)
        if lead == 1:
            out.append(v)
    return out


def _rank_profile(L: LieAlgebra, series, grades):
    """Per weight w >= 2, the sorted ranks of f composed with the graded
    bracket into F_w / F_{w+1}, over all functionals f up to scalar.

    An isomorphism induces graded isomorphisms, so this multiset family is
    an isomorphism invariant.
    """
    field, p = L.field, L.field.p
    g1 = _Grade(series[0], series[1])
    profile = []
    for w in range(2, len(grades) + 2):
        gw = grades[w - 2]
        if gw.dim == 0:
            continue
        right = g1 if w == 2 else grades[w - 3]
        Z = [[gw.coord_of(L._bracket_raw(a, b)) for b in right.reps] for a in g1.reps]
        ranks = []
        for f in _proj_functionals(gw.dim, p):
            M = [
                [0 if z is None else sum(fc * zc for fc, zc in zip(f, z)) % p for z in row]
                for row in Z
            ]
            ranks.append(Subspace._span_raw(field, right.dim, M).dim)
        profile.append((w, tuple(sorted(ranks))))
    return tuple(profile)


def _adapted_basis(L: LieAlgebra, gens):
    """Extend the generators by bracket monomials to a full basis."""
    vectors = list(gens)
    exprs = [("gen", t) for t in range(len(gens))]
    needs = list(range(len(gens)))
    span = Subspace._span_raw(L.field, L.dim, vectors)
    while len(vectors) < L.dim:
        m = len(vectors)
        for i, j in permutations(range(m), 2):
            w = L._bracket_raw(vectors[i], vectors[j])
            kept, span = span.complement([w])
            if kept:
                vectors.append(w)
                exprs.append(("br", i, j))
                needs.append(max(needs[i], needs[j]))
                break
        else:
            raise InternalInvariantViolated("generators do not generate")
    return vectors, exprs, needs


class _Budget(Exception):
    pass


def iso_search(A: LieAlgebra, B: LieAlgebra, cfg: IsoSearchConfig | None = None) -> IsoOutcome:
    """Backtracking isomorphism search over a prime field.

    Returns an IsoOutcome whose status is "iso" with a verified witness,
    "non_iso" after exhausting the constrained search space, or "budget"
    when the node budget ran out or an enumeration would exceed it (a
    distinguished result, not an error).
    """
    cfg = cfg or IsoSearchConfig()
    if A.field != B.field:
        raise MixedFields("algebras over different fields")
    if A.field.is_rationals:
        raise ZeroArgument("the search is only available over prime fields")
    if A.dim != B.dim or invariant_vector(A) != invariant_vector(B):
        return IsoOutcome("non_iso", None, 0)

    # split off central components; complements are unique up to
    # isomorphism, so it suffices to compare the cores.  Equal fingerprints
    # give abelian summands of equal dimension and equal series dimensions.
    core_a, da, split_a = A.strip_central_component()
    core_b, _, split_b = B.strip_central_component()
    if core_a.dim == 0:
        ident = LinearMap(A, B, Matrix.identity(A.field, A.dim))
        return IsoOutcome("iso", ident.verify(), 0)
    if da > 0:
        sub = iso_search(core_a, core_b, cfg)
        if sub.status != "iso":
            return sub
        M = (
            split_b.matrix.invert()
            * sub.iso.matrix.block_diag(Matrix.identity(A.field, da))
            * split_a.matrix
        )
        return IsoOutcome("iso", LinearMap(A, B, M).verify(), sub.nodes)

    field, p, n = A.field, A.field.p, A.dim
    series_a, series_b = A.lower_central_series(), B.lower_central_series()
    grades_a, grades_b = _grades(series_a), _grades(series_b)

    std = series_a[0].rows
    gens_a, _ = series_a[1].complement(std)
    reps_b, _ = series_b[1].complement(std)
    # generator corrections live in F2; shifts by central elements change
    # neither bracket consistency nor (given graded bijectivity)
    # invertibility, so coset representatives modulo the centre suffice.
    # After splitting off central components the centre sits inside F2.
    comp, _ = B.center().complement(series_b[1].rows)
    m = len(gens_a)
    # p^m graded candidates per generator, p^k corrections and the rank
    # profile's p^s functionals: give up before any of them outgrows the budget
    if p ** max(m, len(comp), *(g.dim for g in grades_a)) > cfg.max_nodes:
        return IsoOutcome("budget", None, 0)
    if _rank_profile(A, series_a, grades_a) != _rank_profile(B, series_b, grades_b):
        return IsoOutcome("non_iso", None, 0)

    vectors, exprs, needs = _adapted_basis(A, gens_a)
    weights = []
    for e in exprs:
        weights.append(1 if e[0] == "gen" else weights[e[1]] + weights[e[2]])

    # graded class of [b_i, b_j] for every adapted pair, zero rows included
    max_w = len(grades_a) + 1
    pairs_by_weight: dict[int, list] = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = weights[i] + weights[j]
            if w > max_w:
                u = None  # bracket must vanish identically
            else:
                u = grades_a[w - 2].coord_of(A._bracket_raw(vectors[i], vectors[j]))
                if u is None:
                    raise InternalInvariantViolated("graded coordinates failed")
            pairs_by_weight.setdefault(min(w, max_w + 1), []).append(
                (i, j, max(needs[i], needs[j]), u)
            )
    # a graded isomorphism keeps the rank of A's pair rows in each weight
    u_rank = {
        w: Subspace._span_raw(field, grades_a[w - 2].dim, [u for *_, u in rows]).dim
        for w, rows in pairs_by_weight.items()
        if w <= max_w
    }

    basis_mat = [[vectors[k][i] for k in range(n)] for i in range(n)]
    basis_inv = Matrix.from_rows(field, basis_mat).invert()
    expand = {}
    for i in range(n):
        for j in range(i + 1, n):
            sol = solve_raw(field, basis_mat, A._bracket_raw(vectors[i], vectors[j]), n)
            expand[(i, j)] = tuple((k, c) for k, c in enumerate(sol) if c)
    pair_req = {
        (i, j): max(needs[i], needs[j], max((needs[k] for k, _ in terms), default=0))
        for (i, j), terms in expand.items()
    }

    f2b_elems = _span_elements(comp, p, n)
    nodes = 0
    budget = cfg.max_nodes
    witness: list[LinearMap] = []

    def lift_of(col):
        return tuple(_combo(p, n, zip(col, reps_b)))

    def word_image(k, gen_imgs, cache):
        if k in cache:
            return cache[k]
        e = exprs[k]
        if e[0] == "gen":
            out = gen_imgs[e[1]]
        else:
            out = B._bracket_raw(
                word_image(e[1], gen_imgs, cache), word_image(e[2], gen_imgs, cache)
            )
        cache[k] = out
        return out

    def graded_ok(t, lifts, final=False):
        cache = {}
        for w, rows in pairs_by_weight.items():
            gb = grades_b[w - 2] if w <= max_w else None
            urows, vrows = [], []
            for (i, j, need, u) in rows:
                if need > t:
                    continue
                img = B._bracket_raw(
                    word_image(i, lifts, cache), word_image(j, lifts, cache)
                )
                if gb is None:
                    if any(img):
                        return False
                    continue
                vc = gb.coord_of(img)
                if vc is None:
                    return False
                urows.append(u)
                vrows.append(vc)
            if not urows or gb.dim == 0:
                continue
            for c in range(gb.dim):
                if solve_raw(field, urows, [v[c] for v in vrows], gb.dim) is None:
                    return False
            if final and Subspace._span_raw(field, gb.dim, vrows).dim != u_rank[w]:
                return False
        return True

    def try_full(gen_imgs):
        cache = {}
        imgs = [word_image(k, gen_imgs, cache) for k in range(n)]
        for (i, j), terms in expand.items():
            rhs = _combo(p, n, ((c, imgs[k]) for k, c in terms))
            if B._bracket_raw(imgs[i], imgs[j]) != rhs:
                return None
        T = Matrix.from_rows(field, [[imgs[k][i] for k in range(n)] for i in range(n)])
        lin = LinearMap(A, B, T * basis_inv)
        if not lin.is_isomorphism():
            return None
        lin.verified = True
        return lin

    def search_lift(t, gen_imgs, lifts):
        nonlocal nodes
        if t == m:
            got = try_full(gen_imgs)
            if got is not None:
                witness.append(got)
                return True
            return False
        for corr in f2b_elems:
            nodes += 1
            if nodes > budget:
                raise _Budget()
            gen_imgs.append(tuple((a + b) % p for a, b in zip(lifts[t], corr)))
            ok = True
            cache = {}
            for (i, j), req in pair_req.items():
                if req != t:
                    continue
                lhs = B._bracket_raw(
                    word_image(i, gen_imgs, cache), word_image(j, gen_imgs, cache)
                )
                terms = expand[(i, j)]
                if lhs != _combo(p, n, ((c, word_image(k, gen_imgs, cache)) for k, c in terms)):
                    ok = False
                    break
            if ok and search_lift(t + 1, gen_imgs, lifts):
                return True
            gen_imgs.pop()
        return False

    unit = [tuple(1 if k == t else 0 for k in range(m)) for t in range(m)]

    def candidates():
        # standard basis vectors first: when the tables coincide the identity
        # map is then the first assignment the search completes
        yield from unit
        for v in product(range(p), repeat=m):
            if any(v) and v not in unit:
                yield v

    def search_psi(t, cols, chosen):
        nonlocal nodes
        if t == m:
            lifts = [lift_of(c) for c in cols]
            if not graded_ok(m - 1, lifts, final=True):
                return False
            return search_lift(0, [], lifts)
        for v in candidates():
            nodes += 1
            if nodes > budget:
                raise _Budget()
            if not any(chosen._reduce_raw(v)):
                continue
            lifts = [lift_of(c) for c in cols + [v]]
            if not graded_ok(t, lifts):
                continue
            if search_psi(t + 1, cols + [v], chosen.complement([v])[1]):
                return True
        return False

    try:
        found = search_psi(0, [], Subspace(field, m, (), ()))
    except _Budget:
        return IsoOutcome("budget", None, nodes)
    if found:
        return IsoOutcome("iso", witness[0], nodes)
    return IsoOutcome("non_iso", None, nodes)


def fuzz_basis_change(L: LieAlgebra, trials: int, seed: int):
    """Deterministic stream of (P, change_basis(L, P)) with P invertible.

    Uses the stdlib Mersenne Twister seeded with `seed`; rational entries
    are drawn from -2..2, prime-field entries uniformly.
    """
    rng = random.Random(seed)
    field = L.field
    n = L.dim
    for _ in range(trials):
        while True:
            if field.is_rationals:
                rows = [
                    [Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)
                ]
            else:
                rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
            P = Matrix.from_rows(field, rows)
            if P.is_invertible():
                break
        yield P, L.change_basis(P)
