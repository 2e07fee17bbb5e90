import pytest

from nilcat.catalog import CatalogId, ids_over, instantiate, raw_table, same_id, scaling_iso
from nilcat.cohomology import SkewForm
from nilcat.errors import (
    DimTooLarge,
    InternalInvariantViolated,
    NotALieAlgebra,
    NotAnAutomorphism,
    NotNilpotent,
)
from nilcat.field import prime_field, rationals
from nilcat.liealg import LieAlgebra, LinearMap
from nilcat.linalg import Matrix
from nilcat.oracle import fuzz_basis_change, invariant_vector
from nilcat.autgroups import template_for
from nilcat.recognize import recognize, skew_normal_form

Q = rationals()
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)


def worked_example(field):
    """Six-dimensional input used as the end-to-end fixture."""
    return LieAlgebra.from_table(
        field,
        6,
        {
            (1, 2): {3: 1, 6: 1},
            (1, 3): {5: 1, 6: 1},
            (1, 4): {5: 1},
            (2, 3): {6: 1},
            (2, 4): {5: 2, 6: 1},
        },
    )


def test_worked_example_recognition():
    r = recognize(worked_example(Q))
    assert r.id.label() == "L6_24(eps=-1)"
    assert r.iso.verified
    # the canonical class representative of -4 is -1; the explicit family
    # scaling reconciles the two parameter values
    rec = scaling_iso(Q, 6, 24, -1, -4)
    assert rec.verified
    comp = rec.compose(r.iso)
    assert comp.is_isomorphism()
    assert comp.codomain == raw_table(Q, 6, 24, -4)


def test_idempotence_over_f3():
    for dim in range(1, 7):
        for cid in ids_over(F3, dim):
            r = recognize(instantiate(cid))
            assert same_id(r.id, cid), cid.label()
            assert r.iso.verified


def test_fixed_point_identity_composable():
    L = instantiate(CatalogId(Q, 6, 16))
    r = recognize(L)
    assert same_id(r.id, CatalogId(Q, 6, 16))
    assert r.iso.codomain == L


def test_round_trip_small_fuzz():
    for field, seed in ((F3, 101), (Q, 202)):
        for dim in range(3, 7):
            for cid in ids_over(field, dim):
                L = instantiate(cid)
                for P, K in fuzz_basis_change(L, 2, seed=seed):
                    r = recognize(K)
                    assert same_id(r.id, cid), f"{cid.label()} -> {r.id.label()}"
                    assert r.iso.verified


def test_invariants_preserved():
    L = instantiate(CatalogId(Q, 6, 21, 2))
    for P, K in fuzz_basis_change(L, 3, seed=7):
        r = recognize(K)
        assert invariant_vector(K) == invariant_vector(instantiate(r.id))


def test_parameter_well_defined():
    import random

    rng = random.Random(31)
    for field in (Q, F7):
        if field.is_rationals:
            alphas = [
                field.el(rng.randint(1, 40)) / field.el(rng.randint(1, 40))
                for _ in range(20)
            ]
        else:
            alphas = [field.el(rng.randrange(1, 7)) for _ in range(20)]
        for key in ((6, 19), (6, 21), (6, 22), (6, 24)):
            base = field.el(2)
            want = recognize(raw_table(field, key[0], key[1], base)).id
            for al in alphas:
                got = recognize(raw_table(field, key[0], key[1], al * al * base)).id
                assert same_id(want, got)


def test_param_square_class_over_f7():
    # 2 is a quadratic residue mod 7, so eps=2 lands in the class of 1
    L = raw_table(F7, 6, 19, 2)
    for P, K in fuzz_basis_change(L, 2, seed=3):
        r = recognize(K)
        assert r.id == CatalogId(F7, 6, 19, 1)


def test_errors():
    with pytest.raises(DimTooLarge):
        recognize(LieAlgebra.abelian(Q, 7))
    with pytest.raises(NotNilpotent):
        recognize(LieAlgebra.from_table(Q, 2, {(1, 2): {2: 1}}))
    with pytest.raises(NotALieAlgebra):
        recognize(LieAlgebra.from_table(Q, 3, {(1, 2): {3: 1}, (1, 3): {1: 1}}))


def test_trace_composition_matches_iso():
    for L in (worked_example(Q), raw_table(Q, 6, 13)):
        r = recognize(L)
        lifted = [s.full for s in r.trace if s.full is not None and s.full.rows == 6]
        acc = Matrix.identity(Q, 6)
        for M in lifted:
            acc = M * acc
        assert acc == r.iso.matrix


def test_trace_step_kinds():
    r = recognize(worked_example(Q))
    kinds = {s.kind for s in r.trace}
    assert "QuotientRecognize" in kinds
    assert "AutApply" in kinds
    assert "CenterBaseChange" in kinds


# -- skew normal form ------------------------------------------------------


def test_skew_normal_form_examples():
    L41 = LieAlgebra.abelian(Q, 4)
    th = SkewForm.from_dict(L41, {(1, 3): 1, (2, 4): 1})
    P, r = skew_normal_form(th)
    assert r == 4
    assert th.pullback(P) == SkewForm.from_dict(L41, {(1, 2): 1, (3, 4): 1})

    z = SkewForm.zero(L41)
    P, r = skew_normal_form(z)
    assert r == 0 and P == Matrix.identity(Q, 4)

    L2 = LieAlgebra.abelian(Q, 2)
    th = SkewForm.from_dict(L2, {(1, 2): 2})
    P, r = skew_normal_form(th)
    assert r == 2
    assert th.pullback(P) == SkewForm.from_dict(L2, {(1, 2): 1})


def test_skew_normal_form_random():
    import random

    rng = random.Random(5)
    L = LieAlgebra.abelian(F5, 5)
    npairs = 10
    for _ in range(20):
        th = SkewForm(L, [F5.el(rng.randrange(5)) for _ in range(npairs)])
        P, r = skew_normal_form(th)
        assert P.is_invertible()
        got = th.pullback(P)
        want = {}
        for k in range(0, r, 2):
            want[(k + 1, k + 2)] = 1
        assert got == SkewForm.from_dict(L, want)
        assert r == th.gram().rank()


# -- automorphism templates -------------------------------------------------


def test_aut_template_defaults_are_identity():
    for key in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 5), (5, 6), (5, 7), (5, 8), (5, 9)]:
        tpl = template_for(Q, *key)
        assert tpl({}) == Matrix.identity(Q, key[0])


def test_aut_template_random_params_verified():
    # a template call checks only invertibility; every matrix it emits must
    # still preserve the bracket
    import random

    from nilcat.autgroups import _BUILDERS

    rng = random.Random(12)
    emitted = 0
    for field in (F5, F7, Q):
        for key in _BUILDERS:
            tpl = template_for(field, *key)
            for _ in range(30):
                params = {}
                for i in range(1, key[0] + 1):
                    for j in range(1, key[0] + 1):
                        if rng.random() < 0.3:
                            params[f"a{i}{j}"] = (rng.randint(-3, 3) if field.is_rationals
                                                  else rng.randrange(field.p))
                try:
                    M = tpl(params)
                except NotAnAutomorphism:
                    continue
                assert M.is_invertible()
                assert LinearMap(tpl.algebra, tpl.algebra, M).is_isomorphism(), (key, params)
                emitted += 1
    assert emitted > 300


def test_aut_template_l57_is_block_triangular():
    tpl = template_for(Q, 5, 7)
    M = tpl({"a11": 2, "a21": 3, "a22": 5, "a32": 7, "a42": 1, "a52": 4})
    for i in range(5):
        for j in range(i + 1, 5):
            assert not M.data[i][j].v


def test_aut_template_rejects_singular():
    tpl = template_for(Q, 4, 2)
    with pytest.raises(NotAnAutomorphism):
        tpl({"a11": 0, "a12": 0})


def test_normalizer_examples_direct():
    from nilcat.cohomology import central_extension

    # a deformed cocycle on the filiform quotient lands on the b=1 member
    L57 = raw_table(Q, 5, 7)
    K, _ = central_extension(
        L57, [SkewForm.from_dict(L57, {(1, 5): 1, (2, 3): 5})]
    )
    r = recognize(K)
    assert r.id == CatalogId(Q, 6, 17)
    # the nondegenerate orbit over the dim-4 quotient gives the dim-5 entry
    L42 = raw_table(Q, 4, 2)
    K, _ = central_extension(L42, [SkewForm.from_dict(L42, {(1, 3): 1, (2, 4): 1})])
    r = recognize(K)
    assert r.id == CatalogId(Q, 5, 5)


def test_dispatch_has_no_impossible_cases():
    from nilcat.normalizers import DISPATCH

    assert (5, 4, 1) not in DISPATCH  # every cocycle there has central radical
    assert (5, 1, 1) not in DISPATCH  # odd-dimensional abelian quotient
    assert set(k[2] for k in DISPATCH) == {1, 2, 3}


def test_dispatch_values_are_reps_and_case():
    # (reps, case) pairs: the benchmark's tracer unpacks them this way
    from nilcat.normalizers import DISPATCH

    for key, value in DISPATCH.items():
        reps, case = value
        assert isinstance(reps, list) and reps, key
        assert all(isinstance(d, dict) for d in reps), key
        assert all(len(p) == 2 and p[0] < p[1] for d in reps for p in d), key
        assert callable(case), key


def test_finish_checks_the_defining_cocycles():
    from nilcat.normalizers import DISPATCH
    from nilcat.recognize import NormEngine

    def engine():
        N = raw_table(Q, 2, 1)
        etas = [SkewForm.from_dict(N, {(1, 2): 2})]
        return NormEngine((2, 1), N, etas, DISPATCH[(2, 1, 1)][0])

    eng = engine()
    with pytest.raises(InternalInvariantViolated, match="normal form does not match"):
        eng.finish((3, 2))
    eng.scale_eta(0, Q.el("1/2"))
    assert eng.finish((3, 2)) == CatalogId(Q, 3, 2)
    # L4_3 is an extension of L3_2, not of the engine's quotient L2_1
    eng = engine()
    eng.scale_eta(0, Q.el("1/2"))
    with pytest.raises(InternalInvariantViolated, match="not an extension of"):
        eng.finish((4, 3))


def test_random_extension_recognition():
    # extensions built directly from random cocycles, not basis changes:
    # exercises every dispatch branch with verified output
    import random

    from nilcat.cohomology import (
        central_extension,
        compute_spaces,
        extension_center_ok,
        no_central_component,
    )

    rng = random.Random(1312)
    quots = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
             (5, 2), (5, 3), (5, 5), (5, 6), (5, 7), (5, 8), (5, 9)]
    done = 0
    for field in (F3, Q):
        for key in quots:
            L = raw_table(field, *key)
            coh = compute_spaces(L)
            smax = 6 - L.dim
            for _ in range(12):
                s = rng.randint(1, min(3, smax))
                thetas = []
                for _ in range(s):
                    th = SkewForm.zero(L)
                    for z in coh.z2:
                        c = (rng.randint(-2, 2) if field.is_rationals
                             else rng.randrange(field.p))
                        if c:
                            th = th + z.scale(field.el(c))
                    thetas.append(th)
                if not extension_center_ok(L, thetas):
                    continue
                if not no_central_component(L, thetas):
                    continue
                K, _ = central_extension(L, thetas, check=False)
                r = recognize(K)
                assert r.iso.verified
                done += 1
    assert done > 100


def test_recognition_is_deterministic():
    # byte-for-byte reproducible output isomorphisms
    L = worked_example(Q)
    r1, r2 = recognize(L), recognize(L)
    assert r1.id == r2.id
    assert r1.iso.matrix == r2.iso.matrix
    assert [s.kind for s in r1.trace] == [s.kind for s in r2.trace]


def _count_isomorphism_checks(monkeypatch):
    calls = []
    orig = LinearMap.is_isomorphism

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(LinearMap, "is_isomorphism", counted)
    return calls


@pytest.mark.parametrize(
    "make, kind",
    [
        (lambda: LieAlgebra.abelian(Q, 4), None),
        (lambda: instantiate(CatalogId(Q, 3, 2)).direct_sum(LieAlgebra.abelian(Q, 3)),
         "QuotientRecognize"),
        (lambda: worked_example(F5), "CoboundaryShift"),
        (lambda: raw_table(Q, 6, 24, -4), "ScaleParam"),
    ],
)
def test_recognition_certifies_once(monkeypatch, make, kind):
    # intermediate steps are not checked on their own: the one exact
    # isomorphism check is the final one, on the returned map
    K = make()
    calls = _count_isomorphism_checks(monkeypatch)
    r = recognize(K)
    assert len(calls) == 1 and calls[0] is r.iso and r.iso.verified
    assert kind is None or kind in [s.kind for s in r.trace]


@pytest.mark.parametrize("step", ["relabel", "scale"])
def test_corrupted_step_fails_the_certificate(monkeypatch, step):
    from nilcat import catalog
    from nilcat.recognize import NormEngine

    if step == "relabel":
        orig = NormEngine.relabel

        def broken(self, cols, *args, **kwargs):
            cols = [{i: 2 * v for i, v in cols[0].items()}] + list(cols[1:])
            return orig(self, cols, *args, **kwargs)

        monkeypatch.setattr(NormEngine, "relabel", broken)
        ((_, K),) = fuzz_basis_change(instantiate(CatalogId(Q, 6, 13)), 1, seed=3)
    else:
        orig = catalog.scaling_matrix
        monkeypatch.setattr(
            catalog, "scaling_matrix", lambda *a: orig(*a).scale(Q.el(2))
        )
        K = raw_table(Q, 6, 24, -4)
    with pytest.raises(NotAnAutomorphism):
        recognize(K)
