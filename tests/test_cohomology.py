import random

import pytest

from nilcat.catalog import ids_over, instantiate, raw_table
from nilcat.cohomology import (
    SkewForm,
    assemble_iso,
    aut_action,
    central_extension,
    coboundary_shift_iso,
    compute_spaces,
    extension_center_ok,
    factor_by_center,
    joint_radical,
    no_central_component,
    pairs,
    recover_functional,
)
from nilcat.errors import Eq1Violated, NotACocycle, NotAnAutomorphism
from nilcat.field import prime_field, rationals
from nilcat.liealg import LieAlgebra
from nilcat.linalg import Matrix
from nilcat.oracle import fuzz_basis_change

Q = rationals()
F3 = prime_field(3)


def sk(L, d):
    return SkewForm.from_dict(L, d)


def test_compute_spaces_heisenberg():
    coh = compute_spaces(raw_table(Q, 3, 2))
    assert (coh.dim_z2, coh.dim_b2, coh.dim_h2) == (3, 1, 2)
    reps = {repr(f) for f in coh.h2reps}
    assert reps == {"1*D13", "1*D23"}


def test_compute_spaces_abelian_dim4():
    coh = compute_spaces(LieAlgebra.abelian(Q, 4))
    assert coh.dim_z2 == 6 and coh.dim_b2 == 0 and coh.dim_h2 == 6


def test_compute_spaces_l59():
    coh = compute_spaces(raw_table(Q, 5, 9))
    assert coh.dim_h2 == 3


def test_z2_elements_are_cocycles_b2_recoverable():
    for key in [(4, 3), (5, 5), (5, 8)]:
        L = raw_table(Q, *key)
        coh = compute_spaces(L)
        for z in coh.z2:
            assert z.is_cocycle()
        for b in coh.b2:
            nu = recover_functional(L, b)
            assert nu is not None
            rebuilt = sk(
                L,
                {
                    (i + 1, j + 1): sum(
                        (nu[k] * L.bracket_basis(i, j)[k] for k in range(L.dim)),
                        Q.el(0),
                    )
                    for i in range(L.dim)
                    for j in range(i + 1, L.dim)
                },
            )
            assert rebuilt == b


def test_radical_examples():
    L31 = LieAlgebra.abelian(Q, 3)
    a, b, c = Q.el(2), Q.el(-3), Q.el(5)
    th = sk(L31, {(1, 2): a, (1, 3): b, (2, 3): c})
    rad = th.radical()
    assert rad.dim == 1
    assert rad.contains((c, -b, a))
    assert SkewForm.zero(L31).radical().dim == 3
    # nondegenerate on L43 when the (1,4) coefficient is present
    L43 = raw_table(Q, 4, 3)
    th = sk(L43, {(1, 4): 1})
    assert th.radical().intersect(L43.center()).dim == 0


def test_central_extension_tables():
    L31 = LieAlgebra.abelian(Q, 3)
    K, _ = central_extension(
        L31, [sk(L31, {(1, 2): 1}), sk(L31, {(1, 3): 1}), sk(L31, {(2, 3): 1})]
    )
    assert K == raw_table(Q, 6, 26)
    L32 = raw_table(Q, 3, 2)
    K, _ = central_extension(L32, [sk(L32, {(1, 3): 1}), sk(L32, {(2, 3): 1})])
    assert K == raw_table(Q, 5, 9)
    K, _ = central_extension(L32, [SkewForm.zero(L32)])
    assert K == L32.direct_sum(LieAlgebra.abelian(Q, 1))


def test_central_extension_rejects_non_cocycle():
    L43 = raw_table(Q, 4, 3)
    with pytest.raises(NotACocycle):
        central_extension(L43, [sk(L43, {(2, 4): 1})])


def test_extension_center_ok():
    L54 = raw_table(Q, 5, 4)
    th = sk(L54, {(1, 3): 1, (2, 4): 1, (3, 4): 1})
    assert th.is_cocycle()
    assert not extension_center_ok(L54, [th])  # x5 always stays in the radical
    L43 = raw_table(Q, 4, 3)
    for b in (0, 1, -2):
        th = sk(L43, {(1, 4): 1, (2, 3): b})
        assert extension_center_ok(L43, [th])
    L42 = raw_table(Q, 4, 2)
    assert not extension_center_ok(L42, [sk(L42, {(1, 3): 1})])
    assert extension_center_ok(L42, [sk(L42, {(1, 3): 1, (2, 4): 1})])


def test_no_central_component():
    L32 = raw_table(Q, 3, 2)
    t13, t23 = sk(L32, {(1, 3): 1}), sk(L32, {(2, 3): 1})
    assert no_central_component(L32, [t13, t23])
    # a coboundary is trivial in H^2
    assert not no_central_component(L32, [sk(L32, {(1, 2): 1})])
    assert not no_central_component(L32, [t13, t13])


def ref_factor_rows(K):
    """The former factor_by_center: the section defect [sigma x, sigma y] -
    sigma([x, y]) and the residues e_i - sigma(proj e_i) solved for in the
    centre's basis.  Returns (theta coefficient rows, phi's centre rows)."""
    C = K.center()
    Qt, proj, sect = K.quotient(C)
    basis = Matrix(K.field, [[b[i] for b in C.basis] for i in range(K.dim)])

    def coords_of(v):
        x = basis.solve(v)
        assert x is not None, "left the centre"
        return x

    theta_cols = []
    for a, b in pairs(Qt.dim):
        w = K.bracket(sect.matrix.col(a), sect.matrix.col(b))
        theta_cols.append(coords_of(
            tuple(wi - si for wi, si in zip(w, sect.apply(Qt.bracket_basis(a, b))))
        ))
    sp = sect.matrix * proj.matrix
    centre_cols = [
        coords_of(tuple(K.field.el(1 if r == i else 0) - sp.data[r][i] for r in range(K.dim)))
        for i in range(K.dim)
    ]
    return ([[col[l] for col in theta_cols] for l in range(C.dim)],
            [[col[l] for col in centre_cols] for l in range(C.dim)])


def test_quotient_then_extension_recovers_table():
    for cid in [c for F in (F3, prime_field(7), Q) for c in ids_over(F, 6)]:
        L = instantiate(cid)
        for K in [L] + [K for _, K in fuzz_basis_change(L, 2, seed=4)]:
            Qt, thetas, phi = factor_by_center(K)
            phi.verify()
            ext, _ = central_extension(Qt, thetas)
            assert phi.codomain == ext
            theta_rows, centre_rows = ref_factor_rows(K)
            assert [list(th.coeffs) for th in thetas] == theta_rows, cid.label()
            assert phi.matrix.data[Qt.dim:] == centre_rows, cid.label()


def test_extension_then_quotient_recovers_base():
    # quotient by the appended summand, with the canonical section, gives
    # back the base table verbatim
    import random

    from nilcat.liealg import Subspace

    rng = random.Random(8)
    for key in [(3, 2), (4, 2), (4, 3)]:
        L = raw_table(F3, *key)
        coh = compute_spaces(L)
        for _ in range(10):
            th = SkewForm.zero(L)
            for z in coh.z2:
                c = rng.randrange(3)
                if c:
                    th = th + z.scale(F3.el(c))
            K, _ = central_extension(L, [th], check=False)
            V = Subspace.from_spanning(
                F3, K.dim,
                [tuple(F3.el(1 if i == K.dim - 1 else 0) for i in range(K.dim))],
            )
            Qt, _, _ = K.quotient(V)
            assert Qt == L


def test_center_criterion_random():
    rng = random.Random(99)
    for key in [(3, 2), (4, 2), (4, 3)]:
        L = raw_table(F3, *key)
        coh = compute_spaces(L)
        for _ in range(100):
            coeffs = [rng.randrange(3) for _ in coh.z2]
            th = SkewForm.zero(L)
            for c, z in zip(coeffs, coh.z2):
                if c:
                    th = th + z.scale(F3.el(c))
            K, _ = central_extension(L, [th])
            big_center = K.center().dim
            if extension_center_ok(L, [th]):
                assert big_center == 1
            else:
                assert big_center > 1


def test_aut_action_group_property():
    L42 = raw_table(Q, 4, 2)
    phi = Matrix.from_rows(Q, [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 2, 0, 1]])
    psi = Matrix.from_rows(Q, [[2, 0, 0, 0], [0, 1, 0, 0], [1, 0, 2, 1], [0, 0, 0, 3]])
    th = sk(L42, {(1, 3): 1, (2, 4): 2, (1, 4): -1})
    lhs = aut_action(psi, aut_action(phi, th))
    rhs = th.pullback(phi * psi)
    assert lhs == rhs
    assert aut_action(Matrix.identity(Q, 4), th) == th


def test_aut_action_rejects_non_automorphism():
    L42 = raw_table(Q, 4, 2)
    bad = Matrix.from_rows(Q, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])
    with pytest.raises(NotAnAutomorphism):
        aut_action(bad, sk(L42, {(1, 3): 1}))


def test_coboundary_shift_iso():
    L32 = raw_table(Q, 3, 2)
    th = sk(L32, {(1, 3): 1})
    nu = (Q.el(0), Q.el(0), Q.el(5))  # nu(x3) = 5 adds 5*D12
    iso = coboundary_shift_iso(L32, [th], [nu])
    assert iso.verified
    assert iso.codomain == central_extension(L32, [th + sk(L32, {(1, 2): 5})])[0]


def test_assemble_iso_and_eq1_rejection():
    L32 = raw_table(Q, 3, 2)
    th = sk(L32, {(1, 3): 1})
    eta = sk(L32, {(1, 3): 2, (1, 2): 1})
    # identity automorphism, centre scaling 2, functional nu(x3)=1
    A = Matrix.from_rows(Q, [[2]])
    B = Matrix.from_rows(Q, [[0], [0], [1]])
    iso = assemble_iso(L32, [th], [eta], Matrix.identity(Q, 3), A, B)
    assert iso.verified
    # corrupt the centre matrix: the compatibility equation must fail
    with pytest.raises(Eq1Violated):
        assemble_iso(L32, [th], [eta], Matrix.identity(Q, 3), Matrix.from_rows(Q, [[3]]), B)


def test_assemble_iso_non_symmetric_centre_change():
    # e_k -> sum_l A[l][k] e_l: with A = [[1, 1], [0, 1]] the map sends e_2
    # to e_1 + e_2, so eta_1 = theta_1 + theta_2 and eta_2 = theta_2
    L31 = LieAlgebra.abelian(Q, 3)
    thetas = [sk(L31, {(1, 2): 1}), sk(L31, {(1, 3): 1})]
    etas = [sk(L31, {(1, 2): 1, (1, 3): 1}), sk(L31, {(1, 3): 1})]
    A = Matrix.from_rows(Q, [[1, 1], [0, 1]])
    iso = assemble_iso(L31, thetas, etas, Matrix.identity(Q, 3), A, Matrix.zeros(Q, 3, 2))
    assert iso.verified
    assert iso.matrix.data[3][4] == Q.el(1) and not iso.matrix.data[4][3].v
    # the transposed datum is not compatible
    transposed = [sk(L31, {(1, 2): 1}), sk(L31, {(1, 2): 1, (1, 3): 1})]
    with pytest.raises(Eq1Violated):
        assemble_iso(L31, thetas, transposed, Matrix.identity(Q, 3), A, Matrix.zeros(Q, 3, 2))


def test_joint_radical_intersection():
    L31 = LieAlgebra.abelian(Q, 3)
    t1 = sk(L31, {(1, 2): 1})
    t2 = sk(L31, {(1, 3): 1})
    assert joint_radical([t1]).dim == 1
    assert joint_radical([t1, t2]).dim == 0


def test_aut_action_orbit_move_on_l42():
    # the stabilizer member with a34 = -b pulls the class of D13 + b*D14
    # back to the class of D13 (difference is a coboundary)
    from nilcat.autgroups import template_for

    L42 = raw_table(Q, 4, 2)
    coh = compute_spaces(L42)
    for b in (Q.el(3), Q.el("-1/2")):
        th = sk(L42, {(1, 3): 1, (1, 4): b})
        phi = template_for(Q, 4, 2)({"a34": -b})
        moved = aut_action(phi, th)
        diff = moved - sk(L42, {(1, 3): 1})
        rows = [list(f.coeffs) for f in coh.b2]
        from nilcat.liealg import Subspace

        assert Subspace.from_spanning(Q, len(diff.coeffs), rows).contains(diff.coeffs)
