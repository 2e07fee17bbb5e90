"""Per-quotient cocycle normalizers.

Each function takes a NormEngine holding the transported cocycles on a
catalog quotient and drives them to the defining cocycles of exactly one
catalog entry, emitting elementary steps along the way, then calls
NormEngine.finish, which compares them with the catalog's.  Where the
cocycles cannot reach that form, relabellings fold them onto the entry's
table and only the final certificate checks the fold.  The branch
structure mirrors the orbit analyses of the automorphism groups on
the cocycle representatives; every "choose a parameter so that ..." is
resolved to a closed formula here.

Dispatch key: (quotient dim, quotient index, centre dimension).
"""

from __future__ import annotations

from .field import two_by_two_with_det
from .linalg import Matrix


def _send_pair_to_e1(eng, x, y):
    """Automorphism parameters from a 2x2 block with determinant 1 that
    maps the coefficient pair (x, y) to (1, 0)."""
    M = two_by_two_with_det(x, y, eng.field.one())
    return {"a11": M[0][0], "a12": M[1][0], "a21": M[0][1], "a22": M[1][1]}


def _move_to_standard(eng, why: str, note: str):
    """Centre base change sending the cocycles to the representatives,
    from the matrix of their coordinates."""
    C = Matrix(eng.field, [list(eng.c(i)) for i in range(eng.s)])
    eng.require(C.is_invertible(), why)
    eng.center(C.invert().data, note)


# ---------------------------------------------------------------- dim <= 5


def _c_2_1_s1(eng):
    (a,) = eng.c(0)
    eng.require(bool(a.v), "form vanishes on the plane")
    if a != eng.field.one():
        eng.scale_eta(0, a.inv(), "make the form unimodular")
    return eng.finish((3, 2))


def _c_3_2_s1(eng):
    a, b = eng.c(0)
    eng.require(a.v or b.v, "radical contains the derived line")
    eng.aut(_send_pair_to_e1(eng, a, b), "send the coefficient pair to (1, 0)")
    return eng.finish((4, 3))


def _c_4_1_s1(eng):
    r = eng.skew_canonical(0)
    eng.require(r == 4, "form on the abelian quotient is degenerate")
    return eng.finish((5, 4))


def _c_4_2_s1(eng):
    a, b, c, d = eng.c(0)
    if not a.v:
        eng.require(c.v, "x3 stays in the radical")
        eng.aut({"a21": 1}, "make the (1,3) coefficient nonzero")
        a, b, c, d = eng.c(0)
    eng.aut({"a11": a.inv(), "a22": a}, "scale the (1,3) coefficient to 1")
    a, b, c, d = eng.c(0)
    if c.v:
        eng.aut({"a12": -c}, "clear the (2,3) coefficient")
        a, b, c, d = eng.c(0)
    if b.v:
        eng.aut({"a34": -b}, "clear the (1,4) coefficient")
        a, b, c, d = eng.c(0)
    eng.require(d.v, "x4 stays in the radical")
    if d != eng.field.one():
        eng.aut({"a44": d.inv()}, "scale the (2,4) coefficient to 1")
    return eng.finish((5, 5))


def _c_4_3_s1(eng):
    a, b = eng.c(0)
    eng.require(a.v, "x4 stays in the radical")
    if a != eng.field.one():
        eng.scale_eta(0, a.inv())
    a, b = eng.c(0)
    if b.is_zero:
        return eng.finish((5, 7))
    eng.aut({"a11": b, "a22": b}, "weighted scaling equalizes the coefficients")
    a, b = eng.c(0)
    eng.require(a == b and a.v, "scaling drifted")
    eng.scale_eta(0, a.inv())
    return eng.finish((5, 6))


def _c_3_1_s2(eng):
    r = eng.skew_canonical(0)
    eng.require(r == 2, "leading form vanishes")
    z = eng.c(1)[0]
    if z.v:
        eng.sub_eta(1, 0, z, "reduce the second form modulo the first")
    z, b, c = eng.c(1)
    if not b.v:
        eng.require(c.v, "forms are dependent")
        P = Matrix.from_rows(eng.field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        eng.aut(P, "swap the first two basis vectors")
        eng.center([[-1, 0], [0, 1]], "restore the leading form's sign")
        z, b, c = eng.c(1)
    eng.require(z.is_zero and b.v, "reduction drifted")
    if b != eng.field.one():
        eng.scale_eta(1, b.inv())
    z, b, c = eng.c(1)
    if c.v:
        eng.aut({"a12": -c}, "clear the (2,3) coefficient")
    return eng.finish((5, 8))


def _c_3_2_s2(eng):
    _move_to_standard(eng, "forms dependent modulo coboundaries", "move to the standard pair")
    return eng.finish((5, 9))


# ------------------------------------------------------------- dim 6, s=1


def _c_5_2_s1(eng):
    a, b, c, d, e, f, g = eng.c(0)
    eng.require(g.v and (a.v or d.v), "radical meets the centre")
    eng.aut(_send_pair_to_e1(eng, a, d), "send (a, d) to (1, 0)")
    a, b, c, d, e, f, g = eng.c(0)
    eng.require(a == eng.field.one() and d.is_zero, "pair move failed")
    if b.v or c.v:
        eng.aut({"a34": -b, "a35": -c}, "clear the (1,4) and (1,5) coefficients")
        a, b, c, d, e, f, g = eng.c(0)
    if e.v or f.v:
        eng.aut(
            {"a52": e / g, "a42": -(f / g)},
            "clear the (2,4) and (2,5) coefficients",
        )
        a, b, c, d, e, f, g = eng.c(0)
    eng.require(
        all(x.is_zero for x in (b, c, d, e, f)) and a == eng.field.one(),
        "normalization drifted",
    )
    if g != eng.field.one():
        eng.aut({"a44": g.inv()}, "scale the (4,5) coefficient to 1")
    return eng.finish((6, 10))


def _c_5_3_s1(eng):
    a, b, c, d = eng.c(0)
    eng.require(a.v and d.v, "radical meets the centre")
    if a != eng.field.one():
        eng.scale_eta(0, a.inv())
    a, b, c, d = eng.c(0)
    eng.aut(
        {"a55": d.inv(), "a21": -(b / d)},
        "clear the (1,5) coefficient and scale (2,5) to 1",
    )
    a, b, c, d = eng.c(0)
    eng.require(a == eng.field.one() and b.is_zero and d == eng.field.one())
    if c.is_zero:
        return eng.finish((6, 12))
    eng.aut({"a11": c, "a22": c, "a55": c * c * c}, "weighted scaling absorbs c")
    a, b, c2, d = eng.c(0)
    eng.require(a == c2 and a == d and a.v and b.is_zero, "scaling drifted")
    eng.scale_eta(0, a.inv())
    return eng.finish((6, 11))


def _c_5_5_s1(eng):
    a, b, c, d = eng.c(0)  # on (D14, D15+D34, D23, D24)
    eng.require(b.v, "x5 stays in the radical")
    if b != eng.field.one():
        eng.scale_eta(0, b.inv())
    a, b, c, d = eng.c(0)
    if a.v or c.v:
        eng.aut({"a31": -a, "a42": c}, "clear the (1,4) and (2,3) coefficients")
        a, b, c, d = eng.c(0)
    eng.require(a.is_zero and b == eng.field.one() and c.is_zero, "drifted")
    if d.is_zero:
        return eng.finish((6, 13))
    eng.aut({"a11": d}, "weighted scaling absorbs d")
    a, b, c, d2 = eng.c(0)
    eng.require(b == d2 and b.v and a.is_zero and c.is_zero, "scaling drifted")
    eng.scale_eta(0, b.inv())
    eng.expect([{(1, 5): 1, (3, 4): 1, (2, 4): 1}])
    h = eng.field.el(2).inv()
    eng.relabel(
        [{1: 1, 4: h}, {2: 1, 3: 1, 5: h}, {3: 1, 5: h}, {4: 1}, {5: 1}, {6: 1}],
        "merge with the d=0 member (characteristic is not 2)",
    )
    return eng.finish((6, 13))


def _c_5_6_s1(eng):
    a, b, c = eng.c(0)  # on (D15+D24, D23, D25-D34)
    eng.require(a.v or c.v, "radical meets the centre")
    h = eng.field.el(2).inv()
    if c.v:
        if c != eng.field.one():
            eng.scale_eta(0, c.inv())
        a, b, c = eng.c(0)
        eng.aut(
            {"a21": -a, "a42": -h * (a * a + b)},
            "clear the remaining coefficients",
        )
        return eng.finish((6, 14))
    if a != eng.field.one():
        eng.scale_eta(0, a.inv())
    a, b, c = eng.c(0)
    if b.v:
        eng.aut({"a21": h * b}, "clear the (2,3) coefficient")
    return eng.finish((6, 15))


def _c_5_7_s1(eng):
    a, b, c = eng.c(0)  # on (D15, D23, D25-D34)
    eng.require(a.v or c.v, "radical meets the centre")
    h = eng.field.el(2).inv()
    if c.v:
        if c != eng.field.one():
            eng.scale_eta(0, c.inv())
        a, b, c = eng.c(0)
        eng.aut({"a21": -a, "a42": -h * b}, "clear the remaining coefficients")
        return eng.finish((6, 16))
    if a != eng.field.one():
        eng.scale_eta(0, a.inv())
    a, b, c = eng.c(0)
    if b.is_zero:
        return eng.finish((6, 18))
    eng.aut({"a11": b, "a22": b * b}, "weighted scaling equalizes the coefficients")
    a, b2, c = eng.c(0)
    eng.require(a == b2 and a.v and c.is_zero, "scaling drifted")
    eng.scale_eta(0, a.inv())
    return eng.finish((6, 17))


def _c_5_8_s1(eng):
    one = eng.field.one()
    a, b, c, d, e, f = eng.c(0)  # on (D14, D15, D23, D24, D25+D34, D35)
    if e.v:
        if f.v:
            eng.aut({"a32": -(e / f)}, "clear the paired coefficient")
        elif d.v:
            eng.aut({"a23": -(e / d)}, "clear the paired coefficient")
        else:
            eng.aut(
                {"a23": 1, "a32": -1},
                "clear the paired coefficient (characteristic is not 2)",
            )
        a, b, c, d, e, f = eng.c(0)
        eng.require(e.is_zero, "paired coefficient survived")
    if d.v:
        if d != one:
            eng.scale_eta(0, d.inv())
            a, b, c, d, e, f = eng.c(0)
        if a.v or c.v:
            eng.aut({"a21": -a, "a43": -c}, "clear the (1,4) and (2,3) coefficients")
            a, b, c, d, e, f = eng.c(0)
        eng.require(
            a.is_zero and c.is_zero and d == one and e.is_zero, "drifted"
        )
        if not b.v:
            eng.require(f.v, "centre grows: rank condition fails")
            return eng.finish((6, 19), f)
        if b != one:
            eng.aut({"a33": b.inv()}, "scale the (1,5) coefficient to 1")
            a, b, c, d, e, f = eng.c(0)
        eng.require(b == one and d == one and a.is_zero and c.is_zero)
        if f.is_zero:
            return eng.finish((6, 20))
        eng.expect([{(1, 5): 1, (2, 4): 1, (3, 5): f}])
        eng.relabel(
            [{1: 1, 3: f.inv()}, {2: 1}, {3: 1}, {4: 1}, {5: 1}, {6: 1}],
            "absorb the (1,5) term into the parametric member",
        )
        return eng.finish((6, 19), f)
    # d = 0 branch
    eng.require(f.v, "centre grows: rank condition fails")
    if f != one:
        eng.scale_eta(0, f.inv())
        a, b, c, d, e, f = eng.c(0)
    eng.require(a.v, "centre grows: rank condition fails")
    eng.aut(
        {"a22": a.inv(), "a52": c / a},
        "scale the (1,4) coefficient to 1 and clear (2,3)",
    )
    a, b, c, d, e, f = eng.c(0)
    eng.require(a == one and c.is_zero and f == one and d.is_zero and e.is_zero)
    if b.v:
        eng.aut({"a22": b * b, "a33": b}, "weighted scaling equalizes coefficients")
        a, b2, c, d, e, f = eng.c(0)
        eng.require(a == b2 and a == f and a.v, "scaling drifted")
        eng.scale_eta(0, a.inv())
        eng.expect([{(1, 4): 1, (1, 5): 1, (3, 5): 1}])
        eng.relabel(
            [{1: 1, 3: 1}, {2: 1}, {3: 1}, {4: 1}, {5: 1}, {6: 1}],
            "clear the (1,5) term",
        )
    else:
        eng.expect([{(1, 4): 1, (3, 5): 1}])
    eng.relabel([{1: 1}, {3: 1}, {2: 1}, {5: 1}, {4: 1}, {6: 1}], "relabel the basis")
    return eng.finish((6, 20))


def _c_5_9_s1(eng):
    a, b, c = eng.c(0)  # on (D14, D15+D24, D25)
    if b.v:
        if c.v:
            eng.aut({"a21": -(b / c)}, "clear the paired coefficient")
        elif a.v:
            eng.aut({"a12": -(b / a)}, "clear the paired coefficient")
        else:
            eng.aut(
                {"a12": 1, "a21": -1},
                "clear the paired coefficient (characteristic is not 2)",
            )
        a, b, c = eng.c(0)
        eng.require(b.is_zero, "paired coefficient survived")
    eng.require(a.v and c.v, "degenerate on the centre")
    if a != eng.field.one():
        eng.scale_eta(0, a.inv())
    a, b, c = eng.c(0)
    return eng.finish((6, 21), c)


# ------------------------------------------------------------- dim 6, s=2


def _psi_cols(eng, eps):
    """Columns of the fold from the shifted pencil member onto the
    standard parametric family, per parameter regime."""
    f = eng.field
    quarter = f.el(4).inv()
    half = f.el(2).inv()
    if eps.is_zero:
        delta = f.one()
        cols = [
            {4: 2},
            {2: -quarter, 3: quarter},
            {3: -half},
            {1: 1, 4: -1},
            {5: -half, 6: half},
            {5: 1},
        ]
    elif eps == -quarter:
        delta = f.zero()
        cols = [
            {1: -2, 4: -4},
            {2: half, 3: half},
            {2: -2, 3: -1},
            {1: 1, 4: 1},
            {5: 1, 6: -1},
            {6: 2},
        ]
    else:
        delta = eps + quarter
        cols = [
            {1: quarter / eps + f.one(), 4: half / eps},
            {3: eps},
            {2: 1, 3: half},
            {4: 1},
            {5: -half, 6: delta},
            {5: 1},
        ]
    return cols, delta


def _c_4_1_s2(eng):
    one = eng.field.one()
    if eng.etas[0].gram().rank() < 4:
        if eng.etas[1].gram().rank() == 4:
            eng.swap_etas("move the nondegenerate form first")
        else:
            r = eng.skew_canonical(0)
            eng.require(r == 2, "leading form vanishes")
            z = eng.c(1)[0]
            if z.v:
                eng.sub_eta(1, 0, z, "reduce modulo the leading form")
            _, a, b, c, d, e = eng.c(1)
            if (a * d - b * c).v:
                eng.swap_etas("second form is nondegenerate")
            elif e.v:
                eng.center(
                    [[1, 1], [0, 1]],
                    "pass to a nondegenerate member of the pencil",
                )
            else:
                eng.require(False, "joint radical is nonzero")
    r = eng.skew_canonical(0)
    eng.require(r == 4, "pencil member is degenerate")
    z = eng.c(1)[0]
    if z.v:
        eng.sub_eta(1, 0, z, "reduce modulo the leading form")
    _, a, b, c, d, e = eng.c(1)
    if not a.v:
        if d.v:
            P = Matrix.from_rows(
                eng.field,
                [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            )
            eng.aut(P, "swap the two hyperbolic planes' first vectors")
            eng.center([[-1, 0], [0, 1]], "restore the leading form's sign")
        elif b.v:
            P = Matrix.from_rows(
                eng.field,
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
            )
            eng.aut(P, "rotate the second hyperbolic plane")
        elif c.v:
            P = Matrix.from_rows(
                eng.field,
                [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            )
            eng.aut(P, "rotate the first hyperbolic plane")
        else:
            eng.require(e.v, "forms are dependent")
            if e != one:
                eng.scale_eta(1, e.inv())
            eng.sub_eta(0, 1, 1, "leading form becomes the first plane")
            eng.expect([{(1, 2): 1}, {(3, 4): 1}])
            eng.relabel(
                [
                    {4: 1},
                    {2: -1, 3: -1},
                    {2: 1},
                    {1: -1, 4: -1},
                    {5: 1, 6: 1},
                    {5: 1},
                ],
                "fold the split pair onto the shifted pencil member",
            )
            eps0 = eng.field.zero()
            cols, delta = _psi_cols(eng, eps0)
            eng.relabel(cols, "fold onto the parametric family")
            return eng.finish((6, 22), delta)
        z = eng.c(1)[0]
        eng.require(z.is_zero, "reduction drifted")
        _, a, b, c, d, e = eng.c(1)
    eng.require(a.v, "pair move failed")
    if a != one:
        eng.scale_eta(1, a.inv())
        _, a, b, c, d, e = eng.c(1)
    u = e.inv() if e.v else one
    eng.aut(
        {"a22": u, "a44": u, "a12": -(u * c), "a34": -(u * b)},
        "clear the off-diagonal coefficients",
    )
    t = eng.c(0)
    eng.require(
        t[0] == t[5] and t[0].v and all(t[i].is_zero for i in (1, 2, 3, 4)),
        "leading form drifted",
    )
    if t[0] != one:
        eng.scale_eta(0, t[0].inv())
    z, a, b, c, d, e = eng.c(1)
    eng.require(
        z.is_zero and a == one and b.is_zero and c.is_zero and (e.is_zero or e == one),
        "normalization drifted",
    )
    if e.is_zero:
        return eng.finish((6, 22), d)
    eng.expect([{(1, 2): 1, (3, 4): 1}, {(1, 3): 1, (2, 4): d, (3, 4): 1}])
    cols, delta = _psi_cols(eng, d)
    eng.relabel(cols, "fold the shifted member onto the parametric family")
    return eng.finish((6, 22), delta)


def _fold_to_619_zero(eng):
    eng.relabel(
        [{2: 1}, {1: 1}, {4: -1}, {3: 1}, {6: -1}, {5: 1}],
        "relabel onto the eps=0 member of the parametric family",
    )
    return eng.finish((6, 19), 0)


def _c_4_2_s2(eng):
    a, b, c, d = eng.c(0)
    if a.v or c.v:
        if not a.v:
            eng.aut({"a21": 1}, "make the (1,3) coefficient nonzero")
            a, b, c, d = eng.c(0)
        eng.aut({"a11": a.inv(), "a22": a}, "scale the (1,3) coefficient to 1")
        a, b, c, d = eng.c(0)
        if c.v:
            eng.aut({"a12": -c}, "clear the (2,3) coefficient")
            a, b, c, d = eng.c(0)
        if b.v:
            eng.aut({"a34": -b}, "clear the (1,4) coefficient")
            a, b, c, d = eng.c(0)
        eng.require(a == eng.field.one() and b.is_zero and c.is_zero)
        if d.v:
            if d != eng.field.one():
                eng.aut({"a44": d.inv()}, "scale the (2,4) coefficient to 1")
            return _sub_42_A(eng)
        return _sub_42_B(eng)
    eng.require(b.v or d.v, "leading form vanishes")
    eng.aut(_send_pair_to_e1(eng, b, d), "send the coefficient pair to (1, 0)")
    a, b, c, d = eng.c(0)
    eng.require(b == eng.field.one() and a.is_zero and c.is_zero and d.is_zero)
    return _sub_42_C(eng)


def _repin(eng, lead):
    """Rescale the leading form back to the sum of the representatives at
    the lead positions, the only nonzero coefficients it may have."""
    t = eng.c(0)
    a = t[lead[0]]
    eng.require(
        a.v and all(x == a if k in lead else x.is_zero for k, x in enumerate(t)),
        "leading form drifted",
    )
    if a != eng.field.one():
        eng.scale_eta(0, a.inv())


def _reduce_second(eng, pos):
    """Clear the second form's coefficient at pos with the first form."""
    lam = eng.c(1)[pos]
    if lam.v:
        eng.sub_eta(1, 0, lam, "reduce the second form modulo the first")


def _sub_42_A(eng):
    """Leading form D13 + D24 (nondegenerate on the quotient)."""
    one = eng.field.one()
    _reduce_second(eng, 0)
    _, b, c, d = eng.c(1)
    if not c.v:
        if d.v:
            if d != one:
                eng.scale_eta(1, d.inv())
            _, b, c, d = eng.c(1)
            if b.v:
                eng.aut({"a21": -b, "a34": b}, "clear the (1,4) coefficient")
                _repin(eng, (0, 3))
                _reduce_second(eng, 0)
            _, b, c, d = eng.c(1)
            eng.require(b.is_zero and c.is_zero and d == one)
            eng.sub_eta(0, 1, 1, "leading form becomes D13")
            eng.expect([{(1, 3): 1}, {(2, 4): 1}])
            return _fold_to_619_zero(eng)
        eng.require(b.v, "forms are dependent")
        if b != one:
            eng.scale_eta(1, b.inv())
        return eng.finish((6, 23))
    if d.v:
        two = eng.field.el(2)
        t = two * c / d
        eng.aut(
            {"a21": 1, "a11": t, "a22": d / (two * c), "a34": -t, "a44": t * t},
            "rotate the (2,3) coefficient into clearing position",
        )
        _repin(eng, (0, 3))
    _reduce_second(eng, 0)
    _, b, c, d = eng.c(1)
    eng.require(c.v and d.is_zero, "reduction drifted")
    if c != one:
        eng.scale_eta(1, c.inv())
    _, b, c, d = eng.c(1)
    return eng.finish((6, 24), b)


def _sub_42_B(eng):
    """Leading form D13."""
    one = eng.field.one()
    _reduce_second(eng, 0)
    _, b, c, d = eng.c(1)
    eng.require(b.v or d.v, "joint radical meets the centre")
    if d.v:
        if d != one:
            eng.scale_eta(1, d.inv())
        _, b, c, d = eng.c(1)
        if b.v:
            eng.aut({"a21": -b}, "clear the (1,4) coefficient")
            _repin(eng, (0,))
            _reduce_second(eng, 0)
        _, b, c, d = eng.c(1)
        eng.require(b.is_zero and d == one)
        if c.v:
            eng.aut({"a11": c.inv()}, "scale the (2,3) coefficient to 1")
            _repin(eng, (0,))
            _reduce_second(eng, 0)
            _, b, c, d = eng.c(1)
            eng.require(b.is_zero and c == one and d == one)
            eng.expect([{(1, 3): 1}, {(2, 3): 1, (2, 4): 1}])
            eng.relabel(
                [
                    {1: 1, 2: -1},
                    {1: 1, 2: 1},
                    {3: 2},
                    {3: 1, 4: 1},
                    {5: 2, 6: -2},
                    {5: 2, 6: 2},
                ],
                "fold onto the eps=1 member (characteristic is not 2)",
            )
            return eng.finish((6, 24), 1)
        eng.expect([{(1, 3): 1}, {(2, 4): 1}])
        return _fold_to_619_zero(eng)
    # d = 0, b != 0
    if b != one:
        eng.scale_eta(1, b.inv())
    _, b, c, d = eng.c(1)
    if c.v:
        eng.aut({"a11": c.inv(), "a44": c}, "scale the (2,3) coefficient to 1")
        _repin(eng, (0,))
        _reduce_second(eng, 0)
        _, b, c, d = eng.c(1)
        eng.require(b == one and c == one and d.is_zero)
        eng.expect([{(1, 3): 1}, {(1, 4): 1, (2, 3): 1}])
        eng.relabel(
            [{2: -1}, {1: -1}, {3: -1}, {4: -1}, {6: 1}, {5: 1}],
            "relabel onto the eps=0 member",
        )
        return eng.finish((6, 24), 0)
    return eng.finish((6, 25))


def _sub_42_C(eng):
    """Leading form D14."""
    one = eng.field.one()
    _reduce_second(eng, 1)
    a, _, c, d = eng.c(1)
    eng.require(a.v or c.v, "joint radical meets the centre")
    if c.v:
        if c != one:
            eng.scale_eta(1, c.inv())
        a, _, c, d = eng.c(1)
        if a.v or d.v:
            eng.aut({"a21": -a, "a34": -d}, "clear the (1,3) and (2,4) coefficients")
            _repin(eng, (1,))
            _reduce_second(eng, 1)
        a, _, c, d = eng.c(1)
        eng.require(a.is_zero and c == one and d.is_zero)
        eng.expect([{(1, 4): 1}, {(2, 3): 1}])
        eng.relabel(
            [{2: 1}, {1: -1}, {3: 1}, {4: -1}, {6: -1}, {5: -1}],
            "relabel onto the standard pair",
        )
        return _fold_to_619_zero(eng)
    if a != one:
        eng.scale_eta(1, a.inv())
    a, _, c, d = eng.c(1)
    eng.require(a == one and c.is_zero)
    if d.v:
        if d != one:
            eng.aut({"a44": d.inv()}, "scale the (2,4) coefficient to 1")
            _repin(eng, (1,))
            _reduce_second(eng, 1)
        a, _, c, d = eng.c(1)
        eng.require(a == one and d == one and c.is_zero)
        eng.swap_etas("reorder the pair")
        return eng.finish((6, 23))
    eng.swap_etas("reorder the pair")
    return eng.finish((6, 25))


def _c_4_3_s2(eng):
    _move_to_standard(eng, "forms dependent modulo coboundaries", "move to the standard pair")
    eng.expect([{(1, 4): 1}, {(2, 3): 1}])
    eng.relabel(
        [{1: 1}, {2: 1}, {3: 1}, {4: 1}, {6: 1}, {5: 1}],
        "swap the two centre generators",
    )
    return eng.finish((6, 21), 0)


def _c_3_1_s3(eng):
    _move_to_standard(eng, "forms are dependent", "move to the standard triple")
    return eng.finish((6, 26))


# -------------------------------------------------------------- dispatch

# Cocycle representatives per quotient: the basis whose coordinates eng.c
# returns by position.  compute_spaces(N).h2reps is another basis on L5_5,
# L5_6 and L5_7, so the table stays written out.
_REPS = {
    (2, 1): [{(1, 2): 1}],
    (3, 1): [{(1, 2): 1}, {(1, 3): 1}, {(2, 3): 1}],
    (3, 2): [{(1, 3): 1}, {(2, 3): 1}],
    (4, 1): [
        {(1, 2): 1},
        {(1, 3): 1},
        {(1, 4): 1},
        {(2, 3): 1},
        {(2, 4): 1},
        {(3, 4): 1},
    ],
    (4, 2): [{(1, 3): 1}, {(1, 4): 1}, {(2, 3): 1}, {(2, 4): 1}],
    (4, 3): [{(1, 4): 1}, {(2, 3): 1}],
    (5, 2): [
        {(1, 3): 1},
        {(1, 4): 1},
        {(1, 5): 1},
        {(2, 3): 1},
        {(2, 4): 1},
        {(2, 5): 1},
        {(4, 5): 1},
    ],
    (5, 3): [{(1, 4): 1}, {(1, 5): 1}, {(2, 3): 1}, {(2, 5): 1}],
    (5, 5): [{(1, 4): 1}, {(1, 5): 1, (3, 4): 1}, {(2, 3): 1}, {(2, 4): 1}],
    (5, 6): [{(1, 5): 1, (2, 4): 1}, {(2, 3): 1}, {(2, 5): 1, (3, 4): -1}],
    (5, 7): [{(1, 5): 1}, {(2, 3): 1}, {(2, 5): 1, (3, 4): -1}],
    (5, 8): [
        {(1, 4): 1},
        {(1, 5): 1},
        {(2, 3): 1},
        {(2, 4): 1},
        {(2, 5): 1, (3, 4): 1},
        {(3, 5): 1},
    ],
    (5, 9): [{(1, 4): 1}, {(1, 5): 1, (2, 4): 1}, {(2, 5): 1}],
}

DISPATCH = {
    (2, 1, 1): (_REPS[(2, 1)], _c_2_1_s1),
    (3, 2, 1): (_REPS[(3, 2)], _c_3_2_s1),
    (4, 1, 1): (_REPS[(4, 1)], _c_4_1_s1),
    (4, 2, 1): (_REPS[(4, 2)], _c_4_2_s1),
    (4, 3, 1): (_REPS[(4, 3)], _c_4_3_s1),
    (3, 1, 2): (_REPS[(3, 1)], _c_3_1_s2),
    (3, 2, 2): (_REPS[(3, 2)], _c_3_2_s2),
    (5, 2, 1): (_REPS[(5, 2)], _c_5_2_s1),
    (5, 3, 1): (_REPS[(5, 3)], _c_5_3_s1),
    (5, 5, 1): (_REPS[(5, 5)], _c_5_5_s1),
    (5, 6, 1): (_REPS[(5, 6)], _c_5_6_s1),
    (5, 7, 1): (_REPS[(5, 7)], _c_5_7_s1),
    (5, 8, 1): (_REPS[(5, 8)], _c_5_8_s1),
    (5, 9, 1): (_REPS[(5, 9)], _c_5_9_s1),
    (4, 1, 2): (_REPS[(4, 1)], _c_4_1_s2),
    (4, 2, 2): (_REPS[(4, 2)], _c_4_2_s2),
    (4, 3, 2): (_REPS[(4, 3)], _c_4_3_s2),
    (3, 1, 3): (_REPS[(3, 1)], _c_3_1_s3),
}
