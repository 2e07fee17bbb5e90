"""Parametrized automorphism groups of the catalog quotient algebras.

Each template produces the matrix of a general automorphism (column
convention) from named entries a_ij; entries not supplied default to the
identity matrix values, and the derived entries are filled in.  The derived
entries make every invertible emitted matrix an automorphism, so a call
checks only invertibility; tests check the bracket relations on random
parameters, and recognition verifies the map its steps compose to.
"""

from __future__ import annotations

from .catalog import CatalogId, raw_table
from .errors import BadId, NotAnAutomorphism
from .field import FieldCtx
from .liealg import LieAlgebra
from .linalg import Matrix


class AutTemplate:
    """Callable family of automorphisms of one catalog algebra."""

    def __init__(self, algebra: LieAlgebra, builder):
        self.algebra = algebra
        self._builder = builder

    def __call__(self, params: dict) -> Matrix:
        field = self.algebra.field
        vals = {k: field.el(v) for k, v in params.items()}

        def g(i, j):
            key = f"a{i}{j}"
            if key in vals:
                return vals[key]
            return field.one() if i == j else field.zero()

        rows = self._builder(g, field)
        M = Matrix(field, rows)
        if not M.is_invertible():
            raise NotAnAutomorphism(
                f"parameters {params} do not give an automorphism"
            )
        return M


def _general(n):
    def build(g, field):
        return [[g(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]

    return build


def _t_3_2(g, field):
    z = field.zero()
    d = g(1, 1) * g(2, 2) - g(1, 2) * g(2, 1)
    return [
        [g(1, 1), g(1, 2), z],
        [g(2, 1), g(2, 2), z],
        [g(3, 1), g(3, 2), d],
    ]


def _t_4_2(g, field):
    z = field.zero()
    d = g(1, 1) * g(2, 2) - g(1, 2) * g(2, 1)
    return [
        [g(1, 1), g(1, 2), z, z],
        [g(2, 1), g(2, 2), z, z],
        [g(3, 1), g(3, 2), d, g(3, 4)],
        [g(4, 1), g(4, 2), z, g(4, 4)],
    ]


def _t_4_3(g, field):
    z = field.zero()
    return [
        [g(1, 1), z, z, z],
        [g(2, 1), g(2, 2), z, z],
        [g(3, 1), g(3, 2), g(1, 1) * g(2, 2), z],
        [g(4, 1), g(4, 2), g(1, 1) * g(3, 2), g(1, 1) * g(1, 1) * g(2, 2)],
    ]


def _t_5_2(g, field):
    z = field.zero()
    d = g(1, 1) * g(2, 2) - g(1, 2) * g(2, 1)
    return [
        [g(1, 1), g(1, 2), z, z, z],
        [g(2, 1), g(2, 2), z, z, z],
        [g(3, 1), g(3, 2), d, g(3, 4), g(3, 5)],
        [g(4, 1), g(4, 2), z, g(4, 4), g(4, 5)],
        [g(5, 1), g(5, 2), z, g(5, 4), g(5, 5)],
    ]


def _t_5_3(g, field):
    z = field.zero()
    a11, a22 = g(1, 1), g(2, 2)
    return [
        [a11, z, z, z, z],
        [g(2, 1), a22, z, z, z],
        [g(3, 1), g(3, 2), a11 * a22, z, z],
        [g(4, 1), g(4, 2), a11 * g(3, 2), a11 * a11 * a22, g(4, 5)],
        [g(5, 1), g(5, 2), z, z, g(5, 5)],
    ]


def _t_5_5(g, field):
    z = field.zero()
    a11 = g(1, 1)
    eps = a11 * g(3, 2) + g(2, 1) * g(4, 2) - g(4, 1) * g(2, 2)
    return [
        [a11, z, z, z, z],
        [g(2, 1), g(2, 2), z, z, z],
        [g(3, 1), g(3, 2), a11 * g(2, 2), -a11 * g(2, 1), z],
        [g(4, 1), g(4, 2), z, a11 * a11, z],
        [g(5, 1), g(5, 2), eps, g(5, 4), a11 * a11 * g(2, 2)],
    ]


def _t_5_6(g, field):
    z = field.zero()
    a11 = g(1, 1)
    a2 = a11 * a11
    u = a11 * g(4, 2) + g(2, 1) * g(3, 2) - g(3, 1) * a2
    v = g(2, 1) * a2 * a11 + g(3, 2) * a2
    return [
        [a11, z, z, z, z],
        [g(2, 1), a2, z, z, z],
        [g(3, 1), g(3, 2), a2 * a11, z, z],
        [g(4, 1), g(4, 2), a11 * g(3, 2), a2 * a2, z],
        [g(5, 1), g(5, 2), u, v, a2 * a2 * a11],
    ]


def _t_5_7(g, field):
    z = field.zero()
    a11, a22 = g(1, 1), g(2, 2)
    return [
        [a11, z, z, z, z],
        [g(2, 1), a22, z, z, z],
        [g(3, 1), g(3, 2), a11 * a22, z, z],
        [g(4, 1), g(4, 2), a11 * g(3, 2), a11 * a11 * a22, z],
        [g(5, 1), g(5, 2), a11 * g(4, 2), a11 * a11 * g(3, 2), a11 * a11 * a11 * a22],
    ]


def _t_5_8(g, field):
    z = field.zero()
    a11 = g(1, 1)
    return [
        [a11, z, z, z, z],
        [g(2, 1), g(2, 2), g(2, 3), z, z],
        [g(3, 1), g(3, 2), g(3, 3), z, z],
        [g(4, 1), g(4, 2), g(4, 3), a11 * g(2, 2), a11 * g(2, 3)],
        [g(5, 1), g(5, 2), g(5, 3), a11 * g(3, 2), a11 * g(3, 3)],
    ]


def _t_5_9(g, field):
    z = field.zero()
    d = g(1, 1) * g(2, 2) - g(1, 2) * g(2, 1)
    return [
        [g(1, 1), g(1, 2), z, z, z],
        [g(2, 1), g(2, 2), z, z, z],
        [g(3, 1), g(3, 2), d, z, z],
        [
            g(4, 1),
            g(4, 2),
            g(1, 1) * g(3, 2) - g(3, 1) * g(1, 2),
            g(1, 1) * d,
            g(1, 2) * d,
        ],
        [
            g(5, 1),
            g(5, 2),
            g(2, 1) * g(3, 2) - g(3, 1) * g(2, 2),
            g(2, 1) * d,
            g(2, 2) * d,
        ],
    ]


_BUILDERS = {
    (1, 1): _general(1),
    (2, 1): _general(2),
    (3, 1): _general(3),
    (3, 2): _t_3_2,
    (4, 1): _general(4),
    (4, 2): _t_4_2,
    (4, 3): _t_4_3,
    (5, 1): _general(5),
    (5, 2): _t_5_2,
    (5, 3): _t_5_3,
    (5, 5): _t_5_5,
    (5, 6): _t_5_6,
    (5, 7): _t_5_7,
    (5, 8): _t_5_8,
    (5, 9): _t_5_9,
}


def aut_template(cid: CatalogId) -> AutTemplate:
    if cid.key not in _BUILDERS:
        raise BadId(f"no automorphism template for {cid.label()}")
    return template_for(cid.field, *cid.key)


def template_for(field: FieldCtx, dim: int, idx: int) -> AutTemplate:
    if (dim, idx) not in _BUILDERS:
        raise BadId(f"no automorphism template for L{dim},{idx}")
    return AutTemplate(raw_table(field, dim, idx), _BUILDERS[(dim, idx)])
