"""The classification lists for dimensions 1 to 6 over fields of odd or
zero characteristic.

Every isomorphism class is a CatalogId: dimension, index, and for the four
parametric six-dimensional families a square-class parameter.  Parameters
are stored canonically (0, or the canonical square-class representative),
so equality of ids is equality of classes.

The catalog is written down once, in the paper's Skjelbred-Sund terms:
every entry that is neither abelian nor a direct sum is a quotient id
plus cocycles, and its table is built, on first use, as the central
extension of the quotient's table by those cocycles (basis x_1..x_n of
the quotient, then one central generator per cocycle).  Direct sums add
a 1-dimensional abelian ideal to a smaller entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadId, ZeroArgument
from .field import (
    FieldCtx,
    FieldElem,
    same_square_class,
    sqrt,
    square_class_rep,
    squarefree_part,
)
from .liealg import LieAlgebra, LinearMap
from .linalg import Matrix
from .cohomology import SkewForm, central_extension

PARAMETRIC = {(6, 19), (6, 21), (6, 22), (6, 24)}

_INDEX_RANGE = {1: 1, 2: 1, 3: 2, 4: 3, 5: 9, 6: 26}

# Direct sums of a smaller entry with a 1-dimensional abelian ideal.
_SUM_OF = {
    (4, 2): (3, 2),
    (5, 2): (4, 2),
    (5, 3): (4, 3),
    **{(6, k): (5, k) for k in range(2, 10)},
}

# Defining extension data of the non-sum, non-abelian entries: quotient
# id and cocycle coefficient dicts, 1-based, 'e' marking the parametric
# coefficient.  No quotient is parametric.
_DEF_EXT = {
    (3, 2): ((2, 1), [{(1, 2): 1}]),
    (4, 3): ((3, 2), [{(1, 3): 1}]),
    (5, 4): ((4, 1), [{(1, 2): 1, (3, 4): 1}]),
    (5, 5): ((4, 2), [{(1, 3): 1, (2, 4): 1}]),
    (5, 6): ((4, 3), [{(1, 4): 1, (2, 3): 1}]),
    (5, 7): ((4, 3), [{(1, 4): 1}]),
    (5, 8): ((3, 1), [{(1, 2): 1}, {(1, 3): 1}]),
    (5, 9): ((3, 2), [{(1, 3): 1}, {(2, 3): 1}]),
    (6, 10): ((5, 2), [{(1, 3): 1, (4, 5): 1}]),
    (6, 11): ((5, 3), [{(1, 4): 1, (2, 3): 1, (2, 5): 1}]),
    (6, 12): ((5, 3), [{(1, 4): 1, (2, 5): 1}]),
    (6, 13): ((5, 5), [{(1, 5): 1, (3, 4): 1}]),
    (6, 14): ((5, 6), [{(2, 5): 1, (3, 4): -1}]),
    (6, 15): ((5, 6), [{(1, 5): 1, (2, 4): 1}]),
    (6, 16): ((5, 7), [{(2, 5): 1, (3, 4): -1}]),
    (6, 17): ((5, 7), [{(1, 5): 1, (2, 3): 1}]),
    (6, 18): ((5, 7), [{(1, 5): 1}]),
    (6, 19): ((5, 8), [{(2, 4): 1, (3, 5): "e"}]),
    (6, 20): ((5, 8), [{(1, 5): 1, (2, 4): 1}]),
    (6, 21): ((5, 9), [{(1, 4): 1, (2, 5): "e"}]),
    (6, 22): ((4, 1), [{(1, 2): 1, (3, 4): 1}, {(1, 3): 1, (2, 4): "e"}]),
    (6, 23): ((4, 2), [{(1, 3): 1, (2, 4): 1}, {(1, 4): 1}]),
    (6, 24): ((4, 2), [{(1, 3): 1, (2, 4): 1}, {(1, 4): "e", (2, 3): 1}]),
    (6, 25): ((4, 2), [{(1, 3): 1}, {(1, 4): 1}]),
    (6, 26): ((3, 1), [{(1, 2): 1}, {(1, 3): 1}, {(2, 3): 1}]),
}

# Basis scalings realizing family(eps) ~ family(eps') inside one square
# class: entry at position i is the exponent of alpha multiplying x_i,
# plus the exponent picking up the parameter move.
_SCALINGS = {
    (6, 19): ((0, 0, 1, 0, 1, 0), -2),  # eps -> eps / alpha^2
    (6, 21): ((0, 1, 1, 1, 2, 1), -2),
    (6, 22): ((1, 0, 1, 0, 1, 2), 2),   # eps -> eps * alpha^2
    (6, 24): ((1, 0, 1, 2, 2, 1), -2),
}


class CatalogId:
    """A classification class: (dim, index) plus canonical parameter."""

    __slots__ = ("field", "dim", "idx", "param")

    def __init__(self, field: FieldCtx, dim: int, idx: int, param=None):
        if dim not in _INDEX_RANGE or not 1 <= idx <= _INDEX_RANGE[dim]:
            raise BadId(f"no catalog entry L{dim},{idx}")
        parametric = (dim, idx) in PARAMETRIC
        if parametric and param is None:
            raise BadId(f"L{dim},{idx} needs a parameter")
        if not parametric and param is not None:
            raise BadId(f"L{dim},{idx} takes no parameter")
        self.field = field
        self.dim = dim
        self.idx = idx
        if param is not None:
            param = field.el(param)
            param = param if param.is_zero else square_class_rep(param)
        self.param = param

    @property
    def key(self):
        return (self.dim, self.idx)

    def __eq__(self, other):
        return (
            isinstance(other, CatalogId)
            and self.field == other.field
            and self.dim == other.dim
            and self.idx == other.idx
            and self.param == other.param
        )

    def __hash__(self):
        pv = None if self.param is None else self.param.v
        return hash((self.field, self.dim, self.idx, pv))

    def label(self) -> str:
        if self.param is None:
            return f"L{self.dim}_{self.idx}"
        return f"L{self.dim}_{self.idx}(eps={self.param.literal()})"

    def __repr__(self):
        return self.label()


def parse_id(field: FieldCtx, s: str) -> CatalogId:
    """Inverse of CatalogId.label()."""
    s = s.strip()
    param = None
    if "(" in s:
        s, rest = s.split("(", 1)
        rest = rest.rstrip(")")
        if not rest.startswith("eps="):
            raise BadId(f"cannot parse parameter in {s!r}")
        param = field.el(rest[4:])
    try:
        dim_s, idx_s = s[1:].split("_")
        dim, idx = int(dim_s), int(idx_s)
    except (ValueError, IndexError):
        raise BadId(f"cannot parse id {s!r}") from None
    if not s.startswith("L"):
        raise BadId(f"cannot parse id {s!r}")
    return CatalogId(field, dim, idx, param)


def same_id(a: CatalogId, b: CatalogId) -> bool:
    """Same classification class: equal (dim, index), parameters in the
    same square class (0 only matching 0)."""
    if a.field != b.field or a.key != b.key:
        return False
    if a.param is None:
        return True
    if a.param.is_zero or b.param.is_zero:
        return a.param == b.param
    return same_square_class(a.param, b.param)


_table_cache: dict = {}


def raw_table(field: FieldCtx, dim: int, idx: int, eps=None) -> LieAlgebra:
    """Instantiate a family table with an arbitrary (non-canonical) eps."""
    key = (field, dim, idx, None if eps is None else field.el(eps).v)
    if key in _table_cache:
        return _table_cache[key]
    if (dim, idx) in PARAMETRIC and eps is None:
        raise BadId(f"L{dim},{idx} needs a parameter")
    if idx == 1:
        alg = LieAlgebra.abelian(field, dim)
    elif (dim, idx) in _SUM_OF:
        cd, ck = _SUM_OF[(dim, idx)]
        alg = raw_table(field, cd, ck).direct_sum(LieAlgebra.abelian(field, 1))
    else:
        (qd, qk), cocs = defining_extension(field, dim, idx, eps)
        quot = raw_table(field, qd, qk)
        forms = [SkewForm.from_dict(quot, d) for d in cocs]
        alg, _ = central_extension(quot, forms, check=False)
    _table_cache[key] = alg
    return alg


def instantiate(cid: CatalogId) -> LieAlgebra:
    return raw_table(cid.field, cid.dim, cid.idx, cid.param)


def defining_extension(field: FieldCtx, dim: int, idx: int, eps=None):
    """(quotient id key, cocycle dicts) whose extension is the raw table;
    None for dimension 1.

    Direct sums inherit their core's data with zero cocycles appended;
    abelian entries extend the previous abelian by a zero cocycle.
    """
    if dim == 1:
        return None
    if idx == 1:
        return (dim - 1, 1), [{}]
    if (dim, idx) in _SUM_OF:
        cd, ck = _SUM_OF[(dim, idx)]
        q, cocs = defining_extension(field, cd, ck, eps)
        return q, cocs + [{}]
    q, cocs = _DEF_EXT[(dim, idx)]
    out = []
    for d in cocs:
        out.append({p: (eps if c == "e" else c) for p, c in d.items()})
    return q, out


def sum_key(core_key, d: int):
    """Key of the entry core + (abelian ideal of dimension d), None when the
    catalog has no such direct sum."""
    key = core_key
    for _ in range(d):
        key = next((k for k, c in _SUM_OF.items() if c == key), None)
    return key


@dataclass
class CatalogEntry:
    id: CatalogId
    algebra: LieAlgebra
    defining_quotient: CatalogId | None
    defining_cocycles: list  # SkewForms on the quotient algebra


def entry(cid: CatalogId) -> CatalogEntry:
    alg = instantiate(cid)
    data = defining_extension(cid.field, cid.dim, cid.idx, cid.param)
    if data is None:
        return CatalogEntry(cid, alg, None, [])
    qkey, cocs = data
    quot_id = CatalogId(cid.field, *qkey)
    quot = instantiate(quot_id)
    forms = [SkewForm.from_dict(quot, d) for d in cocs]
    return CatalogEntry(cid, alg, quot_id, forms)


def rational_class_reps(bound: int = 3):
    """0 and the signed squarefree integers up to the bound."""
    out = [0]
    for v in range(1, bound + 1):
        if squarefree_part(v) == v:
            out.extend([v, -v])
    return out


def param_values(field: FieldCtx, q_reps=None):
    """Parameter set used when enumerating a parametric family."""
    if field.is_rationals:
        reps = rational_class_reps() if q_reps is None else list(q_reps)
        return [field.el(r) for r in reps]
    return [field.zero(), field.one(), field.smallest_nonresidue()]


def ids_over(field: FieldCtx, dim: int, q_reps=None):
    """All classes of the given dimension, pairwise non-isomorphic.

    Over Q the parametric families are cut down to an explicit finite set
    of square-class representatives (canonical squarefree integers).
    """
    if dim not in _INDEX_RANGE:
        raise BadId(f"no catalog for dimension {dim}")
    out = []
    for k in range(1, _INDEX_RANGE[dim] + 1):
        if (dim, k) in PARAMETRIC:
            for val in param_values(field, q_reps):
                out.append(CatalogId(field, dim, k, val))
        else:
            out.append(CatalogId(field, dim, k))
    return out


def count(field: FieldCtx, dim: int):
    """Number of classes; None when infinite (dimension 6 over Q)."""
    if dim not in _INDEX_RANGE:
        raise BadId(f"no catalog for dimension {dim}")
    families = sum(1 for d, _ in PARAMETRIC if d == dim)
    if families and field.is_rationals:
        return None
    # a family has eps = 0 and |F*/(F*)^2| = 2 classes over odd prime fields
    return _INDEX_RANGE[dim] + 2 * families


def scaling_matrix(field: FieldCtx, dim: int, idx: int, eps_from, eps_to) -> Matrix:
    """The diagonal map raw_table(eps_from) -> raw_table(eps_to) of a
    parametric family; the parameters must lie in one square class."""
    if (dim, idx) not in PARAMETRIC:
        raise BadId(f"L{dim},{idx} is not parametric")
    a, b = field.el(eps_from), field.el(eps_to)
    if a.is_zero or b.is_zero:
        if a != b:
            raise ZeroArgument("0 is only equivalent to 0")
        return Matrix.identity(field, dim)
    exps, move = _SCALINGS[(dim, idx)]
    ratio = a / b if move == -2 else b / a
    alpha = sqrt(ratio)
    diag = [alpha if e == 1 else alpha * alpha if e == 2 else field.one() for e in exps]
    M = Matrix.zeros(field, dim, dim)
    for i in range(dim):
        M.data[i][i] = diag[i]
    return M


def scaling_iso(field: FieldCtx, dim: int, idx: int, eps_from, eps_to) -> LinearMap:
    """Verified isomorphism raw_table(eps_from) -> raw_table(eps_to) for a
    parametric family; the parameters must lie in one square class."""
    M = scaling_matrix(field, dim, idx, eps_from, eps_to)
    src = raw_table(field, dim, idx, field.el(eps_from))
    dst = raw_table(field, dim, idx, field.el(eps_to))
    return LinearMap(src, dst, M).verify()
