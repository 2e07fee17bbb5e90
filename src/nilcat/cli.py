"""Command-line front end.

Algebras travel in a line-oriented text format with exact literals:

    # optional comments
    field Q            (or GF(p), p an odd prime)
    dim 6
    [1,2] 3:1 6:1      ([x1,x2] = x3 + x6; unlisted brackets are zero)
    [2,4] 5:2 6:-1/3

Exit codes: 0 success, 1 domain error (bad algebra, bad id), 2 usage.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog, cohomology, oracle
from .recognize import recognize
from .errors import NilcatError
from .field import parse_field
from .liealg import LieAlgebra


def parse_algebra_text(text: str) -> LieAlgebra:
    """Read the text format; every malformed or repeated line is a
    NilcatError that names its line."""
    field = None
    dim = None
    brackets = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("field"):
                if field is not None:
                    raise NilcatError("repeated field header")
                field = parse_field(line[5:].strip())
            elif line.startswith("dim"):
                if dim is not None:
                    raise NilcatError("repeated dim header")
                dim = int(line[3:].strip())
            elif line.startswith("["):
                if field is None or dim is None:
                    raise NilcatError("bracket before field/dim header")
                (i, j), comps = _parse_bracket(line, field, dim)
                if (i, j) in brackets:
                    raise NilcatError(f"repeated bracket [{i},{j}]")
                brackets[(i, j)] = comps
            else:
                raise NilcatError("cannot parse")
        except (NilcatError, ValueError) as exc:
            reason = str(exc) if isinstance(exc, NilcatError) else "cannot parse"
            raise NilcatError(f"line {lineno}: {reason}: {raw.strip()!r}") from None
    if field is None or dim is None:
        raise NilcatError("missing field or dim header")
    return LieAlgebra.from_table(field, dim, brackets)


def _parse_bracket(line: str, field, dim: int):
    """((i, j), {k: coeff}) from a line "[i,j] k:c ..."."""
    head, close, rest = line.partition("]")
    if not close:
        raise NilcatError("missing ']'")
    i_s, j_s = head[1:].split(",")
    i, j = int(i_s), int(j_s)
    if not 1 <= i < j <= dim:
        raise NilcatError(f"bad bracket indices [{i},{j}]")
    comps = {}
    for term in rest.replace("=", " ").split():
        k_s, _, c_s = term.partition(":")
        k = int(k_s)
        if not 1 <= k <= dim:
            raise NilcatError(f"bad component index {k}")
        if k in comps:
            raise NilcatError(f"repeated component {k}")
        comps[k] = field.el(c_s)
    return (i, j), comps


def load_algebra(path: str) -> LieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())


def format_algebra(L: LieAlgebra) -> str:
    lines = [f"field {L.field!r}", f"dim {L.dim}"]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            v = L.bracket_basis(i, j)
            terms = [f"{k + 1}:{c.literal()}" for k, c in enumerate(v) if c.v]
            if terms:
                lines.append(f"[{i + 1},{j + 1}] " + " ".join(terms))
    return "\n".join(lines) + "\n"


def _matrix_lines(M, prefix=""):
    out = []
    for i in range(M.rows):
        out.append(prefix + " ".join(x.literal() for x in M.row(i)))
    return out


def cmd_validate(args) -> int:
    L = load_algebra(args.file)
    bad = L.validate()
    if bad is None:
        print("ok")
        return 0
    print(str(bad))
    return 1


def cmd_invariants(args) -> int:
    L = load_algebra(args.file)
    bad = L.validate()
    if bad is not None:
        print(str(bad))
        return 1
    vec = oracle.invariant_vector(L)
    lcs, der, dim_c, dim_dc, dim_h2 = vec
    if args.machine:
        print("lcs_dims:", " ".join(str(d) for d in lcs))
        print("derived_dims:", " ".join(str(d) for d in der))
        print("center_dim:", dim_c)
        print("derived_center_dim:", dim_dc)
        print("h2_dim:", dim_h2)
    else:
        print(f"lower central series dims : {list(lcs)}")
        print(f"derived series dims       : {list(der)}")
        print(f"centre dim                : {dim_c}")
        print(f"dim [L,L] meet centre     : {dim_dc}")
        print(f"dim H^2(L, F)             : {dim_h2}")
    return 0


def cmd_recognize(args) -> int:
    L = load_algebra(args.file)
    result = recognize(L)
    if args.machine:
        print(f"id: {result.id.label()}")
        if args.emit_iso:
            for i, line in enumerate(_matrix_lines(result.iso.matrix), 1):
                print(f"iso.{i}: {line}")
        if args.emit_trace:
            for i, step in enumerate(result.trace, 1):
                print(f"step.{i}: {step.kind} {step.note}")
    else:
        print(result.id.label())
        if args.emit_iso:
            print("isomorphism (rows are images in the catalog basis):")
            for line in _matrix_lines(result.iso.matrix, "  "):
                print(line)
        if args.emit_trace:
            print("trace:")
            for step in result.trace:
                print(f"  {step.kind}: {step.note}")
    return 0


def cmd_extend(args) -> int:
    L = load_algebra(args.file)
    npairs = len(cohomology.pairs(L.dim))
    thetas = []
    for chunk in args.cocycles.split(";"):
        entries = [e for e in chunk.replace(",", " ").split() if e]
        if len(entries) != npairs:
            raise NilcatError(
                f"cocycle vector needs {npairs} coefficients, got {len(entries)}"
            )
        thetas.append(
            cohomology.SkewForm(L, [L.field.el(e) for e in entries])
        )
    K, _ = cohomology.central_extension(L, thetas)
    sys.stdout.write(format_algebra(K))
    return 0


def cmd_catalog(args) -> int:
    field = parse_field(args.field)
    if args.id:
        cid = catalog.parse_id(field, args.id)
        sys.stdout.write(format_algebra(catalog.instantiate(cid)))
        return 0
    for cid in catalog.ids_over(field, args.dim):
        print(cid.label())
    return 0


def cmd_count(args) -> int:
    field = parse_field(args.field)
    n = catalog.count(field, args.dim)
    print("infinite" if n is None else n)
    return 0


def cmd_isotest(args) -> int:
    A = load_algebra(args.file_a)
    B = load_algebra(args.file_b)
    cfg = oracle.IsoSearchConfig(max_nodes=args.budget)
    out = oracle.iso_search(A, B, cfg)
    if out.status == "iso":
        print("ISO")
        for line in _matrix_lines(out.iso.matrix):
            print(line)
    elif out.status == "non_iso":
        print("NON_ISO")
    else:
        print("BUDGET")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nilcat",
        description="Construct, classify and recognize nilpotent Lie algebras "
        "of dimension at most 6 (exact arithmetic, characteristic not 2).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Jacobi identity")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("invariants", help="print isomorphism invariants")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true", help="key: value output")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("recognize", help="identify the catalog class")
    p.add_argument("file")
    p.add_argument("--emit-iso", action="store_true")
    p.add_argument("--emit-trace", action="store_true")
    p.add_argument("--machine", action="store_true", help="key: value output")
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("extend", help="build a central extension")
    p.add_argument("file")
    p.add_argument(
        "--cocycles",
        required=True,
        help="semicolon-separated coefficient vectors over the pair basis "
        "(lexicographic (1,2),(1,3),...)",
    )
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("catalog", help="list catalog ids or print one table")
    p.add_argument("--field", required=True)
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("id", nargs="?")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("count", help="number of classes per dimension")
    p.add_argument("--field", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("isotest", help="finite-field isomorphism oracle")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.set_defaults(fn=cmd_isotest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except NilcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
