"""Exact arithmetic that does not depend on nilcat.

Scalars are plain `Fraction`s over Q and ints in [0, p) over GF(p); a
field is named by `p` (None for Q).  Tables are dense: `tab[i][j]` for
0-based i < j is the coordinate list of [x_i, x_j].  This module makes the
benchmark's inputs (seeded basis changes, written as algebra-file text) and
checks every matrix the program returns, so that a fault in nilcat's own
arithmetic or verification cannot make a wrong answer pass.
"""

from __future__ import annotations

from fractions import Fraction


def norm(p, x):
    """Canonical scalar: a Fraction over Q, a residue mod p."""
    if p is None:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator * pow(x.denominator, -1, p) % p
    return x % p


def parse_scalar(p, s: str):
    num, _, den = s.partition("/")
    return norm(p, Fraction(int(num), int(den or 1)))


def parse_algebra(text: str):
    """(p, dim, tab) from the algebra-file format `field`/`dim`/`[i,j] k:c`."""
    p = dim = None
    brackets = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("field"):
            spec = line[5:].strip()
            p = None if spec == "Q" else int(spec[3:-1])
        elif line.startswith("dim"):
            dim = int(line[3:])
        else:
            head, _, rest = line.partition("]")
            i, j = (int(t) for t in head[1:].split(","))
            comps = {}
            for term in rest.split():
                k, _, c = term.partition(":")
                comps[int(k) - 1] = c
            brackets[(i - 1, j - 1)] = comps
    if dim is None:
        raise ValueError("algebra text has no dim line")
    tab = zero_table(p, dim)
    for (i, j), comps in brackets.items():
        for k, c in comps.items():
            tab[i][j][k] = parse_scalar(p, c)
    return p, dim, tab


def format_algebra(p, dim, tab) -> str:
    lines = [f"field {'Q' if p is None else f'GF({p})'}", f"dim {dim}"]
    for i in range(dim):
        for j in range(i + 1, dim):
            terms = [f"{k + 1}:{c}" for k, c in enumerate(tab[i][j]) if c]
            if terms:
                lines.append(f"[{i + 1},{j + 1}] " + " ".join(terms))
    return "\n".join(lines) + "\n"


def zero_table(p, dim):
    z = norm(p, 0)
    return [[[z] * dim if j > i else None for j in range(dim)] for i in range(dim)]


def bracket(p, tab, u, v):
    n = len(u)
    out = [norm(p, 0)] * n
    for i in range(n):
        for j in range(i + 1, n):
            c = u[i] * v[j] - u[j] * v[i]
            if c:
                out = [o + c * w for o, w in zip(out, tab[i][j])]
    return [norm(p, x) for x in out]


def matvec(p, M, v):
    return [norm(p, sum((a * x for a, x in zip(row, v)), 0)) for row in M]


def invert(p, M):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(M)
    one = norm(p, 1)
    a = [list(row) + [one if c == r else norm(p, 0) for c in range(n)]
         for r, row in enumerate(M)]
    for c in range(n):
        pr = next((r for r in range(c, n) if a[r][c]), None)
        if pr is None:
            return None
        a[c], a[pr] = a[pr], a[c]
        inv = 1 / a[c][c] if p is None else pow(a[c][c], -1, p)
        a[c] = [norm(p, x * inv) for x in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f:
                a[r] = [norm(p, x - f * y) for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def change_basis(p, tab, P):
    """Table of the same algebra in the basis y_j = sum_i P[i][j] x_i."""
    n = len(P)
    Pinv = invert(p, P)
    cols = [[P[i][j] for i in range(n)] for j in range(n)]
    out = zero_table(p, n)
    for a in range(n):
        for b in range(a + 1, n):
            out[a][b] = matvec(p, Pinv, bracket(p, tab, cols[a], cols[b]))
    return out


def random_invertible(rng, p, n):
    """The draw of nilcat's fuzz_basis_change: entries in -2..2 over Q,
    uniform residues over GF(p), redrawn until invertible."""
    while True:
        if p is None:
            P = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        else:
            P = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if invert(p, P) is not None:
            return P


def is_isomorphism(p, M, src, dst) -> bool:
    """M (column j = image of basis vector j) is an invertible map with
    M[x_i, x_j]_src = [M x_i, M x_j]_dst for every basis pair."""
    n = len(M)
    if any(len(row) != n for row in M) or invert(p, M) is None:
        return False
    cols = [[M[i][j] for i in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if matvec(p, M, src[i][j]) != bracket(p, dst, cols[i], cols[j]):
                return False
    return True
