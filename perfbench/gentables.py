"""Seeded dense structure-constant tables for the benchmark's dense verdicts.

Each table is a catalog algebra (sl2, heis3, sl3, tK[t]/(t^N), K[t]/(t^N))
rewritten in a new basis f = P e, where P is a seeded integer unimodular
matrix.  The new constants stay integral, every row gets dense, and the
dimensions of every intrinsic subspace (cocycles, forms, derivations) are
unchanged, so the verdicts on the new tables must equal the catalog verdicts
of the same pair.

The base tables and the arithmetic here use only ``fractions``, ``random``
and ``json``; nothing comes from ``currentalg``, so the inputs do not share
code with the program under test.  Tables are written in the JSON schema
``currentalg`` reads (``build_lie`` / ``build_assoc`` on a file path).
"""

import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 1
SHAPE_SEED = 0   # fixes the dense part of every change of basis

# Lie tables are {(i, j): {k: c}} with both (i, j) and (j, i) present;
# associative tables are {(i, j): {k: c}} for every ordered pair.


def _lie_from_upper(upper):
    full = {}
    for (i, j), terms in upper.items():
        full[(i, j)] = {k: Fraction(c) for k, c in terms.items()}
        full[(j, i)] = {k: -Fraction(c) for k, c in terms.items()}
    return full


def base_sl2():
    """Weight basis (e-, h, e+): [e-, h] = e-, [e-, e+] = h, [h, e+] = e+."""
    return 3, _lie_from_upper({(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 2): {2: 1}})


def base_heis3():
    """[x, y] = z."""
    return 3, _lie_from_upper({(0, 1): {2: 1}})


def base_sl3():
    """Trace-zero 3x3 matrices: E_ij (i != j), E_11 - E_22, E_22 - E_33."""
    mats = []
    for i in range(3):
        for j in range(3):
            if i != j:
                mats.append({(i, j): Fraction(1)})
    mats.append({(0, 0): Fraction(1), (1, 1): Fraction(-1)})
    mats.append({(1, 1): Fraction(1), (2, 2): Fraction(-1)})

    def mul(a, b):
        out = {}
        for (r, m), x in a.items():
            for (m2, c), y in b.items():
                if m == m2:
                    out[(r, c)] = out.get((r, c), 0) + x * y
        return out

    def coords(mat):
        # off-diagonal entries read directly; diag(d1, d2, d3) with trace 0
        # is d1 (E11 - E22) + (d1 + d2) (E22 - E33)
        out = {}
        for idx, m in enumerate(mats[:6]):
            (pos, _), = m.items()
            if mat.get(pos):
                out[idx] = mat[pos]
        d1 = mat.get((0, 0), 0)
        d2 = mat.get((1, 1), 0)
        if d1:
            out[6] = Fraction(d1)
        if d1 + d2:
            out[7] = Fraction(d1 + d2)
        return out

    table = {}
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            ab, ba = mul(mats[i], mats[j]), mul(mats[j], mats[i])
            comm = dict(ab)
            for pos, v in ba.items():
                comm[pos] = comm.get(pos, 0) - v
            terms = coords({p: v for p, v in comm.items() if v})
            if terms:
                table[(i, j)] = terms
    return 8, table


def base_tpoly(n, unital):
    """tK[t]/(t^n) (basis t..t^{n-1}), or K[t]/(t^n) with unit (basis 1..t^{n-1})."""
    exps = list(range(0 if unital else 1, n))
    index = {e: i for i, e in enumerate(exps)}
    table = {}
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            if a + b in index:
                table[(i, j)] = {index[a + b]: Fraction(1)}
    return len(exps), table


def unimodular(n, shape, rng):
    """P = S * Perm * Lower * Upper, det P = +-1, so P^-1 and the new
    structure constants are integral.

    Lower and Upper have unit diagonals and +-1 entries off it, drawn from
    ``shape``; the signs S and the permutation come from ``rng``.  With a
    fixed ``shape`` every seed gives a table of the same coefficient sizes
    in another basis order and sign, so seeds cost about the same to solve.
    """
    lower = [[1 if i == j else (shape.choice((-1, 1)) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (shape.choice((-1, 1)) if i < j else 0)
              for j in range(n)] for i in range(n)]
    prod = [[sum(lower[i][k] * upper[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] * x for x in prod[order[i]]] for i in range(n)]


def inverse(mat):
    """Exact inverse by Gauss-Jordan over Fractions."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def change_basis(n, table, p, q):
    """Constants of the basis f_i = sum_k p[i][k] e_k, with q = p^-1.

    [f_i, f_j] = sum_{k,l} p_ik p_jl [e_k, e_l], and e_m = sum_r q[m][r] f_r.
    """
    out = {}
    for i in range(n):
        for j in range(n):
            in_e = {}
            for k in range(n):
                if not p[i][k]:
                    continue
                for l in range(n):
                    if not p[j][l]:
                        continue
                    for m, c in table.get((k, l), {}).items():
                        in_e[m] = in_e.get(m, 0) + p[i][k] * p[j][l] * c
            in_f = {}
            for m, c in in_e.items():
                if c:
                    for r in range(n):
                        if q[m][r]:
                            in_f[r] = in_f.get(r, 0) + c * q[m][r]
            terms = {r: c for r, c in in_f.items() if c}
            if terms:
                out[(i, j)] = terms
    return out


def _entries(table, pairs):
    return [{"i": i, "j": j,
             "terms": [{"k": k, "c": str(c)} for k, c in sorted(table[(i, j)].items())]}
            for i, j in pairs if (i, j) in table]


def lie_record(n, table, name):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return {"kind": "lie", "dim": n, "basis": ["%s_f%d" % (name, i) for i in range(n)],
            "table": _entries(table, pairs)}


def assoc_record(n, table, name, unital):
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return {"kind": "assoc", "dim": n, "basis": ["%s_f%d" % (name, i) for i in range(n)],
            "table": _entries(table, pairs), "unital": unital}


# name -> (kind, base builder, unital); file names avoid ':' for portability
TABLES = {
    "sl2": ("lie", base_sl2, False),
    "heis3": ("lie", base_heis3, False),
    "sl3": ("lie", base_sl3, False),
    "tpoly-2": ("assoc", lambda: base_tpoly(2, False), False),
    "tpoly-3": ("assoc", lambda: base_tpoly(3, False), False),
    "tpoly1-3": ("assoc", lambda: base_tpoly(3, True), True),
}


def dense_tables(seed):
    """{name: JSON record} for every table; the seed picks basis order and signs."""
    shape = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    out = {}
    for name, (kind, build, unital) in TABLES.items():
        n, table = build()
        p = unimodular(n, shape, rng)
        q = inverse(p)
        if any(x.denominator != 1 for row in q for x in row):
            raise ValueError("change of basis for %s is not unimodular" % name)
        new = change_basis(n, table, p, q)
        out[name] = (lie_record(n, new, name) if kind == "lie"
                     else assoc_record(n, new, name, unital))
    return out


def write_tables(seed, directory):
    """Write every table as <directory>/<name>.json."""
    os.makedirs(directory, exist_ok=True)
    for name, record in dense_tables(seed).items():
        with open(os.path.join(directory, name + ".json"), "w") as fh:
            json.dump(record, fh, sort_keys=True)
            fh.write("\n")
