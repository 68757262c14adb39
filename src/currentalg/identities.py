r"""Multilinear identities in the structure constants, each written once.

Every condition space in the package is the solution set of an identity
that is linear in an unknown and multilinear in two or three algebra
elements x, y, z.  The unknown is a bilinear form phi (a vector of length
n^2 with phi(x_i, x_j) at i*n + j) or a linear map D (the coefficient of
x_m in D(x_i) at m*n + i).  An identity is a short sum of terms:

    f(xy,z)   phi(xy, z); a slot of f holds one argument or a product
    D(xy)     D applied to a product
    D(x)y     D(x) times y
    xD(y)     x times D(y)

Terms after ``lam`` form the lambda part of a pencil, the rest its
lambda-free part.  An Identity carries weights (w0, w1) and stands for
w0 * (lambda-free part) + w1 * (lambda part) = 0, with w0 = 1, or 0 to
drop the lambda-free part, and w1 the value of lambda.  So one pencil gives
several named conditions: D(xy) - lam (D(x)y + xD(y)) is the derivation
identity at (1, 1), the antiderivation identity at (1, -1), D([L, L]) = 0
at (1, 0) and [Dx, y] + [x, Dy] = 0 at (0, 1).

Signs, weights and the unit coefficient of a one-argument slot are ints,
so the rows of an integral table are int rows; a Fraction enters only
through a structure constant or a lambda that is not an integer.

Two independent evaluations are derived from each identity:

* the row path (pencil_rows, rows) writes one sparse row per output
  coordinate for each basis tuple that the identity's ``order`` selects,
  through the sparse structure constants alg.mul(i, j).  An order relates
  consecutive arguments by <, <= or nothing (,) and keeps one tuple of
  each class whose rows repeat up to sign or vanish; cyclic walks x,y<=z
  on both kinds of algebra.  The order may depend on the symmetry of the
  forms solved (Identity.over): the solve over symmetric forms of a Lie
  algebra walks invariant on x,y<=z, since there the row of (x, z, y)
  folds to that of (x, y, z); every other solve of invariant, and
  first_failure, walks x,y,z.  When every term
  holds a product slot, only the tuples with a nonzero slot are walked
  (_live, which reads the table's masks alg.support), since the others
  give no entry; an identity with a bare D(x)y or xD(y) term walks every
  tuple, through the same enumerator and in the same lexicographic order.
  rows yields its rows one basis tuple at a time, so a kernel reads them
  as a stream and no identity's rows are held as a whole; pencil_rows
  keeps its pairs as a list, which a pencil reads at several values;
* the recheck (recheck) evaluates the identity on seeded random dense
  integer vectors, with the structure constants of alg.mul(i, j) scaled
  to integers, directly at one seeded integer combination of the solution
  basis; a space holding a vector that fails passes with chance at most
  2^-30 + (3/7)^10.

The two share only the identity's terms and the coordinate convention
above, not the tuple enumeration, the support masks (the recheck reads
mul(i, j) alone), the expansion of terms into sparse entries or the
signs as the row path applies them.  A defect there that
lets a wrong vector into a solution space makes the recheck raise
InvariantError; one that only makes the rows too strict is beyond it.
Neither path solves: the callers in forms and derivations own the kernels.
No identity pins a symmetry; forms of one symmetry are solved over pairs.
"""

from collections import defaultdict, namedtuple
from functools import lru_cache
from math import lcm
import random
import re


class InvariantError(AssertionError):
    """An internal invariant failed.  Raised explicitly, so it also fires
    under python -O; an AssertionError for callers that catch those."""


def require(holds, message):
    """The assert of the package: raise InvariantError(message) unless holds."""
    if not holds:
        raise InvariantError(message)


def add_entry(row, col, val):
    """row[col] += val on a sparse row, dropping entries that cancel."""
    if not val:
        return
    v = row.get(col, 0) + val
    if v:
        row[col] = v
    elif col in row:
        del row[col]


class Identity(namedtuple("Identity", "order text terms weights symmetric")):
    """A parsed identity; ``at`` sets the weights of its two parts.
    symmetric is the order of its solve over symmetric forms."""

    __slots__ = ()

    def at(self, w0, w1):
        return self._replace(weights=(w0, w1))

    def over(self, sign):
        """The identity as the solve over forms of symmetry sign walks it."""
        return self._replace(order=self.symmetric) if sign == 1 else self


def _term(sign, part, text):
    args = tuple("xyz".index(ch) for ch in text if ch in "xyz")
    if text.startswith("f("):
        cut = text.index(",") - 2
        return (sign, part, "f", args[:cut], args[cut:])
    if text.startswith("D(") and text.endswith(")"):
        return (sign, part, "D", args, ())
    return (sign, part, "Dl" if text.startswith("D(") else "Dr",
            args[:1], args[1:])


def _identity(order, text, symmetric=None):
    """Parse e.g. "D(xy) - lam D(x)y" into terms (sign, part, kind, left, right)."""
    terms, sign, part = [], 1, 0
    for tok in text.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
        elif tok == "lam":
            part = 1
        else:
            terms.append(_term(sign, part, tok))
            sign, part = 1, 0
    return Identity(order, text, tuple(terms), (1, 1), symmetric or order)


# ``order`` chooses the basis tuples of the row path: consecutive arguments
# are related by <, <= or nothing (,).  Tuples outside it give rows that
# vanish identically or repeat others up to sign: phi([x,z],y) - phi([y,x],z)
# is phi([x,y],z) - phi([z,x],y), and on a commutative algebra
# alpha(xz,y) - alpha(yx,z) is minus alpha(xy,z) - alpha(zx,y).  For
# symmetric phi, phi([x,z],y) + phi(z,[x,y]) is phi([x,y],z) + phi(y,[x,z]);
# the associative invariant row of (x, y, z) is minus that of (z, y, x)
# there, which no order of consecutive arguments selects.

_NONE = _identity("x", "")
_JACOBI = "f(xy,z) + f(zx,y) + f(yz,x)"
_CYCLIC = "f(xy,z) - f(zx,y)"

LIE_FORMS = {
    # repeated arguments vanish identically, increasing triples suffice
    "jacobi_sum_zero": _identity("x<y<z", _JACOBI),
    "cyclic": _identity("x,y<=z", _CYCLIC),
    "radical": _identity("x<y,z", "f(xy,z)"),
    "invariant": _identity("x,y,z", "f(xy,z) + f(y,xz)", "x,y<=z"),
    "none": _NONE,
}

ASSOC_FORMS = {
    # products commute but the slots do not; repeated indices matter here
    "jacobi_sum_zero": _identity("x<=y<=z", _JACOBI),
    "cyclic": _identity("x,y<=z", _CYCLIC),
    "radical": _identity("x<=y,z", "f(xy,z)"),
    "invariant": _identity("x,y,z", "f(xy,z) - f(x,yz)"),
    "none": _NONE,
}

PENCILS = {
    "lie_both": _identity("x<y", "D(xy) - lam D(x)y - lam xD(y)"),
    "lie_left": _identity("x,y", "D(xy) - lam D(x)y"),
    "assoc_both": _identity("x<=y", "D(xy) - lam D(x)y - lam xD(y)"),
    "assoc_left": _identity("x,y", "D(xy) - lam D(x)y"),
}

LIE_MAPS = {
    "derivation": PENCILS["lie_both"].at(1, 1),
    "antiderivation": PENCILS["lie_both"].at(1, -1),
    "ad_anticommute": PENCILS["lie_both"].at(0, 1),
    "kill_derived": PENCILS["lie_both"].at(1, 0),
    "into_center": PENCILS["lie_left"].at(0, 1),
    "self_bracket_zero": _identity("x<=y", "D(x)y + D(y)x"),
    "centroid": PENCILS["lie_left"].at(1, 1),
}

ASSOC_MAPS = {
    "derivation": PENCILS["assoc_both"].at(1, 1),
    "module_map": _identity("x<y", "D(x)y - xD(y)"),
    "anti_module_map": PENCILS["assoc_both"].at(0, 1),
    "kill_square": PENCILS["assoc_both"].at(1, 0),
    "into_annihilator": PENCILS["assoc_left"].at(0, 1),
}

# the form and map conditions of each kind of algebra, keyed by alg.kind
_CONDITIONS = {"lie": {"form": LIE_FORMS, "map": LIE_MAPS},
               "assoc": {"form": ASSOC_FORMS, "map": ASSOC_MAPS}}


def conditions(alg, what, names):
    """The identities named names among the what ("form" or "map")
    conditions of alg's kind; TypeError when alg is not an algebra,
    ValueError on an unknown name."""
    tables = _CONDITIONS.get(getattr(alg, "kind", None))
    if tables is None:
        raise TypeError("not an algebra: %r" % (alg,))
    table = tables[what]
    for name in names:
        if name not in table:
            raise ValueError("unknown %s condition %r" % (what, name))
    return [table[name] for name in names]


# ---------------------------------------------------------------------------
# the row path: basis tuples through the sparse structure constants


def _bits(mask):
    """The set bits of an int mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _tuples(n, order, live=None):
    """Basis index tuples selected by order, in lexicographic order.

    With live, each prefix t (every index but the last) is extended only by
    the last indices in the bit mask live(t), or by every index when
    live(t) is None."""
    steps = [None] + [{"<": 1, "<=": 0}.get(rel)
                      for rel in re.findall(r"<=|<|,", order)]
    prefixes = [()]
    for step in steps[:-1]:
        prefixes = [t + (j,) for t in prefixes
                    for j in range(0 if step is None else t[-1] + step, n)]
    step, every = steps[-1], (1 << n) - 1
    for t in prefixes:
        start = 0 if step is None else t[-1] + step
        mask = None if live is None else live(t)
        if mask is None or mask >> start == every >> start:
            indices = range(start, n)
        else:
            indices = _bits(mask >> start << start)
        for j in indices:
            yield t + (j,)


def _live(alg, ident):
    """live for _tuples(alg.dim, ident.order, live), or None when some term
    has no product slot (D(x)y, xD(y)) and every tuple can give a row.

    A term with a product slot (a, b) gives no entry on a tuple t unless
    x_t[a] x_t[b] != 0.  So a prefix extends by every last index when one
    of its own slots holds a nonzero product, and otherwise only by the j
    that make a slot holding the last position nonzero: alg.support[i],
    the mask of j with x_i x_j != 0, which is the mask of j with
    x_j x_i != 0 too, the table being mirrored."""
    slots = []
    for _, _, _, left, right in ident.terms:
        slot = left if len(left) == 2 else right
        if len(slot) != 2:
            return None
        slots.append(slot)
    mul, support = alg.mul, alg.support
    last = len(re.findall(r"[xyz]", ident.order)) - 1
    whole = [(a, b) for a, b in slots if last not in (a, b)]
    reach = [a if b == last else b for a, b in slots if last in (a, b)]

    def live(t):
        for a, b in whole:
            if mul(t[a], t[b]):
                return None
        mask = 0
        for a in reach:
            mask |= support[t[a]]
        return mask

    return live


def _slot(mul, t, args):
    """A slot of a term on the basis tuple t as (index, coefficient)
    pairs: x_t[a] x_t[b] for a product slot (a, b), x_t[a] for (a,)."""
    if len(args) == 1:
        return ((t[args[0]], 1),)
    return mul(t[args[0]], t[args[1]])


def _entries(alg, terms, t):
    """(output, unknown, value, part) for every term on the basis tuple t.

    Terms with D inside a product share one sweep over m, the basis element
    that D(x_i) contributes at m*n + i, after the other terms; that fixes
    the order in which output coordinates are first touched.
    """
    n = alg.dim
    mul = alg.mul
    swept = []
    for term in terms:
        c, part, kind, left, right = term
        if kind == "f":
            lefts = _slot(mul, t, left)
            rights = _slot(mul, t, right) if lefts else ()
            for p, a in lefts:
                for q, b in rights:
                    yield 0, p * n + q, c * a * b, part
        elif kind == "D":
            for k, a in _slot(mul, t, left):
                for r in range(n):
                    yield r, r * n + k, c * a, part
        else:
            swept.append(term)
    if swept:
        for m in range(n):
            for c, part, kind, left, right in swept:
                if kind == "Dl":
                    i, prods = t[left[0]], mul(m, t[right[0]])
                else:
                    i, prods = t[right[0]], mul(t[left[0]], m)
                for r, a in prods:
                    yield r, m * n + i, c * a, part


def pencil_rows(alg, ident):
    """Rows of the identity as (lambda-free part, lambda part) pairs of
    sparse dicts: basis tuples in order, output coordinates in the order
    they are first touched, rows that vanish in both parts dropped.  A
    list, for a pencil that reads its rows at several values; rows reads
    the same pairs as a stream (_pencil_pairs)."""
    return list(_pencil_pairs(alg, ident))


def _pencil_pairs(alg, ident):
    """The pairs of pencil_rows, yielded basis tuple by basis tuple."""
    for t in _tuples(alg.dim, ident.order, _live(alg, ident)):
        per = {}
        for r, col, val, part in _entries(alg, ident.terms, t):
            pair = per.get(r)
            if pair is None:
                pair = per[r] = ({}, {})
            add_entry(pair[part], col, val)
        for pair in per.values():
            if pair[0] or pair[1]:
                yield pair


def rows_at(pairs, weights):
    """Sparse rows w0 * (lambda-free part) + w1 * (lambda part), w0 in {0, 1},
    yielded one per pair that gives a nonzero row."""
    w0, w1 = weights
    if w1.denominator == 1:
        w1 = w1.numerator   # an integral lambda keeps integral rows in ints
    for const, lin in pairs:
        row = dict(const) if w0 else {}
        if w1:
            for col, c in lin.items():
                add_entry(row, col, w1 * c)
        if row:
            yield row


def first_failure(alg, ident, vec):
    """The first basis tuple of the row path on which the unknown with
    coordinates vec breaks the identity at its weights, or None."""
    for t in _tuples(alg.dim, ident.order, _live(alg, ident)):
        acc = {}
        for r, col, val, part in _entries(alg, ident.terms, t):
            add_entry(acc, r, ident.weights[part] * val * vec[col])
        if acc:
            return t
    return None


def rows(alg, idents):
    """Sparse rows of every identity at its weights, for kernel_from_rows:
    a stream, each row built as the reader takes it, so no identity's rows
    are held as a whole."""
    for ident in idents:
        yield from rows_at(_pencil_pairs(alg, ident), ident.weights)


# ---------------------------------------------------------------------------
# the recheck: dense integer evaluation, apart from the row path

# form identities: 12 triples from seed 99173; map identities: 10 pairs
# from seed 74161; entries uniform in -3..3.  The combination of the
# solution basis: one multiplier per basis vector, uniform in 1..2^30, from
# seed 52711.
_RANDOM_FORMS = (99173, 12, 3)
_RANDOM_MAPS = (74161, 10, 2)
_COMBINATION = (52711, 1 << 30)


@lru_cache(maxsize=16)
def _random_tuples(n, seed, count, size):
    """count tuples of size integer vectors of length n, entries uniform in
    -3..3 from seed: a pure function of its arguments, so each draw is
    made once per process and kept, immutable."""
    rng = random.Random(seed)
    return tuple(tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                       for _ in range(size))
                 for _ in range(count))


def _combination(n, rows):
    """w = sum_i r_i * v_i over the integer basis rows v_i of a Subspace,
    with r_i seeded in 1..2^30: the integer triples (p, q, value) of the
    nonzero coordinates p * n + q of w."""
    seed, top = _COMBINATION
    rng = random.Random(seed)
    w = defaultdict(int)
    for row in rows:
        r = rng.randint(1, top)
        for col, x in row.items():
            w[col] += r * x
    return [divmod(col, n) + (x,) for col, x in sorted(w.items()) if x]


def _int_table(alg):
    """mul(i, j) times the common denominator of all structure constants:
    row i lists (j, ((k, c), ...)) for every j with x_i x_j != 0."""
    n = alg.dim
    rows = [[(j, alg.mul(i, j)) for j in range(n) if alg.mul(i, j)]
            for i in range(n)]
    scale = lcm(1, *(c.denominator for row in rows for _, terms in row
                     for _, c in terms))
    return [[(j, tuple((k, int(c * scale)) for k, c in terms))
             for j, terms in row] for row in rows]


def _times(table, u, v):
    """The product of two integer coordinate vectors under an _int_table."""
    out = [0] * len(u)
    for i, a in enumerate(u):
        if a:
            for j, terms in table[i]:
                if v[j]:
                    ab = a * v[j]
                    for k, c in terms:
                        out[k] += ab * c
    return out


def _int_terms(ident):
    """The terms at the identity's weights as (coefficient, kind, left,
    right), the coefficients times their common denominator; zeros dropped."""
    weighted = [(c * ident.weights[part], kind, left, right)
                for c, part, kind, left, right in ident.terms]
    scale = lcm(1, *(c.denominator for c, _, _, _ in weighted))
    return [(int(c * scale), kind, left, right)
            for c, kind, left, right in weighted if c]


def _evaluate(table, terms, w, vecs):
    """The identity at the unknown w (nonzero (p, q, value): phi(x_p, x_q),
    or the coefficient of x_p in D(x_q)) on the integer vectors vecs, as a
    list of outputs, all zero when the identity holds."""
    n = len(vecs[0])

    def slot(args):
        if len(args) == 1:
            return vecs[args[0]]
        return _times(table, vecs[args[0]], vecs[args[1]])

    def apply(u):
        # D(u) for the unknown: x_p gets sum_q w(p, q) * u_q
        out = [0] * n
        for p, q, x in w:
            if u[q]:
                out[p] += x * u[q]
        return out

    acc = [0] * n
    for c, kind, left, right in terms:
        if kind == "f":
            a, b = slot(left), slot(right)
            acc[0] += c * sum(x * a[p] * b[q] for p, q, x in w)
            continue
        if kind == "D":
            out = apply(slot(left))
        elif kind == "Dl":
            out = _times(table, apply(vecs[left[0]]), vecs[right[0]])
        else:
            out = _times(table, vecs[left[0]], apply(vecs[right[0]]))
        for r, y in enumerate(out):
            acc[r] += c * y
    return acc


def recheck(alg, idents, space):
    """Raise InvariantError unless every basis vector of space satisfies
    every identity at its weights.

    Each identity is evaluated at one seeded combination
    w = sum_i r_i * v_i of the integer rows v_i of space, each a nonzero
    multiple of a basis vector (r_i uniform in 1..2^30), on each seeded
    random tuple, in integers: the structure constants and the weighted
    term coefficients are scaled by their common denominators.  Each term
    holds exactly one product, so the scaling multiplies the identity by
    one nonzero constant and cannot change which outputs vanish.

    A vector v_j that fails the identity passes one tuple with chance at
    most (degree of the identity in the random entries) / 7, so it passes
    all 12 triples or 10 pairs with chance below (3/7)^10.  On a tuple it
    fails, the identity at w is a linear form in the r_i whose coefficient
    of r_j is nonzero, so it vanishes with chance at most 2^-30.  A space
    holding a failing vector passes with chance at most 2^-30 + (3/7)^10.
    """
    idents = [ident for ident in idents if ident.terms]
    if not (idents and space.dim):
        return
    n = alg.dim
    table, w = _int_table(alg), _combination(n, space.rows.values())
    for ident in idents:
        spec = _RANDOM_FORMS if ident.terms[0][2] == "f" else _RANDOM_MAPS
        terms = _int_terms(ident)
        failed = any(any(_evaluate(table, terms, w, vecs))
                     for vecs in _random_tuples(n, *spec))
        require(not failed, "a solution fails its identity %s = 0 at weights %s"
                % (ident.text, tuple(str(v) for v in ident.weights)))
