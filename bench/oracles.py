"""Reference results computed without falg.

Vectors are plain dicts ``index -> Fraction`` (or ``float`` for the float64
truth inputs), maps are dicts ``column -> vector``, and every result is
returned zero-free.  The basis codecs are written here from the fixture
definitions (x^i x^j = x^(i+j); words over {a, b} in length-lex order; the
zig-zag order 0, 1, -1, 2, -2, ... of the integer group), not imported.
The random-input helpers at the end are shared by the workloads.
"""

from __future__ import annotations

from fractions import Fraction

QUATERNION = {
    # (i, j) -> (k, sign) for e_i * e_j with 0..3 = 1, i, j, k
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def _nonzero(out: dict) -> dict:
    return {k: c for k, c in out.items() if c != 0}


def poly_index(i: int, j: int) -> int:
    return i + j


def free2_index(i: int, j: int) -> int:
    """Concatenate two words over {a, b}.

    In length-lex order the word w has index int("1" + bits(w), 2) - 1 with
    a = 0 and b = 1, so concatenation is a shift of the binary forms.
    """
    low = j + 1
    width = low.bit_length() - 1
    return ((i + 1) << width) + low - (1 << width) - 1


def group_z_index(i: int, j: int) -> int:
    def exponent(n: int) -> int:
        return (n + 1) >> 1 if n & 1 else -(n >> 1)

    e = exponent(i) + exponent(j)
    return 2 * e - 1 if e > 0 else -2 * e


def mul_by_index(index, a: dict, b: dict) -> dict:
    """Product in an algebra whose basis products are single basis vectors."""
    out: dict = {}
    for i, ai in a.items():
        for j, bj in b.items():
            k = index(i, j)
            out[k] = out.get(k, 0) + ai * bj
    return _nonzero(out)


def mul_quaternion(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, ai in a.items():
        for j, bj in b.items():
            k, sign = QUATERNION[(i, j)]
            out[k] = out.get(k, 0) + sign * ai * bj
    return _nonzero(out)


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for i, c in b.items():
        out[i] = out.get(i, 0) + c
    return _nonzero(out)


def scale(d, a: dict) -> dict:
    return _nonzero({i: d * c for i, c in a.items()})


def apply(cols: dict, v: dict) -> dict:
    out: dict = {}
    for j, vj in v.items():
        for i, fij in cols.get(j, {}).items():
            out[i] = out.get(i, 0) + fij * vj
    return _nonzero(out)


def compose(f: dict, g: dict) -> dict:
    """Columns of f after g; empty columns dropped."""
    out = {}
    for j, col in g.items():
        image = apply(f, col)
        if image:
            out[j] = image
    return out


def pure_tensor(factors: list[dict]) -> dict:
    out = {(): Fraction(1)}
    for factor in factors:
        out = {key + (i,): c * ci for key, c in out.items() for i, ci in factor.items()}
    return _nonzero(out)


def sandwich(index, t: dict, f: dict, x: dict) -> dict:
    """sum over (i, j) of t^ij * e_i * f(x) * e_j in an index-product algebra."""
    fx = apply(f, x)
    out: dict = {}
    for (i, j), c in t.items():
        for k, v in fx.items():
            key = index(index(i, k), j)
            out[key] = out.get(key, 0) + c * v
    return _nonzero(out)


def l1(a: dict):
    return sum((abs(c) for c in a.values()), Fraction(0))


def l1_total(cols: dict):
    return sum((l1(col) for col in cols.values()), Fraction(0))


def l1_distance(a: dict, b: dict):
    return sum((abs(a.get(i, 0) - b.get(i, 0)) for i in set(a) | set(b)), Fraction(0))


def bilinear(slots: dict, x: dict, y: dict) -> dict:
    """sum_j x_j * slots[j](y) for a curried arity-2 map."""
    out: dict = {}
    for j, xj in x.items():
        if j in slots:
            for i, c in apply(slots[j], y).items():
                out[i] = out.get(i, 0) + xj * c
    return _nonzero(out)


def exact(value) -> dict:
    """Float or Fraction coefficients as exact Fractions."""
    return {i: Fraction(c) for i, c in value.items()}


# certified expression trees ------------------------------------------------
#
# A tree is nested tuples: ("leaf", coords, keep), ("add", u, v),
# ("scale", d, v), ("mul", u, v) in the polynomial algebra, ("apply", m, v);
# maps are ("mleaf", cols, keep) or ("compose", f, g).  `keep` lists what the
# truncated input stores; the truth uses every coordinate.


def tree_truth(node) -> dict:
    kind = node[0]
    if kind in ("leaf", "mleaf"):
        return node[1]
    if kind == "add":
        return add(tree_truth(node[1]), tree_truth(node[2]))
    if kind == "scale":
        return scale(node[1], tree_truth(node[2]))
    if kind == "mul":
        return mul_by_index(poly_index, tree_truth(node[1]), tree_truth(node[2]))
    if kind == "apply":
        return apply(tree_truth(node[1]), tree_truth(node[2]))
    if kind == "compose":
        return compose(tree_truth(node[1]), tree_truth(node[2]))
    raise ValueError(f"unknown tree node {kind!r}")


# random inputs ----------------------------------------------------------------


def randint(rng, lo: int, hi: int) -> int:
    """Uniform in [lo, hi]; a third of the cost of Random.randint."""
    return lo + int(rng.random() * (hi - lo + 1))


def frac(rng, span: int = 9, den: int = 5) -> Fraction:
    """A nonzero coefficient +-(1..span)/(1..den)."""
    n = randint(rng, 1, span) * rng.choice((1, -1))
    return Fraction(n, randint(rng, 1, den))


def banded(rng, n: int, width: int = 8) -> dict:
    """Column j holds rows j..j+width-1 mod n."""
    return {j: {(j + d) % n: frac(rng) for d in range(width)} for j in range(n)}
