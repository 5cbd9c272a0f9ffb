"""Algebra structure on a free module, given by structure constants.

A :class:`StructureTable` stores, for each basis pair (i, j), the expansion
of the product e_i * e_j.  The product of two finite-support vectors is the
double sum over their supports, so it stays finite-support.  Tables may be
extensional (a finite dict of entries, absent pairs are zero) or backed by a
rule that produces entries on demand; rule results are memoized.

A table may declare a pair bound K with sum_k |C^k_ij| <= K for every pair.
The bound is a certificate the truncation layer relies on; lookups verify it
lazily and raise :class:`CertificateError` on the first violating pair.
The check reads the lo end of ``backend._mass_bounds``, never above the
exact mass of the entry, so it rejects only provable violations.

Checked-entry invariant: ``StructureTable._rows``, the one memo, holds
``_rows[i][j]`` exactly for the pairs whose entry has passed the pair-bound
check (every looked-up pair when no bound is declared): the numerator form
``(d, {k: n})`` of its entry (see the hamel module docstring), which is
what ``_mul_form`` reads.  ``entries`` stays the one store of the entries
themselves, so ``lookup`` returns ``entries[(i, j)]`` for a checked pair.
Only rule results are added to ``entries``, so ``len(table.entries)`` is
the memo size of a rule table; the absent pairs of an extensional table
are zero and are memoized in ``_rows`` alone, so using a table never
changes its ``==``.  ``_mul_form``'s lookup loop reads row i once per i
and calls ``lookup`` only for pairs not yet in it; an entry that violates
the bound never enters it, so every product that reaches it raises again.
``lookup`` checks both indices with ``hamel._check_index`` before it reads
the memo, computes or stores anything, so a bad pair leaves neither a row
nor an entry behind, and so does the constructor for every key of
``entries``; ``_mul_form`` calls ``lookup`` only for a pair missing from
``_rows``, so ``mul`` on a filled memo pays nothing for the check.

``_mul_form`` multiplies two numerator forms; ``mul`` checks its operands,
splits them into forms and wraps the product form into a vector.  It takes
one of two paths.  The lookup loop visits every pair (i, j) of the two
supports and adds the entry's numerators inline, the only sum of forms
that rescales its running denominator.  A power basis
(``polynomial`` and ``group_z`` in ``catalog``) also carries a private
codec, ``_codec = (to_exponent, to_index)``, with e_i * e_j =
e_to_index(to_exponent(i) + to_exponent(j)); its ``rule`` is built from the
same codec and is kept for ``lookup``.  When the codec is set and the pair
bound is absent or at least 1, ``_convolve`` sums the products by exponent
instead: every entry is one basis vector with coefficient 1, so the check
cannot fail, and it adds x * y at exponent e + f in the loop's i-then-j
order with the loop's rules (a zero term is skipped, a cancelled sum
deleted).  Keys, their order and every float bit equal the loop's, but
nothing is looked up, so neither ``entries`` nor ``_rows`` grows.  With a
bound below 1 the loop runs and its check raises ``CertificateError``.
``_codec`` is not a field, so it changes neither ``==`` nor ``repr``; a
table built by hand has none.

Claimed laws (associativity, commutativity) are never assumed silently:
:meth:`StructureTable.check_laws` probes them, and anything that needs a law
(endomorphism products do not, tensor sandwich maps do) re-checks by
sampling.  Each law is one row of ``_LAWS``: its name, its arguments in
draw order, its two sides and the public defect (``commutator``,
``associator``) a counterexample also shows.  ``check_laws`` holds the one
probe loop.  Per trial it draws a row's arguments in order, a scalar with
``_rand_scalar`` and each vector straight into a numerator form with
``_rand_form`` (both bound to the rng's ``getrandbits`` once), evaluates
the two sides with ``_product``, ``_sum`` and ``_scaled`` (``_mul_form``
and ``_combine`` underneath), and compares them by cross-multiplication.
Vectors are built only to render a counterexample: ``name=value`` per
argument, then the defect.
Every random int of a probe (and of ``map_via_tensor``'s spot check) is
drawn by ``_below``'s rule: ``_below(rng, n)`` reads n.bit_length() bits
from ``rng.getrandbits`` and reads again while the result is n or more, as
CPython's ``Random.randint`` does underneath, so ``a + _below(rng, b - a +
1)`` is the value ``rng.randint(a, b)`` would return, and leaves the same
state.  The spot check calls ``_below``; the probe's two draws,
``_rand_scalar`` and ``_rand_form``, apply the rule inline to the
``getrandbits`` that ``check_laws`` binds once, so a draw costs one call of
that C method and no Python call.  Either way a seed still names the same
report, counterexample included, as it did when every draw was a ``randint``.
The probes make the checks the public operations would make, in the same
order: lookups raise the same ``CertificateError`` and float64 rejects a
non-finite product, sum or scaling with the same ``ValueError``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Callable, Mapping, Optional

from .ring import Backend, NormValue, Scalar, _Frozen
from .hamel import (
    HamelVector,
    _check_index,
    _combine,
    _form_vector,
    _operand,
    _wire_index,
    _wire_object,
    zero_vector,
)


class CertificateError(ValueError):
    """A declared certificate (pair bound, tail bound) failed verification."""


class StructureTable(_Frozen):
    """Structure constants C^k_ij with optional pair bound and law claims.

    The one mutable record: the memo grows in place and callers may rebind
    fields, so it compares by its fields but is not hashable.
    """

    _fields = (
        "backend", "name", "entries", "rule", "pair_bound", "claims_associative", "claims_commutative"
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        backend: Backend,
        name: str = "anonymous",
        entries: Mapping[tuple[int, int], HamelVector] = {},
        rule: Optional[Callable[[int, int], object]] = None,
        pair_bound: Optional[NormValue] = None,
        claims_associative: bool = False,
        claims_commutative: bool = False,
    ):
        self.backend = backend
        self.name = name
        self.pair_bound = None if pair_bound is None else backend.norm_check(pair_bound)
        self.entries = {(_check_index(i), _check_index(j)): self._coerce(entry) for (i, j), entry in entries.items()}
        self.rule = rule
        self.claims_associative = claims_associative
        self.claims_commutative = claims_commutative
        # _rows[i][j]: the numerator form of each entry that passed the pair-bound check
        self._rows: dict[int, dict[int, tuple[int, dict]]] = {}
        # a power basis sets (to_exponent, to_index) here; see _mul_form
        self._codec = None

    def _coerce(self, entry) -> HamelVector:
        if isinstance(entry, HamelVector):
            return _operand(entry, HamelVector, self.backend, "table entry")
        return HamelVector(self.backend, entry)

    def lookup(self, i: int, j: int) -> HamelVector:
        """Expansion of e_i * e_j; zero for absent pairs of an extensional table.

        Both indices are checked first (``TypeError`` or ``ValueError``, as for
        any basis index), so a bad pair is neither computed nor memoized, and
        ``True`` or ``1.0`` does not read the memo of 1.
        """
        _check_index(i)
        _check_index(j)
        key = (i, j)
        entry = self.entries.get(key)
        row = self._rows.get(i)
        if row is None or j not in row:
            row = self._rows.setdefault(i, {})
        elif entry is not None:
            return entry
        if entry is None and self.rule is None:
            # absent pair of an extensional table: memoized in _rows only
            row[j] = (1, {})
            return zero_vector(self.backend)
        if entry is None:
            entry = self.entries[key] = self._coerce(self.rule(i, j))
        if self.pair_bound is not None:
            mass = self.backend._mass_bounds(entry._raw.values())[0]
            if mass > self.pair_bound:
                raise CertificateError(
                    f"pair bound violated at ({i}, {j}): "
                    f"sum of |C| is {mass}, declared bound {self.pair_bound}"
                )
        row[j] = self.backend._split(entry._raw)
        return entry

    def mul(self, a: HamelVector, b: HamelVector) -> HamelVector:
        """(ab)^k = sum_ij a^i b^j C^k_ij over the two finite supports.

        Each term is (a^i * b^j) * C^k_ij, summed in i, j, k order; float
        results depend on both the association and the order.
        """
        backend = self.backend
        _operand(a, HamelVector, backend, "operand")
        _operand(b, HamelVector, backend, "operand")
        return _form_vector(backend, self._mul_form(backend._split(a._raw), backend._split(b._raw)))

    def _mul_form(self, fa: tuple[int, dict], fb: tuple[int, dict]) -> tuple[int, dict]:
        """The numerator form of the product of two numerator forms, unchecked."""
        da, xa = fa
        db, xb = fb
        if self._codec is not None and (self.pair_bound is None or self.pair_bound >= 1):
            return da * db, self._convolve(xa, xb)
        rows = self._rows
        acc: dict = {}
        den = 1
        for i, x in xa.items():
            row = rows.get(i, {})
            for j, y in xb.items():
                if j not in row:
                    self.lookup(i, j)
                    row = rows[i]
                d, nums = row[j]
                if den % d:  # a new denominator: multiply the running sum through to lcm(den, d)
                    m = d // gcd(den, d)
                    acc = {k: n * m for k, n in acc.items()}
                    den *= m
                s = x * y if d == den else x * y * (den // d)
                for k, n in nums.items():
                    t = s * n
                    if not t:
                        continue
                    if k in acc:
                        t = acc[k] + t
                        if not t:
                            del acc[k]
                            continue
                    acc[k] = t
        return da * db * den, acc

    def _convolve(self, xa: dict, xb: dict) -> dict:
        """The product numerators of a power basis, summed by exponent.

        Every entry is one basis vector with coefficient 1, so each pair adds
        x * y at exponent e + f, in the loop's i-then-j order, with its rules:
        a zero term is skipped and a sum that cancels is deleted.
        """
        to_exponent, to_index = self._codec
        fb = [(to_exponent(j), y) for j, y in xb.items()]
        acc: dict = {}
        for i, x in xa.items():
            e = to_exponent(i)
            for f, y in fb:
                t = x * y
                if not t:
                    continue
                k = e + f
                if k in acc:
                    t = acc[k] + t
                    if not t:
                        del acc[k]
                        continue
                acc[k] = t
        return {to_index(k): t for k, t in acc.items()}

    def _product(self, fa: tuple[int, dict], fb: tuple[int, dict]) -> tuple[int, dict]:
        """_mul_form, with the float64 finiteness check mul makes on its result."""
        form = self._mul_form(fa, fb)
        self.backend._check_sums(form[1].values())
        return form

    def _sum(self, *parts) -> tuple[int, dict]:
        """_combine of (s, form) parts, with the float64 finiteness check + and scale make."""
        form = _combine(parts)
        self.backend._check_sums(form[1].values())
        return form

    def commutator(self, a: HamelVector, b: HamelVector) -> HamelVector:
        """[a, b] = ab - ba; zero iff the pair commutes."""
        return self.mul(a, b) - self.mul(b, a)

    def associator(self, a: HamelVector, b: HamelVector, c: HamelVector) -> HamelVector:
        """(a, b, c) = (ab)c - a(bc); zero iff the triple associates."""
        return self.mul(self.mul(a, b), c) - self.mul(a, self.mul(b, c))

    def nucleus_defects(self, a, pairs) -> tuple["AssociatorDefect", ...]:
        """Nonzero associators with `a` in each slot, against witness pairs.

        Empty result means `a` associates with every given pair in all three
        positions (a nucleus membership certificate relative to the
        witnesses, nothing stronger).
        """
        out = []
        for x, y in pairs:
            for slot, triple in (
                ("left", (a, x, y)),
                ("middle", (x, a, y)),
                ("right", (x, y, a)),
            ):
                value = self.associator(*triple)
                if not value.is_zero():
                    out.append(AssociatorDefect(slot, x, y, value))
        return tuple(out)

    def center_defects(self, a, witnesses) -> "CenterReport":
        """Commutation and association defects of `a` against witnesses.

        Checks [a, x] for every witness x and all three associator slots
        over every ordered witness pair.
        """
        witnesses = list(witnesses)
        comms = []
        for x in witnesses:
            value = self.commutator(a, x)
            if not value.is_zero():
                comms.append(CommutatorDefect(x, value))
        pairs = [(x, y) for x in witnesses for y in witnesses]
        return CenterReport(tuple(comms), self.nucleus_defects(a, pairs))

    def check_laws(self, trials: int = 100, max_index: int = 16, seed: int = 0) -> "LawReport":
        """Probe bilinearity and claimed laws on seeded random vectors.

        Exact equality on every backend; float sampling sticks to small
        integers so IEEE arithmetic stays exact too.  Returns a report, one
        entry per law, with a rendered counterexample on failure.
        """
        if isinstance(trials, bool) or not isinstance(trials, int) or trials <= 0:
            raise ValueError(f"trials must be a positive integer, got {trials}")
        _check_max_index(max_index)
        bits = random.Random(seed).getrandbits
        scalar = partial(self._rand_scalar, bits)
        form = partial(self._rand_form, bits, max_index + 1)
        results = []
        for law_name, params, sides, defect in _LAWS:
            if not getattr(self, f"claims_{law_name}", True):
                continue  # commutativity and associativity are probed only when claimed
            draws = [scalar if p == "d" else form for p in params]
            counterexample = None
            for done in range(1, trials + 1):
                args = [draw() for draw in draws]
                if _same(*sides(self, *args)):
                    continue
                values = [self._scalar(a) if p == "d" else _form_vector(self.backend, a)
                          for p, a in zip(params, args)]
                parts = list(zip(params, values))
                if defect is not None:
                    # on float64 the defect's difference may overflow and raise, as it always did
                    parts.append((defect, getattr(self, defect)(*values)))
                counterexample = "; ".join(f"{k}={_render_value(v)}" for k, v in parts)
                break
            results.append(LawResult(law_name, counterexample is None, done, counterexample))
        return LawReport(self.name, seed, trials, tuple(results))

    def _rand_scalar(self, bits) -> tuple[int, object]:
        """A random scalar p / q as the pair (q, p), p in [-5, 5]; q in [1, 4] is drawn on rat only.

        bits is the probe's getrandbits, read as ``_below`` reads it: p + 5 is
        ``_below(rng, 11)``, 4 bits at a time, and q - 1 is ``_below(rng, 4)``,
        3 bits at a time.
        """
        n = bits(4)
        while n >= 11:
            n = bits(4)
        if self.backend.name != "rat":
            return 1, self.backend.check(n - 5)
        q = bits(3)
        while q >= 4:
            q = bits(3)
        return q + 1, n - 5

    def _rand_form(self, bits, width: int) -> tuple[int, dict]:
        """The numerator form of a random vector of at most three terms, indices below width.

        bits is read as ``_rand_scalar`` reads it: the size is ``_below(rng,
        4)``, then each term draws its scalar, then its index ``_below(rng,
        width)``, the order in which Python evaluates ``drawn[index] =
        scalar``.  A repeated index keeps its first position and its last
        value, and zero draws are dropped, as the vector constructor would.
        """
        size = bits(3)
        while size >= 4:
            size = bits(3)
        if not size:
            return 1, {}
        k = width.bit_length()
        drawn = {}
        for _ in range(size):
            scalar = self._rand_scalar(bits)
            i = bits(k)
            while i >= width:
                i = bits(k)
            drawn[i] = scalar
        den = 1
        for q, p in drawn.values():
            if p and den % q:
                den = lcm(den, q)
        nums = {}
        for i, (q, p) in drawn.items():
            if p:
                nums[i] = p * (den // q)
        return den, nums

    def _scaled(self, form: tuple[int, dict], d: tuple[int, object]) -> tuple[int, dict]:
        q, p = d
        den, nums = self._sum((p, form))
        return den * q, nums

    def _scalar(self, d: tuple[int, object]) -> Scalar:
        q, p = d
        return self.backend.scalar(Fraction(p, q) if q != 1 else p)


# The laws check_laws probes, in report order.  Each row holds the law's name;
# its arguments in draw order, d a scalar (q, p) from _rand_scalar and u, v, w
# numerator forms from _rand_form; its two sides, left then right, evaluated on
# the table t; and the public defect a counterexample also shows, if any.
_LAWS = (
    ("left_distributive", "uvw", lambda t, u, v, w: (
        t._product(t._sum((1, u), (1, v)), w), t._sum((1, t._product(u, w)), (1, t._product(v, w)))), None),
    ("right_distributive", "uvw", lambda t, u, v, w: (
        t._product(u, t._sum((1, v), (1, w))), t._sum((1, t._product(u, v)), (1, t._product(u, w)))), None),
    ("scalar_left", "duv", lambda t, d, u, v: (
        t._product(t._scaled(u, d), v), t._scaled(t._product(u, v), d)), None),
    ("scalar_right", "duv", lambda t, d, u, v: (
        t._product(u, t._scaled(v, d)), t._scaled(t._product(u, v), d)), None),
    ("commutative", "uv", lambda t, u, v: (t._product(u, v), t._product(v, u)), "commutator"),
    ("associative", "uvw", lambda t, u, v, w: (
        t._product(t._product(u, v), w), t._product(u, t._product(v, w))), "associator"),
)


def _below(rng, n: int) -> int:
    """A random int in [0, n), n >= 1, drawn from rng.getrandbits as Random.randint draws it.

    k = n.bit_length() bits at a time, drawn again until the result is below
    n, as CPython's ``Random._randbelow_with_getrandbits`` does; so
    ``a + _below(rng, b - a + 1)`` is ``rng.randint(a, b)`` from the same state.
    It is written out rather than called as the private ``rng._randbelow``,
    whose algorithm CPython may change: ``getrandbits`` is public and its
    stream is fixed by the generator, so a seed keeps naming the same report
    whatever a later ``randint`` does (the tests pin it to today's).
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _same(f: tuple[int, dict], g: tuple[int, dict]) -> bool:
    """Whether two numerator forms hold the same values.

    Forms are not reduced, so equal values may sit over different
    denominators: compare n / d with n' / d' as n * d' == n' * d.
    """
    d, a = f
    e, b = g
    if a.keys() != b.keys():
        return False
    for k, n in a.items():
        if n * e != b[k] * d:
            return False
    return True


def _check_max_index(max_index) -> None:
    """Reject a max_index (the largest basis index a probe draws) that is not an int >= 0."""
    if isinstance(max_index, bool) or not isinstance(max_index, int):
        raise TypeError(f"max_index must be int, got {type(max_index).__name__}")
    if max_index < 0:
        raise ValueError("max_index must be >= 0")


def _render_value(v) -> str:
    if isinstance(v, HamelVector):
        return "{" + ", ".join(f"{i}: {v.backend.render(v._raw[i])}" for i in sorted(v._raw)) + "}"
    if isinstance(v, Scalar):
        return v.render()
    return str(v)


class AssociatorDefect(_Frozen):
    _fields = ("slot", "x", "y", "value")  # slot: which argument holds the probed element, left/middle/right


class CommutatorDefect(_Frozen):
    _fields = ("x", "value")


class CenterReport(_Frozen):
    _fields = ("commutator_defects", "associator_defects")

    @property
    def ok(self) -> bool:
        return not self.commutator_defects and not self.associator_defects


class LawResult(_Frozen):
    _fields = ("law", "ok", "trials", "counterexample")


class LawReport(_Frozen):
    _fields = ("table", "seed", "trials", "results")

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_data(self) -> dict:
        return {
            "table": self.table,
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "laws": [
                {
                    "law": r.law,
                    "ok": r.ok,
                    "trials": r.trials,
                    **({"counterexample": r.counterexample} if r.counterexample else {}),
                }
                for r in self.results
            ],
        }


def table_to_data(table: StructureTable) -> dict:
    """Serialize an extensional table; rule-backed tables cannot be listed."""
    if table.rule is not None:
        raise ValueError("rule-backed table cannot be serialized extensionally")
    structure = []
    for (i, j) in sorted(table.entries):
        entry = table.entries[(i, j)]
        for k in sorted(entry._raw):
            structure.append({"i": i, "j": j, "k": k, "c": table.backend.render(entry._raw[k])})
    data = {"name": table.name, "structure": structure}
    if table.pair_bound is not None:
        data["pairBound"] = table.backend.norm_render(table.pair_bound)
    data["claims"] = {
        "associative": table.claims_associative,
        "commutative": table.claims_commutative,
    }
    return data


def _row_index(value, where: str) -> int:
    """A structure row's i, j or k: a JSON integer >= 0, or a string in canonical decimal form."""
    if isinstance(value, str):
        try:
            value = _wire_index(value)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{where} must be >= 0, got {value}")
    return value


def table_from_data(backend: Backend, data) -> StructureTable:
    """Parse an extensional table: {"name", "structure", "pairBound"?, "claims"?}.

    structure is a list of {"i", "j", "k", "c"} objects and claims an object
    of JSON booleans; a ValueError names the row and field that break this.
    """
    if not isinstance(data, dict):
        raise ValueError("algebra data must be a JSON object")
    if "structure" not in data:
        raise ValueError("algebra data needs a 'structure' list (or use a builtin name)")
    rows = data["structure"]
    if not isinstance(rows, list):
        raise ValueError(f"'structure' must be a JSON list, got {type(rows).__name__}")
    grouped: dict[tuple[int, int], dict] = {}
    for n, row in enumerate(rows):
        _wire_object(row, f"structure row {n}")
        for name in "ijkc":
            if name not in row:
                raise ValueError(f"structure row {n} has no {name!r} field")
        i, j, k = (_row_index(row[name], f"structure row {n} field {name!r}") for name in "ijk")
        try:
            c = backend.parse(row["c"])
        except (TypeError, ValueError) as e:
            raise type(e)(f"structure row {n} field 'c': {e}") from None
        cell = grouped.setdefault((i, j), {})
        cell[k] = backend.add(cell[k], c) if k in cell else c
    # a cell whose rows cancel is no entry, as table_to_data writes no row for it
    entries = {key: HamelVector(backend, coords) for key, coords in grouped.items() if any(coords.values())}
    claims = _wire_object(data.get("claims", {}), "'claims'")
    for name, claim in claims.items():
        if not isinstance(claim, bool):
            raise ValueError(f"claim {name!r} must be a JSON boolean, got {type(claim).__name__}")
    pair_bound = data.get("pairBound")
    if pair_bound is not None:
        pair_bound = backend.norm_parse(pair_bound)
    return StructureTable(
        backend,
        name=str(data.get("name", "anonymous")),
        entries=entries,
        pair_bound=pair_bound,
        claims_associative=claims.get("associative", False),
        claims_commutative=claims.get("commutative", False),
    )
