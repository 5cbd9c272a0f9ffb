"""Builtin algebra fixtures and their basis-label codecs.

Each fixture pairs a structure table with a bijection between structured
labels ("x^2", "ab", "g^-1") and basis indices, so expressions and tests can
name basis vectors the way a human would.  Index 0 is the unit in every
builtin.

Builtins:
  polynomial  one variable, x^i * x^j = x^(i+j); label x^n at index n
  free:k      words over the first k letters, concatenation product,
              enumerated length-lexicographically; empty word (the unit)
              has label "1"
  quaternion  indices 0..3 are 1, i, j, k with the standard table
  complex     indices 0..1 are 1, i
  group_z     group algebra of the integers; g^n zig-zag encoded
              (exponents 0, 1, -1, 2, -2, ... at indices 0, 1, 2, 3, 4, ...)

All of these have pair bound 1: every basis product is a single basis
vector with coefficient +-1.  Entries hold raw values: a rule returns a
``basis_vector`` and a finite table's entry is ``{k: backend.from_int(sign)}``,
so loading a builtin or looking a pair up builds no Scalar.

``polynomial`` and ``group_z`` are power bases, symbol^m * symbol^n =
symbol^(m+n).  Besides its rule, such a table carries the codec
``(to_exponent, to_index)`` the rule is built from, so
``StructureTable.mul`` adds exponents instead of looking up every pair.
"""

from __future__ import annotations

from .ring import RATIONAL, Backend, _Frozen
from .hamel import HamelVector, basis_vector
from .algebra import StructureTable, table_from_data


class LabelError(ValueError):
    """A basis label does not belong to the fixture's codec."""


class AlgebraFixture(_Frozen):
    """A structure table plus the label codec naming its basis."""

    _fields = ("table", "encoder", "decoder")  # encoder: label -> index; decoder: index -> label

    @property
    def name(self) -> str:
        return self.table.name

    @property
    def backend(self) -> Backend:
        return self.table.backend

    def encode(self, label: str) -> int:
        return self.encoder(label)

    def decode(self, index: int) -> str:
        return self.decoder(index)


def _power_label(symbol: str, n: int) -> str:
    if n == 0:
        return "1"
    if n == 1:
        return symbol
    return f"{symbol}^{n}"


def _parse_power(symbol: str, label: str, allow_negative: bool) -> int:
    """Invert _power_label; accepts the redundant forms symbol^0, symbol^1."""
    if label == "1":
        return 0
    if label == symbol:
        return 1
    head = symbol + "^"
    if label.startswith(head):
        body = label[len(head):]
        try:
            n = int(body)
        except ValueError:
            raise LabelError(f"malformed label {label!r}") from None
        if str(n) != body:  # reject "x^+2", "x^ 2", "x^02"
            raise LabelError(f"malformed label {label!r}")
        if n < 0 and not allow_negative:
            raise LabelError(f"negative power in label {label!r}")
        return n
    raise LabelError(f"malformed label {label!r}")


def _power_basis(backend, name, symbol, to_index, to_exponent, allow_negative) -> AlgebraFixture:
    """The algebra spanned by the powers of `symbol`, symbol^m * symbol^n = symbol^(m+n),
    with symbol^n at basis index to_index(n) and to_exponent the inverse map."""

    def rule(i, j):
        return basis_vector(backend, to_index(to_exponent(i) + to_exponent(j)))

    table = StructureTable(
        backend,
        name=name,
        rule=rule,
        pair_bound=1,
        claims_associative=True,
        claims_commutative=True,
    )
    table._codec = (to_exponent, to_index)

    def encode(label: str) -> int:
        return to_index(_parse_power(symbol, label, allow_negative))

    def decode(index: int) -> str:
        if index < 0:
            raise LabelError(f"invalid basis index {index}")
        return _power_label(symbol, to_exponent(index))

    return AlgebraFixture(table, encode, decode)


def _identity(n: int) -> int:
    return n


def _zigzag(n: int) -> int:
    return 2 * n - 1 if n > 0 else -2 * n


def _unzigzag(index: int) -> int:
    return (index + 1) // 2 if index % 2 else -(index // 2)


def _word_offset(k: int, length: int) -> int:
    """Number of words over k letters shorter than `length`."""
    if k == 1:
        return length
    return (k**length - 1) // (k - 1)


def _free_words(backend: Backend, k: int) -> AlgebraFixture:
    letters = "abcdefghijklmnopqrstuvwxyz"
    if k > len(letters):
        raise ValueError(f"free:{k} exceeds the {len(letters)}-letter alphabet")
    alphabet = letters[:k]

    def word_to_index(word: str) -> int:
        value = 0
        for ch in word:
            value = value * k + alphabet.index(ch)
        return _word_offset(k, len(word)) + value

    def split(index: int) -> tuple[int, int]:
        """(length, value) with index = offset(length) + value, 0 <= value < k**length."""
        if k == 1:
            return index, 0
        length = 0
        while _word_offset(k, length + 1) <= index:
            length += 1
        return length, index - _word_offset(k, length)

    def index_to_word(index: int) -> str:
        length, rem = split(index)
        out = []
        for _ in range(length):
            rem, d = divmod(rem, k)
            out.append(alphabet[d])
        return "".join(reversed(out))

    def rule(i, j):
        # concatenation in index arithmetic: the digits of j follow those of i
        len_i, val_i = split(i)
        len_j, val_j = split(j)
        return basis_vector(backend, _word_offset(k, len_i + len_j) + val_i * k**len_j + val_j)

    table = StructureTable(
        backend,
        name=f"free:{k}",
        rule=rule,
        pair_bound=1,
        claims_associative=True,
        claims_commutative=False,
    )

    def encode(label: str) -> int:
        if label in ("1", ""):
            return 0
        for ch in label:
            if ch not in alphabet:
                raise LabelError(f"letter {ch!r} is not in the free:{k} alphabet {alphabet!r}")
        return word_to_index(label)

    def decode(index: int) -> str:
        if index < 0:
            raise LabelError(f"invalid basis index {index}")
        return index_to_word(index) if index else "1"

    return AlgebraFixture(table, encode, decode)


def _finite_fixture(backend, name, labels, products, commutative) -> AlgebraFixture:
    entries = {}
    for (i, j), (k, sign) in products.items():
        entries[(i, j)] = HamelVector(backend, {k: backend.from_int(sign)})
    table = StructureTable(
        backend,
        name=name,
        entries=entries,
        pair_bound=1,
        claims_associative=True,
        claims_commutative=commutative,
    )

    def encode(label: str) -> int:
        try:
            return labels.index(label)
        except ValueError:
            raise LabelError(f"malformed label {label!r}; expected one of {labels}") from None

    def decode(index: int) -> str:
        if not 0 <= index < len(labels):
            raise LabelError(f"basis index {index} outside the {name} basis 0..{len(labels) - 1}")
        return labels[index]

    return AlgebraFixture(table, encode, decode)


def _quaternion(backend: Backend) -> AlgebraFixture:
    # 0..3 = 1, i, j, k; i^2 = j^2 = k^2 = -1; ij = k cyclic, anti on swap
    products = {}
    for n in range(4):
        products[(0, n)] = (n, 1)
        products[(n, 0)] = (n, 1)
    for n in (1, 2, 3):
        products[(n, n)] = (0, -1)
    cyclic = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for (i, j), k in cyclic.items():
        products[(i, j)] = (k, 1)
        products[(j, i)] = (k, -1)
    return _finite_fixture(backend, "quaternion", ["1", "i", "j", "k"], products, False)


def _complex(backend: Backend) -> AlgebraFixture:
    products = {(0, 0): (0, 1), (0, 1): (1, 1), (1, 0): (1, 1), (1, 1): (0, -1)}
    return _finite_fixture(backend, "complex", ["1", "i"], products, True)


def load_builtin(name: str, backend: Backend = RATIONAL) -> AlgebraFixture:
    """Look up a builtin fixture by name ("polynomial", "free:2", ...)."""
    if name == "polynomial":
        return _power_basis(backend, "polynomial", "x", _identity, _identity, allow_negative=False)
    if name == "quaternion":
        return _quaternion(backend)
    if name == "complex":
        return _complex(backend)
    if name == "group_z":
        return _power_basis(backend, "group_z", "g", _zigzag, _unzigzag, allow_negative=True)
    if name.startswith("free:"):
        body = name[len("free:"):]
        try:
            k = int(body)
        except ValueError:
            raise ValueError(f"malformed letter count in {name!r}") from None
        if str(k) != body or k < 1:
            raise ValueError(f"free:{body} needs a letter count k >= 1")
        return _free_words(backend, k)
    raise ValueError(f"unknown builtin algebra {name!r}")


def _identity_codec_fixture(table: StructureTable) -> AlgebraFixture:
    def encode(label: str) -> int:
        try:
            index = int(label)
        except ValueError:
            raise LabelError(f"label {label!r} is not a basis index") from None
        if str(index) != label or index < 0:
            raise LabelError(f"label {label!r} is not a basis index")
        return index

    return AlgebraFixture(table, encode, str)


def fixture_from_data(data, backend: Backend = RATIONAL) -> AlgebraFixture:
    """Fixture from parsed algebra JSON: builtin reference or extensional table.

    Extensional tables have no structured labels; their codec is the decimal
    basis index.
    """
    if isinstance(data, dict) and "builtin" in data:
        return load_builtin(str(data["builtin"]), backend)
    return _identity_codec_fixture(table_from_data(backend, data))
