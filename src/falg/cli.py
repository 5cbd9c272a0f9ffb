"""Command-line front end.

Subcommands map one-to-one onto library capabilities: eval (expressions over
an algebra), apply (map to vector), compose, tensor (pure tensors and the
sandwich map a rank-2 tensor induces), norm (vector/map norm intervals),
check (law probing), dual (functional evaluation).

Conventions shared by every subcommand: --backend {int,rat,f64} picks the
coefficient domain (default rat, exact); --json switches stdout to the wire
formats; files are JSON in those same formats; anything randomized takes
--seed and defaults to 0; the FALG_MAX_INDEX environment variable (default
16) caps random basis-index sampling.

One table, COMMANDS, gives each subcommand's help, handler and options; the
parser, the usage line, -h/--help and every usage error are built from it.
The grammar and the messages are argparse's.  An option takes its value as
``--opt value`` or ``--opt=value``, and a unique prefix of its name stands
for it (``--alg``).  --let may repeat, --pure takes one or more values,
--backend one of its choices, and --trials, --seed, --samples and
--max-index go through int(); given twice, the last value stands.  A token
that starts with '-' is an option unless it is a negative number (``-1``,
``-.5``) or holds a space, so ``--expr -e1`` is a usage error where
``--expr=-e1`` is not; after ``--`` nothing is an option.

Exit codes: 0 success, and for -h; 1 a law or certificate failed; 2 usage or
parse errors.  A usage error prints the usage line, then ``falg: error: ...``
or ``falg <command>: error: ...``, on stderr.
"""

from __future__ import annotations

import json
import os
import re
import sys
import types
from typing import Optional, Union

from .ring import BACKENDS, Backend, Scalar, _Frozen, _literal
from .hamel import ColumnFiniteMap, DualFunctional, HamelVector, basis_vector
from .algebra import CertificateError, _render_value
from .tensor import NonAssociativeError, TensorElement, map_via_tensor, tensor_pure
from .schauder import TailMap, TailVector
from .catalog import AlgebraFixture, fixture_from_data, load_builtin


class CliError(Exception):
    """Bad usage or bad input files; reported on stderr, exit code 2."""


class ExprSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at {line}:{col}: {message}")
        self.line = line
        self.col = col


# expression syntax --------------------------------------------------------


def _excerpt(text: str) -> str:
    """repr of text for an error message, cut to 40 characters and the length when longer."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


_OPS = set("+-*()[]<>,")


class _Token(_Frozen):
    _fields = ("kind", "text", "line", "col")  # kind: "num", "label", "basis", "ident", or the operator char


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            col += 1
            continue
        start_line, start_col = line, col
        if ch.isdigit():
            end = pos
            while end < n and text[end].isdigit():
                end += 1
            if end + 1 < n and text[end] == "/" and text[end + 1].isdigit():
                end += 1
                while end < n and text[end].isdigit():
                    end += 1
            tokens.append(_Token("num", text[pos:end], start_line, start_col))
            col += end - pos
            pos = end
            continue
        if ch == "`":
            end = text.find("`", pos + 1)
            if end < 0:
                raise ExprSyntaxError("unterminated label quote", start_line, start_col)
            tokens.append(_Token("label", text[pos + 1 : end], start_line, start_col))
            col += end + 1 - pos
            pos = end + 1
            continue
        if ch.isalpha() or ch == "_":
            end = pos
            while end < n and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            if word[0] == "e" and word[1:].isdigit():
                tokens.append(_Token("basis", word[1:], start_line, start_col))
            else:
                tokens.append(_Token("ident", word, start_line, start_col))
            col += end - pos
            pos = end
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, start_line, start_col))
            pos += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Node(_Frozen):
    """Expression tree node.

    A flat chain such as e1 + e1 + ... parses left-deep, so ==, hash and
    repr walk the left spines of +, - and * chains in a loop and recurse
    only into right operands and bracketed or negated subtrees, whose depth
    the parser caps at MAX_NESTING.
    """

    def _spine(self) -> tuple[list, "_Node"]:
        """The +, - and * nodes down the left spine, outermost first, and the node below."""
        spine, node = [], self
        while isinstance(node, (Add, Sub, Mul)):
            spine.append(node)
            node = node.a
        return spine, node

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        x, y = self, other
        while isinstance(x, (Add, Sub, Mul)):
            if y.__class__ is not x.__class__ or x.b != y.b:
                return False
            x, y = x.a, y.a
        return y.__class__ is x.__class__ and x._key(x) == y._key(y)

    def __hash__(self):
        spine, node = self._spine()
        return hash((tuple((op.__class__.__name__, op.b) for op in spine), node._key(node)))

    def __repr__(self):
        spine, node = self._spine()
        heads = "".join(f"{op.__class__.__qualname__}(a=" for op in spine)
        tails = "".join(f", b={op.b!r})" for op in reversed(spine))
        return heads + _Frozen.__repr__(node) + tails


class Lit(_Node):
    _fields = ("text",)  # integer or p/q; backend parses at eval time


class Label(_Node):
    _fields = ("text",)


class Basis(_Node):
    _fields = ("index",)


class Name(_Node):
    _fields = ("ident",)


class Neg(_Node):
    _fields = ("a",)


class Add(_Node):
    _fields = ("a", "b")


class Sub(_Node):
    _fields = ("a", "b")


class Mul(_Node):
    _fields = ("a", "b")


class Comm(_Node):
    _fields = ("a", "b")


class Assoc(_Node):
    _fields = ("a", "b", "c")


MAX_NESTING = 100  # open (, [, < and unary minus around any point of an expression


class _Parser:
    """Precedence: unary minus > * > binary +/-; * groups left, parens override.

    Each nesting level costs a few Python frames, so nesting deeper than
    MAX_NESTING is a syntax error rather than a RecursionError.
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def enter(self) -> None:
        """Take an opening token (bracket or unary minus), one level deeper."""
        tok = self.take()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", tok.line, tok.col)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {_excerpt(tok.text or 'end of input')}", tok.line, tok.col
            )
        return self.take()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {_excerpt(tok.text)}", tok.line, tok.col)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            self.take()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        if self.peek().kind == "-":
            self.enter()
            node = Neg(self.factor())
            self.depth -= 1
            return node
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            return Lit(self.take().text)
        if tok.kind == "label":
            return Label(self.take().text)
        if tok.kind == "basis":
            return Basis(int(self.take().text))
        if tok.kind == "ident":
            return Name(self.take().text)
        if tok.kind in ("(", "[", "<"):
            self.enter()
            node = self.bracketed(tok.kind)
            self.depth -= 1
            return node
        raise ExprSyntaxError(f"unexpected {_excerpt(tok.text or 'end of input')}", tok.line, tok.col)

    def bracketed(self, kind: str):
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        a = self.expr()
        self.expect(",")
        b = self.expr()
        if kind == "[":
            self.expect("]")
            return Comm(a, b)
        self.expect(",")
        c = self.expr()
        self.expect(">")
        return Assoc(a, b, c)


def parse_expr(text: str):
    return _Parser(_lex(text)).parse()


def print_expr(node) -> str:
    """Render with the fewest parentheses that re-parse to the same tree."""
    return _print(node, 1)


def _print(node, level: int) -> str:
    if isinstance(node, (Add, Sub, Mul)):
        # walk the left spine of a chain in a loop, as _eval does
        spine = []
        while isinstance(node, (Add, Sub, Mul)):
            spine.append((node, level))
            level = 2 if isinstance(node, Mul) else 1
            node = node.a
        text = _print(node, level)
        for node, level in reversed(spine):
            if isinstance(node, Mul):
                text = f"{text} * {_print(node.b, 3)}"
                if level > 2:
                    text = f"({text})"
            else:
                op = "+" if isinstance(node, Add) else "-"
                text = f"{text} {op} {_print(node.b, 2)}"
                if level > 1:
                    text = f"({text})"
        return text
    if isinstance(node, Lit):
        return node.text
    if isinstance(node, Label):
        return f"`{node.text}`"
    if isinstance(node, Basis):
        return f"e{node.index}"
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Comm):
        return f"[{_print(node.a, 1)}, {_print(node.b, 1)}]"
    if isinstance(node, Assoc):
        return f"<{_print(node.a, 1)}, {_print(node.b, 1)}, {_print(node.c, 1)}>"
    if isinstance(node, Neg):
        return f"-{_print(node.a, 3)}"
    raise TypeError(f"not an expression node: {type(node).__name__}")


Value = Union[Scalar, HamelVector]


def eval_expr(node, fixture: AlgebraFixture, bindings: dict[str, HamelVector]) -> HamelVector:
    """Exact evaluation; scalars meeting vectors additively ride on e_0 (the unit)."""
    value = _eval(node, fixture, bindings)
    return _promote(value, fixture.backend)


def _promote(value: Value, backend: Backend) -> HamelVector:
    if isinstance(value, Scalar):
        return HamelVector(backend, {0: value})
    return value


def _eval(node, fixture: AlgebraFixture, bindings: dict[str, HamelVector]) -> Value:
    backend = fixture.backend
    if isinstance(node, Lit):
        try:
            if "/" in _literal(node.text):
                p, q = node.text.split("/")
                return Scalar(backend, backend.from_rational(int(p), int(q)))
            return Scalar(backend, backend.parse(node.text))
        except (ValueError, ZeroDivisionError) as e:
            raise CliError(f"literal {_excerpt(node.text)} is not a {backend.name} scalar: {e}") from None
    if isinstance(node, Label):
        return basis_vector(backend, fixture.encode(node.text))
    if isinstance(node, Basis):
        return basis_vector(backend, node.index)
    if isinstance(node, Name):
        if node.ident not in bindings:
            raise CliError(f"unbound identifier {_excerpt(node.ident)}")
        return bindings[node.ident]
    if isinstance(node, Neg):
        return -_eval(node.a, fixture, bindings)
    if isinstance(node, (Add, Sub, Mul)):
        # a flat chain like e1 + e1 + ... parses left-deep: walk its spine in a loop
        spine, node = node._spine()
        value = _eval(node, fixture, bindings)
        for op in reversed(spine):
            value = _binary(op, value, _eval(op.b, fixture, bindings), fixture)
        return value
    if isinstance(node, Comm):
        a = _promote(_eval(node.a, fixture, bindings), backend)
        b = _promote(_eval(node.b, fixture, bindings), backend)
        return fixture.table.commutator(a, b)
    if isinstance(node, Assoc):
        a = _promote(_eval(node.a, fixture, bindings), backend)
        b = _promote(_eval(node.b, fixture, bindings), backend)
        c = _promote(_eval(node.c, fixture, bindings), backend)
        return fixture.table.associator(a, b, c)
    raise TypeError(f"not an expression node: {type(node).__name__}")


def _binary(node, a: Value, b: Value, fixture: AlgebraFixture) -> Value:
    if isinstance(node, Mul):
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            return a * b
        if isinstance(a, Scalar):
            return b.scale(a)
        if isinstance(b, Scalar):
            return a.scale(b)
        return fixture.table.mul(a, b)
    if not (isinstance(a, Scalar) and isinstance(b, Scalar)):
        a, b = _promote(a, fixture.backend), _promote(b, fixture.backend)
    return a + b if isinstance(node, Add) else a - b


# IO helpers ---------------------------------------------------------------


def _max_index() -> int:
    raw = os.environ.get("FALG_MAX_INDEX", "16")
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"FALG_MAX_INDEX must be an integer, got {raw!r}") from None
    if value < 0:
        raise CliError(f"FALG_MAX_INDEX must be >= 0, got {value}")
    return value


def _backend(args) -> Backend:
    return BACKENDS[args.backend]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None
    except ValueError as e:  # a JSONDecodeError, UnicodeDecodeError or json's int-digit limit
        raise CliError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise CliError(f"{path} is not valid JSON: nested too deeply") from None


def _resolve_algebra(spec: str, backend: Backend) -> AlgebraFixture:
    try:
        if spec.startswith("builtin:"):
            return load_builtin(spec[len("builtin:"):], backend)
        return fixture_from_data(_load_json(spec), backend)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"cannot load algebra {spec!r}: {e}") from None


_UNREAD = object()


def _read(kind: str, cls, backend: Backend, path: str, data=_UNREAD):
    """cls.from_data on the JSON in path, or on data already loaded from it.

    A data error becomes the usage error "<path> is not a valid <kind>: ...".
    """
    if data is _UNREAD:
        data = _load_json(path)
    try:
        return cls.from_data(backend, data)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"{path} is not a valid {kind}: {e}") from None


def _has_tail(data) -> bool:
    return isinstance(data, dict) and "tail" in data


def _regime(*data) -> tuple[type, type]:
    """The (map, vector) classes: the tail ones if any file carries a tail, else the exact ones."""
    if any(map(_has_tail, data)):
        return TailMap, TailVector
    return ColumnFiniteMap, HamelVector


def _emit_json(data) -> None:
    print(json.dumps(data, separators=(", ", ": ")))


def _emit(args, data, text: str) -> None:
    """Print the wire data as JSON with --json, else the human-readable text."""
    if args.json:
        _emit_json(data)
    else:
        print(text)


def _fmt_vector(v: Union[HamelVector, TailVector]) -> str:
    if isinstance(v, TailVector):
        return f"{_fmt_vector(v.prefix)} tail {v.backend.norm_render(v.tail)}"
    return _render_value(v)


# subcommands --------------------------------------------------------------


def _cmd_eval(args) -> int:
    backend = _backend(args)
    fixture = _resolve_algebra(args.algebra, backend)
    bindings = {}
    for item in args.let or []:
        name, sep, path = item.partition("=")
        if not sep or not name:
            raise CliError(f"--let takes NAME=PATH, got {item!r}")
        data = _load_json(path)
        if _has_tail(data):
            raise CliError(f"{path} carries a tail bound; eval works in the exact regime")
        bindings[name] = _read("vector", HamelVector, backend, path, data)
    result = eval_expr(parse_expr(args.expr), fixture, bindings)
    _emit(args, result.to_data(), _fmt_vector(result))
    return 0


def _cmd_apply(args) -> int:
    backend = _backend(args)
    map_data = _load_json(args.map)
    vec_data = _load_json(args.vector)
    map_cls, vec_cls = _regime(map_data, vec_data)
    f = _read("map", map_cls, backend, args.map, map_data)
    v = _read("vector", vec_cls, backend, args.vector, vec_data)
    result = f.apply(v)
    _emit(args, result.to_data(), _fmt_vector(result))
    return 0


def _cmd_compose(args) -> int:
    backend = _backend(args)
    f_data = _load_json(args.f)
    g_data = _load_json(args.g)
    map_cls, _ = _regime(f_data, g_data)
    f = _read("map", map_cls, backend, args.f, f_data)
    g = _read("map", map_cls, backend, args.g, g_data)
    _emit_json(f.compose(g).to_data())
    return 0


def _cmd_tensor(args) -> int:
    backend = _backend(args)
    if args.pure and args.tensor:
        raise CliError("choose one mode: --pure factors, or --tensor with --map/--vector")
    if args.pure:
        factors = [_read("vector", HamelVector, backend, path) for path in args.pure]
        _emit_json(tensor_pure(factors).to_data())
        return 0
    if not (args.tensor and args.map and args.vector and args.algebra):
        raise CliError("via-tensor mode needs --algebra, --tensor, --map and --vector")
    fixture = _resolve_algebra(args.algebra, backend)
    t = _read("tensor", TensorElement, backend, args.tensor)
    f = _read("map", ColumnFiniteMap, backend, args.map)
    x = _read("vector", HamelVector, backend, args.vector)
    result = map_via_tensor(
        fixture.table, t, f, x, samples=args.samples, seed=args.seed, max_index=_max_index()
    )
    _emit(args, result.to_data(), _fmt_vector(result))
    return 0


def _cmd_norm(args) -> int:
    backend = _backend(args)
    if bool(args.vector) == bool(args.map):
        raise CliError("norm takes exactly one of --vector or --map")
    if args.vector:
        interval = _read("vector", TailVector, backend, args.vector).norm_interval()
    else:
        interval = _read("map", TailMap, backend, args.map).bound()
    _emit(args, interval.to_data(), interval.render())
    return 0


def _cmd_check(args) -> int:
    backend = _backend(args)
    fixture = _resolve_algebra(args.algebra, backend)
    max_index = args.max_index if args.max_index is not None else _max_index()
    try:
        report = fixture.table.check_laws(trials=args.trials, max_index=max_index, seed=args.seed)
    except ValueError as e:
        raise CliError(str(e)) from None
    lines = [
        f"{r.law}: ok ({r.trials} trials)" if r.ok else f"{r.law}: FAIL at trial {r.trials} ({r.counterexample})"
        for r in report.results
    ]
    lines.append(f"{'ok' if report.ok else 'FAIL'}: {report.table} (seed {report.seed})")
    _emit(args, report.to_data(), "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_dual(args) -> int:
    backend = _backend(args)
    phi = _read("functional", DualFunctional, backend, args.functional)
    v = _read("vector", HamelVector, backend, args.vector)
    value = phi.evaluate(v).render()
    _emit(args, {"value": value}, value)
    return 0


# command table ------------------------------------------------------------

# how many values an option takes: one, none, one each time it is given, one or more
ONE, FLAG, APPEND, SOME = "one", "flag", "append", "some"


class _Option(_Frozen):
    """One option of a subcommand.

    check is int (each value goes through int()), a tuple of the values
    allowed, or None; default is the value when the option is not given.
    """

    _fields = ("name", "kind", "required", "default", "check", "metavar", "help")


def _opt(name, kind=ONE, required=False, default=None, check=None, metavar=None, help=""):
    return _Option(name, kind, required, default, check, metavar, help)


# every subcommand takes these two first
_COMMON = (
    _opt("--backend", default="rat", check=tuple(sorted(BACKENDS)), help="coefficient domain (default rat)"),
    _opt("--json", FLAG, default=False, help="emit wire-format JSON"),
)
_ALGEBRA = _opt("--algebra", required=True, help="builtin:<name> or a JSON file path")
_SEED = _opt("--seed", default=0, check=int, help="seed of the random draws (default 0)")

# subcommand -> (help, handler, options after _COMMON)
COMMANDS = {
    "eval": ("evaluate an expression over an algebra", _cmd_eval, (
        _ALGEBRA,
        _opt("--expr", required=True, help="the expression"),
        _opt("--let", APPEND, metavar="NAME=PATH", help="bind an identifier to a vector file"),
    )),
    "apply": ("apply a map to a vector (exact or tail regime)", _cmd_apply, (
        _opt("--map", required=True, help="map file"),
        _opt("--vector", required=True, help="vector file"),
    )),
    "compose": ("compose two maps, f after g", _cmd_compose, (
        _opt("--f", required=True, help="map file, applied second"),
        _opt("--g", required=True, help="map file, applied first"),
    )),
    "tensor": ("build a pure tensor, or evaluate a via-tensor sandwich map", _cmd_tensor, (
        _opt("--pure", SOME, metavar="PATH", help="vector files to tensor together"),
        _opt("--algebra", help="builtin:<name> or JSON path (via-tensor mode)"),
        _opt("--tensor", help="rank-2 tensor file (via-tensor mode)"),
        _opt("--map", help="map file (via-tensor mode)"),
        _opt("--vector", help="vector file (via-tensor mode)"),
        _opt("--samples", default=64, check=int, help="associativity spot-check triples (default 64)"),
        _SEED,
    )),
    "norm": ("norm interval of a vector or map", _cmd_norm, (
        _opt("--vector", help="vector file"),
        _opt("--map", help="map file"),
    )),
    "check": ("probe algebra laws on seeded random vectors", _cmd_check, (
        _ALGEBRA,
        _opt("--trials", default=100, check=int, help="trials per law (default 100)"),
        _SEED,
        _opt("--max-index", check=int, help="largest basis index drawn (default: FALG_MAX_INDEX or 16)"),
    )),
    "dual": ("evaluate a dual functional on a vector", _cmd_dual, (
        _opt("--functional", required=True, help="functional file"),
        _opt("--vector", required=True, help="vector file"),
    )),
}


# parsing argv from the table ----------------------------------------------
#
# The grammar and the error messages are argparse's, so scripts and tests
# written against it read the same results: argparse is not imported, since
# its import and its first parser cost a cold call about 10 ms of CPU.

_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # read as a value, not as an option


class _UsageError(Exception):
    """A malformed command line, exit code 2; its args are the subcommand (None for falg itself) and the message."""


def _options(command: str) -> tuple:
    return _COMMON + COMMANDS[command][2]


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _spec(opt: _Option) -> str:
    """The option and its value as the usage line writes them."""
    if opt.kind == FLAG:
        return opt.name
    if isinstance(opt.check, tuple):
        metavar = "{" + ",".join(opt.check) + "}"
    else:
        metavar = opt.metavar or _dest(opt.name).upper()
    return f"{opt.name} {metavar} [{metavar} ...]" if opt.kind == SOME else f"{opt.name} {metavar}"


def _usage(command: Optional[str]) -> str:
    if command is None:
        return f"usage: falg [-h] {{{','.join(COMMANDS)}}} ..."
    specs = (_spec(opt) if opt.required else f"[{_spec(opt)}]" for opt in _options(command))
    return f"usage: falg {command} [-h] {' '.join(specs)}"


def _help(command: Optional[str]) -> str:
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        text = "Exact and certified-truncation arithmetic in free algebras with a countable basis."
        sections = {"commands": [(name, entry[0]) for name, entry in COMMANDS.items()], "options": options}
    else:
        text = COMMANDS[command][0]
        sections = {"options": options + [(_spec(opt), opt.help) for opt in _options(command)]}
    lines = [_usage(command), "", text]
    for heading, rows in sections.items():
        lines += ["", f"{heading}:"]
        for spec, about in rows:
            lines += [f"  {spec}", f"{'':24}{about}"] if len(spec) > 20 else [f"  {spec:<22}{about}"]
    lines += ["", "Exit codes: 0 success, 1 a law or certificate failed, 2 usage or parse errors."]
    return "\n".join(lines)


def _read_token(token: str, names, command: Optional[str]) -> Optional[tuple]:
    """How argparse reads token against the option names.

    None for a value; else (the name of the option it gives, or None for an
    unknown option; the value attached after '=' or after -h, or None).
    """
    if not token or token[0] != "-":
        return None
    if token in names:
        return token, None
    if len(token) == 1:
        return None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":  # a prefix of long option names
        matches = [n for n in names if n.startswith(name)]
        value = value if eq else None
    else:  # a short option with its value attached
        matches = [n for n in names if n == token[:2]]
        value = token[2:]
    if len(matches) > 1:
        raise _UsageError(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _check_help(command: Optional[str], name: str, value: Optional[str]) -> None:
    """-hh asks for help twice; any other value given to -h or --help is an error."""
    rest = value.lstrip("h") if value and name == "-h" else value
    if rest is not None and (rest or not value):
        raise _UsageError(command, f"argument -h/--help: ignored explicit argument {rest!r}")


def _convert(command: str, opt: _Option, text: str):
    if opt.check is int:
        try:
            return int(text)
        except ValueError:
            raise _UsageError(command, f"argument {opt.name}: invalid int value: {text!r}") from None
    if opt.check is not None and text not in opt.check:
        choices = ", ".join(map(repr, opt.check))
        raise _UsageError(command, f"argument {opt.name}: invalid choice: {text!r} (choose from {choices})")
    return text


def _parse_options(command: str, tokens: list[str]):
    """(the subcommand's options, the tokens no option took) read from tokens, or None after printing help.

    Tokens after '--' are never options; a token that is neither an
    option nor the value of one is left over.
    """
    opts = _options(command)
    options = dict.fromkeys(_HELP)
    options.update((opt.name, opt) for opt in opts)
    end = tokens.index("--") if "--" in tokens else len(tokens)
    read = [_read_token(token, options, command) for token in tokens[:end]]
    values = {_dest(opt.name): opt.default for opt in opts}
    seen, rest = set(), []
    i = 0
    while i < end:
        name, value = read[i] or (None, None)
        i += 1
        if name is None:
            rest.append(tokens[i - 1])
            continue
        opt = options[name]
        if opt is None:
            _check_help(command, name, value)
            print(_help(command))
            return None
        seen.add(name)
        if opt.kind == FLAG:
            if value is not None:
                raise _UsageError(command, f"argument {name}: ignored explicit argument {value!r}")
            values[_dest(name)] = True
            continue
        if value is None:
            n = 0
            while i + n < end and read[i + n] is None and (n == 0 or opt.kind == SOME):
                n += 1
            if not n:
                expected = "at least one argument" if opt.kind == SOME else "one argument"
                raise _UsageError(command, f"argument {name}: expected {expected}")
            given, i = tokens[i:i + n], i + n
        else:
            given = [value]
        given = [_convert(command, opt, text) for text in given]
        dest = _dest(name)
        if opt.kind == ONE:
            values[dest] = given[0]
        elif opt.kind == APPEND:
            values[dest] = (values[dest] or []) + given
        else:
            values[dest] = given
    missing = [opt.name for opt in opts if opt.required and opt.name not in seen]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    return types.SimpleNamespace(**values), rest + tokens[end:]


def _parse(argv: list[str]):
    """(handler, options) read from argv, or None after printing help.

    Options before the subcommand may only be -h or --help; the first
    token that is not an option names the subcommand.
    """
    before, i = [], 0  # the options before the subcommand, none of them -h or --help
    while i < len(argv) and argv[i] != "--":
        read = _read_token(argv[i], _HELP, None)
        if read is None:
            break
        name, value = read
        if name is not None:
            _check_help(None, name, value)
            print(_help(None))
            return None
        before.append(argv[i])
        i += 1
    if argv[i:] in ([], ["--"]):  # nothing, or only a final '--', names the subcommand
        raise _UsageError(None, "the following arguments are required: command")
    command = argv[i]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise _UsageError(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    parsed = _parse_options(command, argv[i + 1:])
    if parsed is None:
        return None
    args, rest = parsed
    if before or rest:
        raise _UsageError(None, f"unrecognized arguments: {' '.join(before + rest)}")
    return COMMANDS[command][1], args


def main(argv: Optional[list[str]] = None) -> int:
    try:
        parsed = _parse(list(sys.argv[1:] if argv is None else argv))
    except _UsageError as e:
        command, message = e.args
        prog = "falg" if command is None else f"falg {command}"
        print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
        return 2
    if parsed is None:
        return 0
    handler, args = parsed
    try:
        return handler(args)
    except (CertificateError, NonAssociativeError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except (ExprSyntaxError, CliError, ValueError, TypeError, ArithmeticError) as e:
        # LabelError is a ValueError and BackendMismatchError a TypeError
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
