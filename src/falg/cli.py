"""Command-line front end.

Subcommands map one-to-one onto library capabilities: eval (expressions over
an algebra), apply (map to vector), compose, tensor (pure tensors and the
sandwich map a rank-2 tensor induces), norm (vector/map norm intervals),
check (law probing), dual (functional evaluation).

Conventions shared by every subcommand: --backend {int,rat,f64} picks the
coefficient domain (default rat, exact); --json switches stdout to the wire
formats; files are JSON in those same formats; anything randomized takes
--seed and defaults to 0; the FALG_MAX_INDEX environment variable (default
16) caps random basis-index sampling.  Exit codes: 0 success, 1 a law or
certificate failed, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falg",
        description="Exact and certified-truncation arithmetic in free algebras with a countable basis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=False):
        p.add_argument("--backend", choices=sorted(BACKENDS), default="rat")
        p.add_argument("--json", action="store_true", help="emit wire-format JSON")
        if algebra:
            p.add_argument("--algebra", required=True, help="builtin:<name> or a JSON file path")

    p = sub.add_parser("eval", help="evaluate an expression over an algebra")
    common(p, algebra=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--let", action="append", metavar="NAME=PATH", help="bind an identifier to a vector file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("apply", help="apply a map to a vector (exact or tail regime)")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--vector", required=True)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("compose", help="compose two maps, f after g")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("tensor", help="build a pure tensor, or evaluate a via-tensor sandwich map")
    common(p)
    p.add_argument("--pure", nargs="+", metavar="PATH", help="vector files to tensor together")
    p.add_argument("--algebra", help="builtin:<name> or JSON path (via-tensor mode)")
    p.add_argument("--tensor", help="rank-2 tensor file (via-tensor mode)")
    p.add_argument("--map", help="map file (via-tensor mode)")
    p.add_argument("--vector", help="vector file (via-tensor mode)")
    p.add_argument("--samples", type=int, default=64, help="associativity spot-check triples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("norm", help="norm interval of a vector or map")
    common(p)
    p.add_argument("--vector")
    p.add_argument("--map")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("check", help="probe algebra laws on seeded random vectors")
    common(p, algebra=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-index", type=int, default=None, help="default: FALG_MAX_INDEX or 16")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dual", help="evaluate a dual functional on a vector")
    common(p)
    p.add_argument("--functional", required=True)
    p.add_argument("--vector", required=True)
    p.set_defaults(func=_cmd_dual)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (CertificateError, NonAssociativeError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except (ExprSyntaxError, CliError, ValueError, TypeError, ArithmeticError) as e:
        # LabelError is a ValueError and BackendMismatchError a TypeError
        print(str(e), file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
