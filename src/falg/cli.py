"""Command-line front end.

Subcommands map one-to-one onto library capabilities: eval (expressions over
an algebra), apply (map to vector), compose, tensor (pure tensors and the
sandwich map a rank-2 tensor induces), norm (vector/map norm intervals),
check (law probing), dual (functional evaluation).  An expression's syntax
error names its token's line and column, each from 1; a newline inside a
`label` starts a line too.

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

Exit codes: 0 success, and for -h; 1 a law or certificate failed, in check
too; 2 usage or parse errors, a file field its format does not define (a
"tail" in the exact files eval, dual and tensor read), or a closed stdout.
A usage error prints the usage line, then ``falg: error: ...`` or ``falg
<command>: error: ...``, on stderr.

The process entry is run(): ``python -m falg``, ``python -m falg.cli`` and
the ``falg`` console script all call it.  It runs main on sys.argv, then the
two steps of the interpreter's shutdown that a call's results need: the
atexit handlers (atexit._run_exitfuncs, the call the shutdown makes, which
clears them, so none runs twice) and the flush of stdout and stderr.  Then
it ends the process with os._exit and main's code.  The rest of a shutdown
frees every loaded module's objects one at a time just before the OS
reclaims the whole heap: about 2 ms of a cold call's CPU, and about 11 ms
with the collections it makes.  If a flush fails, run exits through
sys.exit instead, and the shutdown reports the failure as it always did.
main(argv) itself ends nothing, so tests and programs that embed the CLI
see no change.  main flushes stdout before it returns, so a write to a
closed stdout (a pipe whose reader is gone) fails inside it; it then points
stdout at os.devnull, writes ``falg: cannot write to stdout: ...`` on
stderr and returns 2.
"""

from __future__ import annotations

import atexit
import os
import re
import sys
import types

from .ring import BACKENDS, Backend, Scalar, _Frozen, _excerpt, _literal
from .hamel import ColumnFiniteMap, DualFunctional, HamelVector, _check_index, basis_vector
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


_OPS = set("+-*()[]<>,")


class _Token(_Frozen):
    _fields = ("kind", "text", "line", "col")  # kind: "num", "label", "basis", "ident", or the operator char


def _span(text: str, pos: int, pred) -> int:
    """The index after the run of characters from pos on that pred accepts."""
    while pos < len(text) and pred(text[pos]):
        pos += 1
    return pos


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, start = 1, 0  # start: the index where the current line begins
    pos, n = 0, len(text)
    while pos < n:
        ch, col, end = text[pos], pos - start + 1, pos + 1
        if ch.isspace():
            if ch == "\n":
                line, start = line + 1, end
        elif ch.isdigit():
            end = _span(text, pos, str.isdigit)
            if end + 1 < n and text[end] == "/" and text[end + 1].isdigit():
                end = _span(text, end + 1, str.isdigit)
            tokens.append(_Token("num", text[pos:end], line, col))
        elif ch == "`":
            end = text.find("`", end) + 1
            if not end:
                raise ExprSyntaxError("unterminated label quote", line, col)
            tokens.append(_Token("label", text[pos + 1 : end - 1], line, col))
            line += text.count("\n", pos, end)
            start = max(start, text.rfind("\n", pos, end) + 1)
        elif ch.isalpha() or ch == "_":
            end = _span(text, pos, lambda c: c.isalnum() or c == "_")
            word = text[pos:end]
            kind = "basis" if word[0] == "e" and word[1:].isdigit() else "ident"
            tokens.append(_Token(kind, word, line, col))
        elif ch in _OPS:
            tokens.append(_Token(ch, ch, line, col))
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
        pos = end
    tokens.append(_Token("end", "", line, pos - start + 1))
    return tokens


class _Node(_Frozen):
    """Expression tree node.

    A run of + and - operators, or of * operators, is one Chain node, so a
    node is nested only as deep as the brackets and unary minuses around it,
    which the parser caps at MAX_NESTING: ==, hash and repr recurse as any
    record's do, with no RecursionError even on a chain of thousands of terms.
    """


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


class Chain(_Node):
    """operands[0] op operands[1] op ..., evaluated left to right; ops holds one of + - * per later operand."""

    _fields = ("ops", "operands")


class Comm(_Node):
    _fields = ("a", "b")


class Assoc(_Node):
    _fields = ("a", "b", "c")


MAX_NESTING = 50  # open (, [, < and unary minus around any point of an expression

# the node each leaf token kind reads as, from the token's text
_LEAVES = {"num": Lit, "label": Label, "basis": lambda text: Basis(int(text[1:])), "ident": Name}


class _Parser:
    """Precedence: unary minus > * > binary +/-; parens override.

    A run of binary + and -, and a run of *, each read as one Chain.

    Each nesting level costs a few Python frames, so nesting deeper than
    MAX_NESTING is a syntax error rather than a RecursionError.
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nested(self, build):
        """Take an opening token (bracket or unary minus) and return build(token), read one level deeper."""
        tok = self.take()
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", tok.line, tok.col)
        self.depth += 1
        node = build(tok)
        self.depth -= 1
        return node

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
        ops, operands = "", [self.term()]
        while self.peek().kind in ("+", "-"):
            ops += self.take().kind
            operands.append(self.term())
        return Chain(ops, tuple(operands)) if ops else operands[0]

    def term(self):
        ops, operands = "", [self.factor()]
        while self.peek().kind == "*":
            ops += self.take().kind
            operands.append(self.factor())
        return Chain(ops, tuple(operands)) if ops else operands[0]

    def factor(self):
        if self.peek().kind == "-":
            return self.nested(lambda tok: Neg(self.factor()))
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind in _LEAVES:
            return _LEAVES[tok.kind](self.take().text)
        if tok.kind in ("(", "[", "<"):
            return self.nested(self.bracketed)
        raise ExprSyntaxError(f"unexpected {_excerpt(tok.text or 'end of input')}", tok.line, tok.col)

    def bracketed(self, tok: _Token):
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        a = self.expr()
        self.expect(",")
        b = self.expr()
        if tok.kind == "[":
            self.expect("]")
            return Comm(a, b)
        self.expect(",")
        c = self.expr()
        self.expect(">")
        return Assoc(a, b, c)


def parse_expr(text: str):
    return _Parser(_lex(text)).parse()


Value = Scalar | HamelVector


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
    if isinstance(node, Chain):
        value = _eval(node.operands[0], fixture, bindings)
        for op, operand in zip(node.ops, node.operands[1:]):
            value = _binary(op, value, _eval(operand, fixture, bindings), fixture)
        return value
    if isinstance(node, (Comm, Assoc)):
        operands = [_promote(_eval(x, fixture, bindings), backend) for x in node._key(node)]
        defect = fixture.table.commutator if isinstance(node, Comm) else fixture.table.associator
        return defect(*operands)
    raise TypeError(f"not an expression node: {type(node).__name__}")


def _binary(op: str, a: Value, b: Value, fixture: AlgebraFixture) -> Value:
    if op == "*":
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            return a * b
        if isinstance(a, Scalar):
            return b.scale(a)
        if isinstance(b, Scalar):
            return a.scale(b)
        return fixture.table.mul(a, b)
    if not (isinstance(a, Scalar) and isinstance(b, Scalar)):
        a, b = _promote(a, fixture.backend), _promote(b, fixture.backend)
    return a + b if op == "+" else a - b


# IO helpers ---------------------------------------------------------------


def _max_index() -> int:
    raw = os.environ.get("FALG_MAX_INDEX", "16")
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"FALG_MAX_INDEX must be an integer, got {_excerpt(raw)}") from None
    return _check_index(value, "FALG_MAX_INDEX")


def _backend(args) -> Backend:
    return BACKENDS[args.backend]


# the json module once _json() has imported it, which a call with no JSON in or out never does;
# a global, so that bench/cli_child.py can put a traced json in its place
json = None


def _json():
    global json
    if json is None:
        import json
    return json


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _json().load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}") from None
    except ValueError as e:  # a JSONDecodeError, UnicodeDecodeError or json's int-digit limit
        raise CliError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise CliError(f"{path} is not valid JSON: nested too deeply") from None


def _resolve_algebra(spec: str, backend: Backend) -> AlgebraFixture:
    """The fixture spec names; an error quotes a file path whole, as _load_json does, and a builtin: spec cut."""
    builtin = spec.startswith("builtin:")
    try:
        if builtin:
            return load_builtin(spec[len("builtin:"):], backend)
        return fixture_from_data(_load_json(spec), backend)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"cannot load algebra {_excerpt(spec) if builtin else repr(spec)}: {e}") from None


_UNREAD = object()


def _read(kind: str, cls, backend: Backend, path: str, data=_UNREAD):
    """cls.from_data on the JSON in path, or on data already loaded from it.

    A data error, such as a "tail" field in a file read as an exact value,
    becomes the usage error "<path> is not a valid <kind>: ...".
    """
    if data is _UNREAD:
        data = _load_json(path)
    try:
        return cls.from_data(backend, data)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"{path} is not a valid {kind}: {e}") from None


def _has_tail(data) -> bool:
    return isinstance(data, dict) and "tail" in data


def _read_regime(backend: Backend, kinds: tuple, paths: tuple) -> list:
    """The values of kinds ("map", "vector") in paths, tail ones if any file has a tail; all load before any is read."""
    data = [_load_json(path) for path in paths]
    tail = any(map(_has_tail, data))
    classes = {"map": TailMap if tail else ColumnFiniteMap, "vector": TailVector if tail else HamelVector}
    return [_read(kind, classes[kind], backend, path, d) for kind, path, d in zip(kinds, paths, data)]


def _emit_json(data) -> None:
    print(_json().dumps(data, separators=(", ", ": ")))


def _emit(args, data, text: str) -> None:
    """Print the wire data as JSON with --json, else the human-readable text."""
    if args.json:
        _emit_json(data)
    else:
        print(text)


def _fmt_vector(v: HamelVector | TailVector) -> str:
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
            raise CliError(f"--let takes NAME=PATH, got {_excerpt(item)}")
        try:
            ident = _lex(name)[0] == _Token("ident", name, 1, 1)  # the whole name, read as one identifier
        except ExprSyntaxError:
            ident = False
        if not ident:
            raise CliError(f"--let NAME must be an identifier, got {_excerpt(name)}")
        bindings[name] = _read("vector", HamelVector, backend, path)
    result = eval_expr(parse_expr(args.expr), fixture, bindings)
    _emit(args, result.to_data(), _fmt_vector(result))
    return 0


def _cmd_apply(args) -> int:
    f, v = _read_regime(_backend(args), ("map", "vector"), (args.map, args.vector))
    result = f.apply(v)
    _emit(args, result.to_data(), _fmt_vector(result))
    return 0


def _cmd_compose(args) -> int:
    f, g = _read_regime(_backend(args), ("map", "map"), (args.f, args.g))
    _emit_json(f.compose(g).to_data())
    return 0


def _cmd_tensor(args) -> int:
    backend = _backend(args)
    if args.pure and (args.algebra or args.tensor or args.map or args.vector):
        raise CliError("choose one mode: --pure factors, or --algebra, --tensor, --map and --vector")
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
    report = fixture.table.check_laws(trials=args.trials, max_index=max_index, seed=args.seed)
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
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"  # read as a value, not as an option


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


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: falg [-h] {{{','.join(COMMANDS)}}} ..."
    specs = (_spec(opt) if opt.required else f"[{_spec(opt)}]" for opt in _options(command))
    return f"usage: falg {command} [-h] {' '.join(specs)}"


def _help(command: str | None) -> str:
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


def _token(token: str) -> str:
    """token as argparse echoes it, unquoted, when it has at most 40 characters; else its _excerpt."""
    return token if len(token) <= 40 else _excerpt(token)


def _read_token(token: str, names, command: str | None) -> tuple | None:
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
        raise _UsageError(command, f"ambiguous option: {_token(token)} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(_NEGATIVE, token) or " " in token:
        return None
    return None, None


def _check_help(command: str | None, name: str, value: str | None) -> None:
    """-hh asks for help twice; any other value given to -h or --help is an error."""
    rest = value.lstrip("h") if value and name == "-h" else value
    if rest is not None and (rest or not value):
        raise _UsageError(command, f"argument -h/--help: ignored explicit argument {_excerpt(rest)}")


def _convert(command: str, opt: _Option, text: str):
    if opt.check is int:
        try:
            return int(text)
        except ValueError:
            raise _UsageError(command, f"argument {opt.name}: invalid int value: {_excerpt(text)}") from None
    if opt.check is not None and text not in opt.check:
        choices = ", ".join(map(repr, opt.check))
        raise _UsageError(command, f"argument {opt.name}: invalid choice: {_excerpt(text)} (choose from {choices})")
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
    rest, i = [], 0
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
        if opt.kind == FLAG:
            if value is not None:
                raise _UsageError(command, f"argument {name}: ignored explicit argument {_excerpt(value)}")
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
    missing = [opt.name for opt in opts if opt.required and values[_dest(opt.name)] is None]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    return types.SimpleNamespace(**values), rest + tokens[end:]


def _parse(argv: list[str]):
    """(handler, options) read from argv, or None after printing help.

    Options before the subcommand may only be -h or --help; the first
    token that is not an option names the subcommand.
    """
    i = 0  # argv[:i] are the options before the subcommand, none of them -h or --help
    while i < len(argv) and argv[i] != "--":
        read = _read_token(argv[i], _HELP, None)
        if read is None:
            break
        name, value = read
        if name is not None:
            _check_help(None, name, value)
            print(_help(None))
            return None
        i += 1
    if argv[i:] in ([], ["--"]):  # nothing, or only a final '--', names the subcommand
        raise _UsageError(None, "the following arguments are required: command")
    command = argv[i]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise _UsageError(None, f"argument command: invalid choice: {_excerpt(command)} (choose from {choices})")
    parsed = _parse_options(command, argv[i + 1:])
    if parsed is None:
        return None
    args, rest = parsed
    if i or rest:
        raise _UsageError(None, f"unrecognized arguments: {' '.join(map(_token, argv[:i] + rest))}")
    return COMMANDS[command][1], args


def _main(argv: list[str]) -> int:
    try:
        parsed = _parse(argv)
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


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(list(sys.argv[1:] if argv is None else argv))
        print(end="", flush=True)  # flushes stdout, if there is one: a write to a closed one fails here
        return code
    except BrokenPipeError as e:
        # stdout's reader is gone: what is still buffered goes to devnull, so the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"falg: cannot write to stdout: {e.strerror}", file=sys.stderr)
        return 2


def run() -> None:
    """main on sys.argv, the atexit handlers, the stdout and stderr flush, then os._exit (see the module docstring)."""
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        # no stream, a failed write or a closed stream: the interpreter's shutdown reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
