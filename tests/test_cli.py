import contextlib
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import falg
from falg import cli
from falg import HamelVector, RATIONAL, TailMap, TailVector, ColumnFiniteMap, load_builtin
from falg.cli import (
    Assoc,
    Basis,
    Chain,
    CliError,
    Comm,
    ExprSyntaxError,
    Label,
    Lit,
    Name,
    Neg,
    MAX_NESTING,
    eval_expr,
    main,
    parse_expr,
)
from support import print_expr

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(falg.__file__)))


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# parsing -------------------------------------------------------------------


def test_parse_square_example():
    tree = parse_expr("(1 + `x`)*(1 + `x`)")
    branch = Chain("+", (Lit("1"), Label("x")))
    assert tree == Chain("*", (branch, branch))


def test_parse_commutator_and_associator():
    assert parse_expr("[`i`,`j`]") == Comm(Label("i"), Label("j"))
    assert parse_expr("<`i`, `j`, `k`>") == Assoc(Label("i"), Label("j"), Label("k"))


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("1 + * 2")
    assert str(e.value).startswith("syntax error at 1:5")


def test_parse_error_line_tracking():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("1 +\n* 2")
    assert "at 2:1" in str(e.value)


# pieces of expression text, labels among them with newlines inside
_PIECES = st.one_of(
    st.sampled_from(["e1", "12", " 3/4 ", "v", " ", "\t", "\n", "+", "*", "-", "(", ")", "[", ",", ">"]),
    st.text(alphabet="ab \n", max_size=6).map(lambda text: f"`{text}`"),
)


@given(pieces=st.lists(_PIECES, max_size=12))
@example(pieces=["e1", "\n", " "])
@example(pieces=["`a\nb`"])
def test_lex_error_is_reported_at_its_own_line_and_column(pieces):
    text = "".join(pieces)
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr(text + "$")
    assert (e.value.line, e.value.col) == (text.count("\n") + 1, len(text) - text.rfind("\n"))


def test_parse_unterminated_label_and_bad_char():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("1 + `x")
    assert "unterminated" in str(e.value)
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("1 $ 2")
    assert "at 1:3" in str(e.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("e1 e2", "syntax error at 1:4: unexpected 'e2'"),
        ("(e1 e12", "syntax error at 1:5: expected ')', found 'e12'"),
        ("(1 + 2", "syntax error at 1:7: expected ')', found 'end of input'"),
        ("[e1, e2", "syntax error at 1:8: expected ']', found 'end of input'"),
    ],
    ids=["basis-unexpected", "basis-expected", "paren-at-end", "bracket-at-end"],
)
def test_parse_error_quotes_the_token_as_written(text, message):
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr(text)
    assert str(e.value) == message


def test_precedence():
    assert parse_expr("1 + 2 * 3") == Chain("+", (Lit("1"), Chain("*", (Lit("2"), Lit("3")))))
    assert parse_expr("-2 * 3") == Chain("*", (Neg(Lit("2")), Lit("3")))
    assert parse_expr("1 - 2 - 3") == Chain("--", (Lit("1"), Lit("2"), Lit("3")))
    assert parse_expr("1 - 2 + 3") == Chain("-+", (Lit("1"), Lit("2"), Lit("3")))
    assert parse_expr("(1 - 2) - 3") == Chain("-", (Chain("-", (Lit("1"), Lit("2"))), Lit("3")))
    assert parse_expr("a * b * c") == Chain("**", (Name("a"), Name("b"), Name("c")))
    assert parse_expr("2 * (3 + 4)") == Chain("*", (Lit("2"), Chain("+", (Lit("3"), Lit("4")))))


def test_basis_and_identifier_tokens():
    assert parse_expr("e12") == Basis(12)
    assert parse_expr("ex") == Name("ex")
    assert parse_expr("e") == Name("e")
    assert parse_expr("_v2") == Name("_v2")


def test_fraction_literal_needs_no_spaces():
    assert parse_expr("3/4") == Lit("3/4")
    with pytest.raises(ExprSyntaxError):
        parse_expr("3 / 4")


def test_trailing_garbage_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("1 2")


_LEAVES = st.one_of(
    st.integers(0, 99).map(lambda n: Lit(str(n))),
    st.tuples(st.integers(1, 99), st.integers(2, 99)).map(lambda t: Lit(f"{t[0]}/{t[1]}")),
    st.sampled_from(["x", "x^2", "i", "j", "ab", "g^-1", "1"]).map(Label),
    st.integers(0, 30).map(Basis),
    st.sampled_from(["v", "w", "foo", "bar_2", "ex"]).map(Name),
)


def _chains(sub):
    """Chains of 2 to 4 operands drawn from sub, with + and - mixed or * alone."""
    def chain(operands):
        n = len(operands) - 1
        ops = st.one_of(st.text(alphabet="+-", min_size=n, max_size=n), st.just("*" * n))
        return ops.map(lambda ops: Chain(ops, tuple(operands)))
    return st.lists(sub, min_size=2, max_size=4).flatmap(chain)


_EXPRS = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        sub.map(Neg),
        _chains(sub),
        st.tuples(sub, sub).map(lambda t: Comm(*t)),
        st.tuples(sub, sub, sub).map(lambda t: Assoc(*t)),
    ),
    max_leaves=25,
)


@given(tree=_EXPRS)
def test_print_parse_round_trip(tree):
    assert parse_expr(print_expr(tree)) == tree


@pytest.mark.parametrize(
    "text",
    [
        "(1 + `x`)*(1 + `x`)",
        "[`i`,`j`] - <e1, e2, e3>",
        "-(1 - 2/3) * v",
        "2 * 3 * (4 + -5)",
    ],
)
def test_printer_output_is_a_fixpoint(text):
    printed = print_expr(parse_expr(text))
    assert print_expr(parse_expr(printed)) == printed


# evaluation ----------------------------------------------------------------


def test_eval_polynomial_square():
    fix = load_builtin("polynomial")
    out = eval_expr(parse_expr("(1 + `x`)*(1 + `x`)"), fix, {})
    assert out == HamelVector(RATIONAL, {0: 1, 1: 2, 2: 1})


def test_eval_quaternion_commutator_and_associator():
    fix = load_builtin("quaternion")
    assert eval_expr(parse_expr("[`i`,`j`]"), fix, {}) == HamelVector(RATIONAL, {3: 2})
    assert eval_expr(parse_expr("<`i`,`j`,`k`>"), fix, {}).is_zero()


def test_eval_scalar_promotion_and_scaling():
    fix = load_builtin("polynomial")
    assert eval_expr(parse_expr("2"), fix, {}) == HamelVector(RATIONAL, {0: 2})
    assert eval_expr(parse_expr("2 * `x`"), fix, {}) == HamelVector(RATIONAL, {1: 2})
    assert eval_expr(parse_expr("`x` * 1/2"), fix, {}) == HamelVector(RATIONAL, {1: "1/2"})
    assert eval_expr(parse_expr("3 * 4"), fix, {}) == HamelVector(RATIONAL, {0: 12})
    assert eval_expr(parse_expr("`x` - 1"), fix, {}) == HamelVector(RATIONAL, {0: -1, 1: 1})
    assert eval_expr(parse_expr("-e2"), fix, {}) == HamelVector(RATIONAL, {2: -1})


def test_eval_chain_folds_its_operands_in_order():
    # free:2 words concatenate, so a product chain shows the order of its operands
    fix = load_builtin("free:2")
    assert eval_expr(parse_expr("e1 * e2 * e3"), fix, {}) == HamelVector(RATIONAL, {fix.encode("abaa"): 1})
    expected = HamelVector(RATIONAL, {0: -1, 1: 1, 2: -1, 3: -1})
    assert eval_expr(parse_expr("e1 - e2 - e3 + 1 - 2"), fix, {}) == expected


def test_eval_unbound_identifier():
    with pytest.raises(CliError):
        eval_expr(parse_expr("v + 1"), load_builtin("polynomial"), {})


def test_eval_binding_used():
    fix = load_builtin("polynomial")
    v = HamelVector(RATIONAL, {1: 5})
    assert eval_expr(parse_expr("v * v"), fix, {"v": v}) == HamelVector(RATIONAL, {2: 25})


# subcommands ---------------------------------------------------------------


def test_cli_eval_human(capsys):
    code, out, err = run(
        capsys,
        ["eval", "--algebra", "builtin:polynomial", "--expr", "(1 + `x`)*(1 + `x`)"],
    )
    assert (code, err) == (0, "")
    assert out == "{0: 1, 1: 2, 2: 1}\n"


def test_cli_eval_json(capsys):
    code, out, err = run(
        capsys,
        ["eval", "--algebra", "builtin:polynomial", "--json", "--expr", "(1 + `x`)*(1 + `x`)"],
    )
    assert code == 0
    assert out == '{"coords": {"0": "1", "1": "2", "2": "1"}}\n'


def test_cli_eval_f64_rendering(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--algebra", "builtin:polynomial", "--backend", "f64", "--expr", "(1 + `x`)*(1 + `x`)"],
    )
    assert code == 0
    assert out == "{0: 1.0, 1: 2.0, 2: 1.0}\n"


def test_cli_eval_syntax_error_exit_2(capsys):
    code, out, err = run(
        capsys, ["eval", "--algebra", "builtin:polynomial", "--expr", "1 + * 2"]
    )
    assert code == 2 and out == ""
    assert "syntax error at 1:5" in err


def test_cli_eval_bad_label_exit_2(capsys):
    code, _, err = run(
        capsys, ["eval", "--algebra", "builtin:polynomial", "--expr", "`zz`"]
    )
    assert code == 2 and "zz" in err


def test_cli_eval_f64_fraction_literal_rounds(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--algebra", "builtin:group_z", "--backend", "f64", "--expr", "3/2 * `g`"],
    )
    assert code == 0 and out == "{1: 1.5}\n"
    code, out, _ = run(
        capsys,
        ["eval", "--algebra", "builtin:polynomial", "--backend", "f64", "--expr", "1/3"],
    )
    assert code == 0 and out == f"{{0: {1 / 3!r}}}\n"


def test_cli_eval_division_by_zero_literal(capsys):
    code, _, err = run(
        capsys, ["eval", "--algebra", "builtin:polynomial", "--expr", "1/0"]
    )
    assert code == 2 and "1/0" in err


def test_cli_eval_int_backend_rejects_fraction_literal(capsys):
    code, _, err = run(
        capsys,
        ["eval", "--algebra", "builtin:polynomial", "--backend", "int", "--expr", "1/2"],
    )
    assert code == 2 and "1/2" in err


def test_cli_eval_let_binding(tmp_path, capsys):
    path = write(tmp_path, "v.json", {"coords": {"1": "5"}})
    code, out, _ = run(
        capsys,
        ["eval", "--algebra", "builtin:polynomial", "--let", f"v={path}", "--expr", "v + v"],
    )
    assert code == 0 and out == "{1: 10}\n"


def test_cli_eval_let_rejects_tail_file(tmp_path, capsys):
    path = write(tmp_path, "v.json", {"coords": {"1": "5"}, "tail": "1/2"})
    code, out, err = run(
        capsys,
        ["eval", "--algebra", "builtin:polynomial", "--let", f"v={path}", "--expr", "v"],
    )
    assert (code, out) == (2, "")
    assert err == f"{path} is not a valid vector: unexpected field 'tail' in HamelVector data\n"


@pytest.mark.parametrize(
    "argv, tail, read",
    [
        (["dual", "--functional", "phi", "--vector", "TAIL"], "vector", ("vector", "HamelVector")),
        (["dual", "--functional", "TAIL", "--vector", "v"], "vector", ("functional", "DualFunctional")),
        (["tensor", "--pure", "v", "TAIL"], "vector", ("vector", "HamelVector")),
        (["tensor", "--algebra", "builtin:polynomial", "--tensor", "t", "--map", "f", "--vector", "TAIL"], "vector",
         ("vector", "HamelVector")),
        (["tensor", "--algebra", "builtin:polynomial", "--tensor", "t", "--map", "TAIL", "--vector", "v"], "map",
         ("map", "ColumnFiniteMap")),
    ],
    ids=["dual-vector", "dual-functional", "tensor-pure", "tensor-via-vector", "tensor-via-map"],
)
def test_cli_exact_commands_reject_tail_files(tmp_path, capsys, argv, tail, read):
    # dual of e^0 + 2e^1 on the prefix alone would print 1, though the vector it stands for can give 11
    tails = {"vector": {"coords": {"0": "1"}, "tail": "5"}, "map": {"cols": {"0": {"0": "1"}}, "tail": "5"}}
    files = {"phi": {"coords": {"0": "1", "1": "2"}}, "v": {"coords": {"0": "1"}},
             "t": {"arity": 2, "coords": {"0,0": "1"}}, "f": {"cols": {"0": {"0": "1"}}}, "TAIL": tails[tail]}
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in files.items()}
    code, out, err = run(capsys, [paths.get(arg, arg) for arg in argv])
    assert (code, out) == (2, "")
    kind, cls = read  # the kind the command reads the file as, and the exact class whose reader refuses the tail
    assert err == f"{paths['TAIL']} is not a valid {kind}: unexpected field 'tail' in {cls} data\n"


def test_cli_eval_let_without_equals(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["eval", "--algebra", "builtin:polynomial", "--let", "nonsense", "--expr", "1"],
    )
    assert code == 2 and "NAME=PATH" in err


@pytest.mark.parametrize("name", ["e1", "a b", "$", "1", "`x`", " v", "v\n", "v+w"],
                         ids=["basis", "space", "bad-char", "number", "label", "leading-space", "newline", "chain"])
def test_cli_let_name_must_be_one_identifier(tmp_path, capsys, name):
    # a name the expression does not read as one identifier could never be used: e1 is a basis vector
    v = write(tmp_path, "v.json", {"coords": {"0": "2"}})
    result = run(capsys, ["eval", "--algebra", "builtin:polynomial", "--let", f"{name}={v}", "--expr", name])
    assert result == (2, "", f"--let NAME must be an identifier, got {name!r}\n")


def test_cli_apply_exact(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", {"cols": {"0": {"1": "1"}, "1": {"2": "1"}}})
    vpath = write(tmp_path, "v.json", {"coords": {"0": "2", "1": "3"}})
    code, out, _ = run(capsys, ["apply", "--map", fpath, "--vector", vpath])
    assert code == 0 and out == "{1: 2, 2: 3}\n"


def test_cli_apply_tail_vector(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", {"cols": {str(j): {str(j): "1"} for j in range(10)}})
    vpath = write(tmp_path, "v.json", {"coords": {"0": "1"}, "tail": "1/2"})
    code, out, _ = run(capsys, ["apply", "--map", fpath, "--vector", vpath])
    assert code == 0 and out == "{0: 1} tail 5\n"
    code, out, _ = run(capsys, ["apply", "--json", "--map", fpath, "--vector", vpath])
    assert out == '{"coords": {"0": "1"}, "tail": "5"}\n'


def test_cli_apply_matches_library(tmp_path, capsys):
    fdata = {"cols": {"0": {"0": "1/2", "4": "2"}, "3": {"1": "-3"}}, "tail": "1/8"}
    vdata = {"coords": {"0": "1", "3": "-1/3"}, "tail": "1/4"}
    fpath, vpath = write(tmp_path, "f.json", fdata), write(tmp_path, "v.json", vdata)
    code, out, _ = run(capsys, ["apply", "--json", "--map", fpath, "--vector", vpath])
    expected = TailMap.from_data(RATIONAL, fdata).apply(TailVector.from_data(RATIONAL, vdata))
    assert code == 0
    assert json.loads(out) == expected.to_data()


def test_cli_compose_exact_and_tail(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", {"cols": {"1": {"2": "1"}}})
    gpath = write(tmp_path, "g.json", {"cols": {"0": {"1": "1"}}})
    code, out, _ = run(capsys, ["compose", "--f", fpath, "--g", gpath])
    assert code == 0 and json.loads(out) == {"cols": {"0": {"2": "1"}}}

    gt = write(tmp_path, "gt.json", {"cols": {}, "tail": "1/2"})
    ft = write(tmp_path, "ft.json", {"cols": {"0": {"0": "2"}}})
    code, out, _ = run(capsys, ["compose", "--f", ft, "--g", gt])
    assert code == 0 and json.loads(out) == {"cols": {}, "tail": "1"}


def test_cli_tensor_pure(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"coords": {"0": "1", "1": "1"}})
    b = write(tmp_path, "b.json", {"coords": {"2": "3"}})
    code, out, _ = run(capsys, ["tensor", "--pure", a, b])
    assert code == 0
    assert json.loads(out) == {"arity": 2, "coords": {"0,2": "3", "1,2": "3"}}


def test_cli_tensor_via_tensor_sandwich(tmp_path, capsys):
    t = write(tmp_path, "t.json", {"arity": 2, "coords": {"1,2": "1"}})
    f = write(tmp_path, "f.json", {"cols": {str(n): {str(n): "1"} for n in range(4)}})
    x = write(tmp_path, "x.json", {"coords": {"0": "1"}})
    code, out, _ = run(
        capsys,
        ["tensor", "--algebra", "builtin:quaternion", "--tensor", t, "--map", f, "--vector", x],
    )
    assert code == 0 and out == "{3: 1}\n"


def test_cli_tensor_mode_conflicts(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"coords": {"0": "1"}})
    code, _, err = run(capsys, ["tensor", "--pure", a, "--tensor", a])
    assert code == 2 and "one mode" in err
    code, _, err = run(capsys, ["tensor", "--tensor", a])
    assert code == 2 and "via-tensor" in err


@pytest.mark.parametrize("option", ["--algebra", "--tensor", "--map", "--vector"])
def test_cli_tensor_pure_refuses_every_via_tensor_option(tmp_path, capsys, option):
    # --pure with a via-tensor option used to ignore the option and exit 0
    v = write(tmp_path, "v.json", {"coords": {"0": "1"}})
    value = "builtin:free:2" if option == "--algebra" else v
    code, out, err = run(capsys, ["tensor", "--pure", v, option, value])
    assert code == 2 and out == ""
    assert err == "choose one mode: --pure factors, or --algebra, --tensor, --map and --vector\n"


def test_cli_tensor_spot_check_rejects_false_claim(tmp_path, capsys, monkeypatch):
    rows = [
        {"i": 0, "j": n, "k": n, "c": "1"} for n in range(3)
    ] + [
        {"i": n, "j": 0, "k": n, "c": "1"} for n in (1, 2)
    ] + [
        {"i": 1, "j": 1, "k": 2, "c": "1"},
        {"i": 2, "j": 1, "k": 1, "c": "1"},
    ]
    table = write(
        tmp_path,
        "twisted.json",
        {"name": "twisted", "structure": rows, "claims": {"associative": True}},
    )
    t = write(tmp_path, "t.json", {"arity": 2, "coords": {"1,1": "1"}})
    f = write(tmp_path, "f.json", {"cols": {"0": {"0": "1"}, "1": {"1": "1"}, "2": {"2": "1"}}})
    x = write(tmp_path, "x.json", {"coords": {"1": "1"}})
    monkeypatch.setenv("FALG_MAX_INDEX", "2")
    code, _, err = run(
        capsys, ["tensor", "--algebra", table, "--tensor", t, "--map", f, "--vector", x]
    )
    assert code == 1 and "check failed" in err


def test_cli_norm_vector(tmp_path, capsys):
    v = write(tmp_path, "v.json", {"coords": {"0": "3", "1": "-4"}})
    code, out, _ = run(capsys, ["norm", "--vector", v])
    assert code == 0 and out == "[7, 7]\n"

    vt = write(tmp_path, "vt.json", {"coords": {"0": "1"}, "tail": "1/2"})
    code, out, _ = run(capsys, ["norm", "--vector", vt])
    assert code == 0 and out == "[1, 3/2]\n"
    code, out, _ = run(capsys, ["norm", "--json", "--vector", vt])
    assert out == '{"lo": "1", "hi": "3/2"}\n'


def test_cli_norm_map(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"cols": {str(j): {str(j + 1): "1"} for j in range(10)}})
    code, out, _ = run(capsys, ["norm", "--map", f])
    assert code == 0 and out == "[1, 10]\n"


def test_cli_norm_int_backend(tmp_path, capsys):
    v = write(tmp_path, "v.json", {"coords": {"0": "3", "1": "-4"}})
    code, out, _ = run(capsys, ["norm", "--backend", "int", "--vector", v])
    assert code == 0 and out == "[7, 7]\n"
    f = write(tmp_path, "f.json", {"cols": {"0": {"0": "2"}, "1": {"1": "3"}}})
    code, out, _ = run(capsys, ["norm", "--backend", "int", "--map", f])
    assert code == 0 and out == "[3, 5]\n"
    vt = write(tmp_path, "vt.json", {"coords": {"0": "1"}, "tail": "1"})
    code, out, _ = run(capsys, ["norm", "--backend", "int", "--vector", vt])
    assert code == 0 and out == "[1, 2]\n"


def test_cli_norm_flag_validation(tmp_path, capsys):
    v = write(tmp_path, "v.json", {"coords": {"0": "1"}})
    code, _, err = run(capsys, ["norm", "--vector", v, "--map", v])
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, ["norm"])
    assert code == 2


def test_cli_check_quaternion(capsys):
    code, out, _ = run(capsys, ["check", "--algebra", "builtin:quaternion"])
    assert code == 0
    assert "associative: ok (100 trials)" in out
    assert out.endswith("ok: quaternion (seed 0)\n")


def test_cli_check_json(capsys):
    code, out, _ = run(capsys, ["check", "--algebra", "builtin:complex", "--json", "--trials", "50"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["table"] == "complex"
    assert {r["law"] for r in report["laws"]} >= {"associative", "commutative"}


def twisted(tmp_path) -> str:
    """A table file claiming associativity and commutativity, though e1 * e2 != e2 * e1."""
    rows = [
        {"i": 0, "j": n, "k": n, "c": "1"} for n in range(3)
    ] + [
        {"i": n, "j": 0, "k": n, "c": "1"} for n in (1, 2)
    ] + [
        {"i": 1, "j": 1, "k": 2, "c": "1"},
        {"i": 2, "j": 1, "k": 1, "c": "1"},
    ]
    return write(
        tmp_path,
        "twisted.json",
        {"name": "twisted", "structure": rows, "claims": {"associative": True, "commutative": True}},
    )


def test_cli_check_false_claim_exits_1(tmp_path, capsys):
    table = twisted(tmp_path)
    code, out, _ = run(capsys, ["check", "--algebra", table, "--max-index", "2", "--seed", "1"])
    assert code == 1
    assert "FAIL at trial" in out
    assert "FAIL: twisted (seed 1)" in out


def test_cli_check_pair_bound_violation_exits_1(tmp_path, capsys):
    table = write(
        tmp_path,
        "liar.json",
        {
            "name": "liar",
            "structure": [{"i": 0, "j": 0, "k": 0, "c": "1"}],
            "pairBound": "1/2",
        },
    )
    # a violated pair bound is a certificate failure wherever a product meets it, check's probes included
    for argv in (["eval", "--algebra", table, "--expr", "e0 * e0"], ["check", "--algebra", table]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("check failed: pair bound violated at "), argv


def test_cli_check_rejects_zero_trials(capsys):
    code, _, err = run(capsys, ["check", "--algebra", "builtin:complex", "--trials", "0"])
    assert code == 2 and "trials" in err


def test_cli_max_index_env(capsys, monkeypatch):
    monkeypatch.setenv("FALG_MAX_INDEX", "abc")
    code, _, err = run(capsys, ["check", "--algebra", "builtin:polynomial", "--trials", "5"])
    assert code == 2 and "FALG_MAX_INDEX" in err
    monkeypatch.setenv("FALG_MAX_INDEX", "-3")
    code, _, err = run(capsys, ["check", "--algebra", "builtin:polynomial", "--trials", "5"])
    assert code == 2
    monkeypatch.setenv("FALG_MAX_INDEX", "4")
    code, _, _ = run(capsys, ["check", "--algebra", "builtin:polynomial", "--trials", "5"])
    assert code == 0


def test_cli_dual(tmp_path, capsys):
    phi = write(tmp_path, "phi.json", {"coords": {"0": "1", "2": "3"}})
    v = write(tmp_path, "v.json", {"coords": {"0": "1/3", "2": "2"}})
    code, out, _ = run(capsys, ["dual", "--functional", phi, "--vector", v])
    assert code == 0 and out == "19/3\n"
    code, out, _ = run(capsys, ["dual", "--json", "--functional", phi, "--vector", v])
    assert out == '{"value": "19/3"}\n'


def test_cli_usage_errors(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["eval", "--algebra", "builtin:polynomial"]) == 2
    capsys.readouterr()
    assert main(["eval", "--algebra", "builtin:polynomial", "--backend", "f32", "--expr", "1"]) == 2
    capsys.readouterr()


_POLY = ["--algebra", "builtin:polynomial"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "falg: error: the following arguments are required: command"),
        (["--"], "falg: error: the following arguments are required: command"),
        (["frobnicate"], "falg: error: argument command: invalid choice: 'frobnicate' "
                         "(choose from 'eval', 'apply', 'compose', 'tensor', 'norm', 'check', 'dual')"),
        (["--", "eval"], "falg: error: argument command: invalid choice: '--' "
                         "(choose from 'eval', 'apply', 'compose', 'tensor', 'norm', 'check', 'dual')"),
        (["eval"], "falg eval: error: the following arguments are required: --algebra, --expr"),
        (["eval", *_POLY], "falg eval: error: the following arguments are required: --expr"),
        (["eval", *_POLY, "--", "--expr", "1"], "falg eval: error: the following arguments are required: --expr"),
        (["dual", "--vector", "v"], "falg dual: error: the following arguments are required: --functional"),
        (["eval", *_POLY, "--expr", "1", "--backend", "f32"],
         "falg eval: error: argument --backend: invalid choice: 'f32' (choose from 'f64', 'int', 'rat')"),
        (["eval", *_POLY, "--expr", "1", "--backend="],
         "falg eval: error: argument --backend: invalid choice: '' (choose from 'f64', 'int', 'rat')"),
        (["check", *_POLY, "--trials", "x"], "falg check: error: argument --trials: invalid int value: 'x'"),
        (["check", *_POLY, "--seed=1.5"], "falg check: error: argument --seed: invalid int value: '1.5'"),
        (["check", *_POLY, "--max-index", "-.5"], "falg check: error: argument --max-index: invalid int value: '-.5'"),
        (["tensor", "--samples", "-x"], "falg tensor: error: argument --samples: expected one argument"),
        (["tensor", "--s", "1"], "falg tensor: error: ambiguous option: --s could match --samples, --seed"),
        (["tensor", "--pure", "v", "--s=1"],
         "falg tensor: error: ambiguous option: --s=1 could match --samples, --seed"),
        (["norm", "--=x"],
         "falg norm: error: ambiguous option: --=x could match --help, --backend, --json, --vector, --map"),
        (["eval", *_POLY, "--expr", "-e1"], "falg eval: error: argument --expr: expected one argument"),
        (["eval", *_POLY, "--expr"], "falg eval: error: argument --expr: expected one argument"),
        (["tensor", "--pure", "--json"], "falg tensor: error: argument --pure: expected at least one argument"),
        (["eval", *_POLY, "--expr", "1", "--json=1"],
         "falg eval: error: argument --json: ignored explicit argument '1'"),
        (["eval", "-hhx"], "falg eval: error: argument -h/--help: ignored explicit argument 'x'"),
        (["eval", "--help="], "falg eval: error: argument -h/--help: ignored explicit argument ''"),
        (["-h=x", "eval"], "falg: error: argument -h/--help: ignored explicit argument 'x'"),
        (["eval", *_POLY, "--expr", "1", "stray", "--nope", "-x"],
         "falg: error: unrecognized arguments: stray --nope -x"),
        (["--json", "eval", *_POLY, "--expr", "1", "--", "x"], "falg: error: unrecognized arguments: --json -- x"),
        (["eval", *_POLY, "--expr", "1", "--pure", "v"], "falg: error: unrecognized arguments: --pure v"),
        (["tensor", "--pure=v", "w"], "falg: error: unrecognized arguments: w"),
    ],
    ids=[
        "no-command", "only-double-dash", "bad-command", "double-dash-command", "eval-required-both",
        "eval-required-expr", "required-after-double-dash", "dual-required", "bad-choice", "empty-choice",
        "bad-int", "bad-int-equals", "bad-int-negative-decimal", "dashed-value", "ambiguous", "ambiguous-equals",
        "ambiguous-empty-prefix", "dashed-expr", "missing-value", "pure-needs-one", "flag-value", "help-value",
        "help-empty-value", "top-help-value", "unrecognized", "unrecognized-before-and-after",
        "option-of-another-command", "pure-equals-takes-one",
    ],
)
def test_cli_usage_error_messages(capsys, argv, message):
    # a usage message, then argparse's error line word for word
    code, out, err = run(capsys, argv)
    usage, *more, last = err.splitlines()
    assert code == 2 and out == ""
    assert usage.startswith("usage: falg") and all(line.startswith(" ") for line in more) and last == message


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", *_POLY, "--expr", "-1"],
        ["eval", "--algebra=builtin:polynomial", "--expr=-1"],
        ["eval", "--alg", "builtin:polynomial", "--ex", "-1", "--j"],
        ["eval", "--expr", "-1", "--backend", "int", *_POLY, "--backend", "rat"],
        ["eval", *_POLY, "--expr", "1 - 2"],
        ["eval", *_POLY, "--expr", "-1 + 0"],
        ["eval", "--json", *_POLY, "--expr", "-1", "--json"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_option_spellings_read_the_same(capsys, argv):
    # --opt value, --opt=value, unique prefixes, negative numbers as values, the last of a repeated option
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == ('{"coords": {"0": "-1"}}\n' if "--json" in argv or "--j" in argv else "{0: -1}\n")


def test_cli_int_options_are_ints(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", "--algebra", "builtin:complex", "--trials", "2", "--seed=-3", "--max-i", "3"])
    assert code == 0 and out.splitlines()[0].endswith("(2 trials)") and out.endswith("(seed -3)\n")
    t = write(tmp_path, "t.json", {"arity": 2, "coords": {"0,0": "1"}})
    f = write(tmp_path, "f.json", {"cols": {"0": {"0": "1"}}})
    v = write(tmp_path, "v.json", {"coords": {"0": "1"}})
    argv = ["tensor", *_POLY, "--tensor", t, "--map", f, "--vector", v, "--samples", "2", "--se", "5"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out == "{0: 1}\n"


def test_cli_let_repeats_and_pure_takes_several(tmp_path, capsys):
    v = write(tmp_path, "v.json", {"coords": {"1": "1"}})
    w = write(tmp_path, "w.json", {"coords": {"2": "1"}})
    code, out, _ = run(capsys, ["eval", *_POLY, "--let", f"v={v}", f"--let=w={w}", "--expr", "v * w"])
    assert code == 0 and out == "{3: 1}\n"
    code, out, _ = run(capsys, ["tensor", "--pure", v, w, v])
    assert code == 0 and out == '{"arity": 3, "coords": {"1,2,1": "1"}}\n'


@pytest.mark.parametrize("argv, err", [
    (["norm", "--map=--"], "cannot read --: No such file or directory\n"),
    (["eval", *_POLY, "--expr", "1", "--let=--"], "--let takes NAME=PATH, got '--'\n"),
])
def test_cli_value_after_equals_may_be_double_dash(capsys, argv, err):
    assert run(capsys, argv) == (2, "", err)


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help", "--he", "-hh"])
def test_cli_help_exits_0_and_names_every_option(capsys, command, flag):
    argv = [flag] if command is None else [command, "--nope", flag, "--json=1"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and out.startswith("usage: falg")
    names = cli.COMMANDS if command is None else [opt.name for opt in cli._options(command)]
    assert all(name in out for name in names)


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    files = {"v": {"coords": {"0": "1", "2": "-1/2"}}, "tv": {"coords": {"1": "1"}, "tail": "1/4"},
             "f": {"cols": {"0": {"1": "1"}, "1": {"0": "3"}}}, "t": {"arity": 2, "coords": {"0,1": "1"}},
             "a": {"structure": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}, "bad": "{x"}
    for name, data in files.items():
        (root / f"{name}.json").write_text(data if isinstance(data, str) else json.dumps(data))
    return [str(root / f"{name}.json") for name in [*files, "missing"]] + [str(root)]


_NAMES = sorted({opt.name for command in cli.COMMANDS for opt in cli._options(command)} | {"-h", "--help"})
_JUNK = ["", "-", "--", "-x", "x", "--nope", "=", "-1", "-0.5", "0", "2", "x y", "-e1", "1/0", "e1 * e2", "v", "f32",
         "rat", "int", "f64", "builtin:polynomial", "builtin:free:2", "builtin:nope", "v=", "\x00", "é", "-1\n", "٣"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_main_is_total(cli_paths, data):
    # every argv ends in exit code 0, 1 or 2, with no traceback, quickly
    name = st.sampled_from(_NAMES)
    token = st.one_of(
        st.sampled_from([*cli.COMMANDS, *cli_paths, *_JUNK]),
        name,
        st.builds(lambda n, k: n[:k], name, st.integers(2, 12)),
        st.builds(lambda n, v: f"{n}={v}", name, st.sampled_from([*_JUNK, *cli_paths, "v=" + cli_paths[0]])),
        st.text(max_size=6),
    )
    argv = data.draw(st.lists(token, max_size=10))
    if data.draw(st.booleans()):
        argv.insert(0, data.draw(st.sampled_from(list(cli.COMMANDS))))
    # main returns: only the process entry, run, ends the process
    ending = contextlib.nullcontext()
    if data.draw(st.booleans()):
        ending = mock.patch.object(os, "_exit", side_effect=AssertionError("main ended the process"))
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with ending, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.monotonic() - start < 5, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


# every file reader of main, on generated file contents -------------------

# wire-shaped objects whose leaves are junk: wrong types, non-canonical keys, huge and
# over-long numbers, 1/0 and nan; raw text and bytes for what json.dumps cannot write
_JUNK_NUMBERS = ["1/0", "0/0", "nan", "inf", "-inf", "1e400", "1e-400", "1e99999", "2.5", "9" * 5000,
                 "1/" + "3" * 5000, str(2**200), " 1", "0x10", "", "x", "\u0663", "-0", "+1", "1_0"]
_JUNK_KEYS = ["01", "-1", "+1", " 1", "1.0", "0,", "x", "", "\u0663", "1e3", str(2**70), "9" * 5000]
_WIRE_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64), st.floats(),
    st.sampled_from(_JUNK_NUMBERS), st.text(max_size=6),
)
_JUNK_TREE = st.recursive(
    _WIRE_LEAF,
    lambda sub: st.lists(sub, max_size=3) | st.dictionaries(st.sampled_from(_JUNK_KEYS), sub, max_size=3),
    max_leaves=12,
)
# about half of the values and keys are good ones, so most files get past their first check
_VALUE = st.sampled_from(["1", "-1/2", "3", "0"]) | _WIRE_LEAF
_INDEX = st.sampled_from(["0", "1", "2", "3"]) | st.sampled_from(_JUNK_KEYS) | st.text(max_size=3)
_COORDS = st.dictionaries(_INDEX, _VALUE, max_size=4)
_ROW_INDEX = st.integers(0, 3) | st.sampled_from(["0", "1", "2"]) | _WIRE_LEAF
_ROW = st.fixed_dictionaries(
    {"i": _ROW_INDEX, "j": _ROW_INDEX, "k": _ROW_INDEX, "c": _VALUE}, optional={"x": _WIRE_LEAF}
) | st.dictionaries(st.sampled_from("ijkc"), _VALUE, max_size=4) | _JUNK_TREE
_WIRE_FIELDS = {
    "coords": _COORDS | _JUNK_TREE,
    "cols": st.dictionaries(_INDEX, _COORDS | _JUNK_TREE, max_size=4) | _JUNK_TREE,
    "tail": _VALUE,
    "arity": st.integers(1, 3) | _WIRE_LEAF,
    "structure": st.lists(_ROW, max_size=5) | _JUNK_TREE,
    "pairBound": _VALUE,
    "claims": st.dictionaries(st.sampled_from(["associative", "commutative", "x"]), st.booleans() | _WIRE_LEAF,
                              max_size=3),
    "builtin": st.sampled_from(["polynomial", "quaternion", "free:2", "free:0", "free:02", "nope"]) | _WIRE_LEAF,
    "name": _WIRE_LEAF,
}


def _shape(required: str, *optional: str):
    return st.fixed_dictionaries({required: _WIRE_FIELDS[required]},
                                 optional={name: _WIRE_FIELDS[name] for name in optional})


# the shape each reader wants, and any other
_SHAPES = {
    "vector": _shape("coords", "tail"),
    "map": _shape("cols", "tail"),
    "tensor": st.fixed_dictionaries({
        "arity": _WIRE_FIELDS["arity"],
        "coords": st.dictionaries(st.sampled_from(["0,1", "1,0", "2,2", "0,0,0"]) | _INDEX, _VALUE, max_size=4),
    }),
    "algebra": _shape("structure", "pairBound", "claims", "name") | _shape("builtin"),
}
_ANY_WIRE = st.one_of(*_SHAPES.values(), st.fixed_dictionaries({}, optional=_WIRE_FIELDS), _JUNK_TREE)
_RAW_TEXT = [
    '{"coords": {"0": "1", "0": "2"}}',  # duplicate keys: json keeps the last
    '{"coords": {"0": "1"}, "coords": {"1": "x"}}',
    '{"cols": {"0": {"1": "1"}, "0": {"2": "1"}}, "tail": "1", "tail": "-1"}',
    '{"structure": [{"i": 0, "i": -1, "j": 0, "k": 0, "c": "1"}]}',
    '{"coords": {"0": 1' + "0" * 5000 + "}}",  # longer than json's int-digit limit
    '{"coords": {"0": "1"}, "tail": 1e999}',
    '{"coords": {"0": "1"}, "tail": NaN}',
    '{"cols": {}, "tail": -Infinity}',
    '{"structure": [], "pairBound": Infinity}',
    '{"arity": 2, "coords": {"0,1": 1e999}}',
    "[" * 5000 + "]" * 5000,  # nested deeper than json can read
    '{"coords": ' * 2000 + "{}" + "}" * 2000,
    '{"name": "\\ud800", "structure": []}',  # a lone surrogate in an echoed name
    '{"coords": {"\\ud800": "1"}}',
    "",
    "\ufeff{}",
    "{}\x00",
]
_RAW = st.one_of(
    st.sampled_from(_RAW_TEXT).map(str.encode),
    st.sampled_from([b"\xff\xfe{}", b'{"coords": {"0": "\xe9"}}', b"\xef\xbb\xbf{}", b"\x80"]),
    st.binary(max_size=12),
)


def _content(kind: str):
    """File contents for a reader of kind: its own shape, any wire shape, or raw text and bytes."""
    return st.one_of(_SHAPES[kind].map(lambda data: json.dumps(data).encode()),
                     _ANY_WIRE.map(lambda data: json.dumps(data).encode()), _RAW)


# argv per file reader; J is a generated file, V, F and T good files
_READERS = [
    ["apply", "--map", "F", "--vector", "J"],
    ["apply", "--map", "J", "--vector", "V"],
    ["apply", "--map", "J", "--vector", "J"],
    ["norm", "--vector", "J"],
    ["norm", "--map", "J"],
    ["dual", "--functional", "J", "--vector", "V"],
    ["dual", "--functional", "V", "--vector", "J"],
    ["compose", "--f", "J", "--g", "F"],
    ["compose", "--f", "F", "--g", "J"],
    ["tensor", "--pure", "J"],
    ["tensor", "--pure", "V", "J", "J"],
    ["tensor", "--algebra", "J", "--tensor", "T", "--map", "F", "--vector", "V", "--samples", "8"],
    ["tensor", "--algebra", "builtin:polynomial", "--tensor", "J", "--map", "F", "--vector", "V", "--samples", "8"],
    ["tensor", "--algebra", "builtin:polynomial", "--tensor", "T", "--map", "J", "--vector", "V", "--samples", "8"],
    ["tensor", "--algebra", "builtin:polynomial", "--tensor", "T", "--map", "F", "--vector", "J", "--samples", "8"],
    ["eval", "--algebra", "J", "--expr", "e0 * e1 + 2 * e1 * e1"],
    ["check", "--algebra", "J", "--trials", "10"],
    ["eval", "--algebra", "builtin:polynomial", "--expr", "v * v - 1/2 * v", "--let", "v=J"],
]
_KINDS = {"--vector": "vector", "--functional": "vector", "--pure": "vector", "--let": "vector",
          "--map": "map", "--f": "map", "--g": "map", "--tensor": "tensor", "--algebra": "algebra"}


@pytest.fixture(scope="module")
def wire_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("wire-fuzz")
    good = {"V": {"coords": {"0": "1", "2": "-3"}}, "F": {"cols": {"0": {"1": "1"}, "1": {"0": "3"}}},
            "T": {"arity": 2, "coords": {"0,1": "1"}}}
    for name, data in good.items():
        (root / f"{name}.json").write_text(json.dumps(data))
    return root


@pytest.mark.parametrize("backend", ["int", "rat", "f64"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_file_readers_are_total(wire_dir, backend, data):
    # every generated file content ends in exit code 0, 1 or 2, with no traceback, quickly
    template = data.draw(st.sampled_from(_READERS))
    argv = [*template, "--backend", backend] + data.draw(st.sampled_from([[], ["--json"]]))
    for n, token in enumerate(template):
        if token in ("V", "F", "T"):
            argv[n] = str(wire_dir / f"{token}.json")
        elif token in ("J", "v=J"):
            option = next(t for t in reversed(template[:n]) if t.startswith("--"))
            path = wire_dir / f"junk{n}.json"
            path.write_bytes(data.draw(_content(_KINDS[option])))
            argv[n] = token.replace("J", str(path))
    # a strict UTF-8 stdout, as a process has, so an unencodable echo is not hidden
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.monotonic() - start < 5, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


def test_cli_unknown_algebra(capsys):
    code, _, err = run(capsys, ["eval", "--algebra", "builtin:octonion", "--expr", "1"])
    assert code == 2 and "cannot load algebra" in err


def test_cli_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, ["norm", "--vector", str(tmp_path / "nope.json")])
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["norm", "--vector", str(bad)])
    assert code == 2 and "not valid JSON" in err
    wrong = write(tmp_path, "wrong.json", {"coords": {"x": "1"}})
    code, _, err = run(capsys, ["norm", "--vector", wrong])
    assert code == 2 and "not a valid" in err


def test_cli_subprocess_determinism(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    argv = [
        sys.executable,
        "-m",
        "falg",
        "check",
        "--algebra",
        "builtin:quaternion",
        "--seed",
        "7",
        "--json",
    ]
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
    # python -m falg and python -m falg.cli are one entry point: the same code, stdout and stderr
    for code, falg_argv in _entry_calls(tmp_path).items():
        via_package, via_module = (
            subprocess.run([sys.executable, "-m", module, *falg_argv], capture_output=True, env=env)
            for module in ("falg", "falg.cli")
        )
        assert via_package.returncode == via_module.returncode == code, falg_argv
        assert (via_package.stdout, via_package.stderr) == (via_module.stdout, via_module.stderr), falg_argv
        assert (via_package.stdout if code < 2 else via_package.stderr).endswith(b"\n"), falg_argv


def _entry_calls(tmp_path) -> dict:
    """One falg argv per exit code: a success, a failed law and a usage error."""
    return {
        0: ["eval", "--algebra", "builtin:polynomial", "--expr", "(1 + `x`)*(1 + `x`)"],
        1: ["check", "--algebra", twisted(tmp_path), "--max-index", "2", "--seed", "1"],
        2: ["eval", "--algebra", "builtin:polynomial"],
    }


def _run_python(script: str, buffered: bool = True, stdout=subprocess.PIPE):
    """script in a fresh interpreter that imports falg from this tree; stdout is block-buffered if buffered."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-c", script], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=30
    )


@pytest.mark.parametrize("code", [0, 1, 2])
def test_cli_run_exits_with_main_code_and_freezes_after(tmp_path, code):
    # run ends a fresh process with main's exit code, stdout and stderr, and never returns
    argv = _entry_calls(tmp_path)[code]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert out.getvalue() if code < 2 else err.getvalue()
    script = f"import sys\nfrom falg.cli import run\nsys.argv = ['falg', *{argv!r}]\nrun()\nprint('returned')\n"
    proc = _run_python(script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.getvalue(), err.getvalue())


def test_cli_entry_runs_atexit_handlers_after_freezing():
    # the entry runs the atexit handlers once, after falg's output, and flushes what they print
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print('handler ran'))\n"
        "sys.argv = ['falg', 'eval', '--algebra', 'builtin:polynomial', '--expr', 'e1 * e2']\n"
    )
    proc = _run_python(script + "runpy.run_module('falg', run_name='__main__')\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "{3: 1}\nhandler ran\n", "")
    # with no stdout to flush, the entry exits through sys.exit, and the shutdown runs no handler twice
    script = script.replace("print('handler ran')", "print('handler ran', file=sys.stderr)")
    proc = _run_python(script + "sys.stdout = None\nrunpy.run_module('falg', run_name='__main__')\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "handler ran\n")


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_cli_closed_stdout_exits_2_without_traceback(buffered):
    # a pipe whose reader is gone: one line on stderr, no traceback and no "Exception ignored"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_python(
            "import sys\nfrom falg.cli import run\n"
            "sys.argv = ['falg', 'eval', '--algebra', 'builtin:polynomial', '--expr', 'e1 * e2']\nrun()\n",
            buffered, write,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "falg: cannot write to stdout: Broken pipe\n")


def _falg(*argv, timeout=30):
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    argv = [sys.executable, "-m", "falg", *argv]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize(
    "command, files",
    [
        ("apply", {"map": {"cols": {"0": {"0": "1"}}}, "vector": {"coords": ["1", "2"]}}),
        ("apply", {"map": {"cols": [{"0": "1"}]}, "vector": {"coords": {"0": "1"}}}),
        ("apply", {"map": {"cols": {"0": ["1"]}}, "vector": {"coords": {"0": "1"}}}),
        (
            "tensor",
            {
                "algebra": {"builtin": "polynomial"},
                "tensor": {"arity": 2, "coords": [["0,0", "1"]]},
                "map": {"cols": {}},
                "vector": {"coords": {}},
            },
        ),
    ],
)
def test_cli_non_object_wire_fields_exit_2(tmp_path, command, files):
    argv = [command]
    for flag, data in files.items():
        argv += [f"--{flag}", write(tmp_path, f"{flag}.json", data)]
    proc = _falg(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "must be a JSON object" in proc.stderr


def test_cli_check_rejects_negative_table_index(tmp_path, capsys):
    for row, name in (({"i": -1, "j": 0, "k": 0, "c": "1"}, "i"), ({"i": 0, "j": 0, "k": -2, "c": "1"}, "k")):
        table = write(tmp_path, "neg.json", {"name": "neg", "structure": [row]})
        code, out, err = run(capsys, ["check", "--algebra", table])
        assert code == 2 and out == ""
        assert f"structure row 0 field {name!r} must be >= 0, got {row[name]}" in err


_ROW = {"i": 0, "j": 0, "k": 0, "c": "1"}


@pytest.mark.parametrize(
    "table, message",
    [
        ({"structure": [_ROW], "claims": []}, "'claims' must be a JSON object, got list"),
        ({"structure": [_ROW], "claims": {"associative": "no"}}, "claim 'associative' must be a JSON boolean"),
        ({"structure": [_ROW, {"i": 0, "j": 1, "k": 0}]}, "structure row 1 has no 'c' field"),
        ({"structure": _ROW}, "'structure' must be a JSON list, got dict"),
        ({"structure": [_ROW, 5]}, "structure row 1 must be a JSON object, got int"),
        ({"structure": [{**_ROW, "j": 1.5}]}, "structure row 0 field 'j' must be int, got float"),
        ({"name": {"a": 1}, "structure": [_ROW]}, "'name' must be a JSON string, got dict"),
        ({"builtin": 5}, "'builtin' must be a JSON string, got int"),
        # a field the format does not define is refused, never dropped: spelt "pairBound", this bound fails
        # the probe (exit 1), and misspelt it must not vanish into an "ok"
        ({"structure": [_ROW], "pairbound": "1/2"}, "unexpected field 'pairbound' in algebra data"),
        ({"builtin": "polynomial", "pairBound": "0"}, "unexpected field 'pairBound' in builtin reference"),
        ({"builtin": "polynomial", "structure": [_ROW]}, "unexpected field 'structure' in builtin reference"),
        ({"structure": [_ROW], "claims": {"assoc": True}}, "unexpected field 'assoc' in 'claims'"),
        ({"structure": [{**_ROW, "note": "unit"}]}, "unexpected field 'note' in structure row 0"),
    ],
    ids=["claims-list", "claims-string", "row-without-c", "structure-object", "integer-row", "float-index",
         "name-object", "builtin-int", "misspelt-pair-bound", "builtin-pair-bound", "builtin-structure",
         "unknown-claim", "row-note"],
)
def test_cli_check_rejects_malformed_table_json(tmp_path, capsys, table, message):
    code, out, err = run(capsys, ["check", "--algebra", write(tmp_path, "t.json", table)])
    assert code == 2 and out == ""
    assert message in err



@pytest.mark.parametrize(
    "row, message",
    [
        ({"c": "1/0"}, "structure row 1 field 'c': zero denominator in '1/0'"),
        ({"k": -1}, "structure row 1 field 'k' must be >= 0, got -1"),
        ({"c": 1}, "structure row 1 field 'c': exact coefficients and bounds are decimal strings, got int"),
        ({"j": "01"}, "structure row 1 field 'j': wire key '01' is not a canonical decimal index"),
    ],
    ids=["zero-denominator", "negative-index", "number-coefficient", "non-canonical-string-index"],
)
def test_cli_table_row_errors_name_the_row(tmp_path, capsys, row, message):
    table = write(tmp_path, "t.json", {"structure": [_ROW, {**_ROW, **row}]})
    code, out, err = run(capsys, ["check", "--algebra", table])
    assert code == 2 and out == ""
    assert err == f"cannot load algebra {table!r}: {message}\n"


def test_cli_eval_rejects_non_canonical_table_index(tmp_path):
    rows = [{"i": 1.9, "j": 0, "k": 0, "c": "1"}, {"i": "01", "j": 0, "k": True, "c": "2"}]
    table = write(tmp_path, "t.json", {"structure": rows})
    proc = _falg("eval", "--algebra", table, "--expr", "e1 * e0")
    assert proc.returncode == 2, proc.stdout
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_law_sweep_script_smoke():
    script = os.path.join(os.path.dirname(SRC_DIR), "scripts", "law_sweep.py")
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, script, "--trials", "5"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.splitlines()[2:]  # after the header and its rule
    assert len(rows) == 21  # 7 fixtures x 3 backends
    assert all(row.endswith(" ok") for row in rows)


def test_cli_free1_long_word_product_is_fast():
    proc = _falg("eval", "--algebra", "builtin:free:1", "--expr", "e100000000 * e1", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{100000001: 1}\n"


def test_parse_nesting_cap():
    for opening, closing in (("(", ")"), ("-(", ")"), ("[", ", e1]")):
        assert parse_expr(opening * (MAX_NESTING // 2) + "e0" + closing * (MAX_NESTING // 2))
    assert parse_expr("-" * MAX_NESTING + "e0") is not None
    # siblings each nest one level from the depth around them
    tree = parse_expr(" + ".join(["(e0)"] * (MAX_NESTING + 1)))
    assert tree == Chain("+" * MAX_NESTING, (Basis(0),) * (MAX_NESTING + 1))
    tree = parse_expr("-e0 * " * (MAX_NESTING + 1) + "e0")
    assert tree == Chain("*" * (MAX_NESTING + 1), (Neg(Basis(0)),) * (MAX_NESTING + 1) + (Basis(0),))
    for text in ("(" * (MAX_NESTING + 1) + "e0" + ")" * (MAX_NESTING + 1),
                 "-" * (MAX_NESTING + 1) + "e0",
                 "<" * (MAX_NESTING + 1) + "e0" + ", e1, e2>" * (MAX_NESTING + 1)):
        with pytest.raises(ExprSyntaxError, match="nested deeper"):
            parse_expr(text)


@pytest.mark.parametrize("shape, depth, chains", [
    ("(e1 {} {})", MAX_NESTING, 1),
    ("-(e1 {} {})", MAX_NESTING // 2, 1),  # each level opens two: the minus and the bracket
    ("[e1 {} {}, e2]", MAX_NESTING, 1),
    ("<e1 {} {}, e2, e3>", MAX_NESTING, 1),
    ("[e1 + e2 * {1}, e3]", MAX_NESTING, 2),  # a product inside a sum at every level
], ids=["parens", "minus-parens", "commutators", "associators", "two-chains"])
def test_deepest_tree_with_a_chain_at_every_level_compares_and_prints(shape, depth, chains):
    # a node nests only as deep as MAX_NESTING allows, so record ==, hash and repr need no loop
    text = "e0"
    for level in range(depth):
        text = shape.format("+*"[level % 2], text)
    tree = parse_expr(text)
    try:
        same, hashed, shown, printed = tree == parse_expr(text), hash(tree), repr(tree), print_expr(tree)
    except RecursionError:  # failed outside: pytest would compare the locals of 1000 frames
        same = None
    assert same is not None, "==, hash, repr or print_expr ran out of frames"
    assert same and hashed == hash(parse_expr(text))
    assert shown.count("Chain(") == chains * depth
    assert parse_expr(printed) == tree


@pytest.mark.parametrize(
    "expr",
    ["(" * 3000 + "e1" + ")" * 3000, "-" * 3000 + "e1", "[" * 3000 + "e1" + ", e2]" * 3000],
    ids=["parens", "minus", "commutators"],
)
def test_cli_deep_nesting_exits_2(expr):
    proc = _falg("eval", "--algebra", "builtin:polynomial", f"--expr={expr}", timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "nested deeper" in proc.stderr


@pytest.mark.parametrize("op, expected", [("+", "{1: 3000}"), ("-", "{1: -2998}"), ("*", "{3000: 1}")])
def test_cli_long_flat_chain_evaluates(op, expected):
    # a flat chain nests nothing but parses left-deep, 3000 nodes down
    proc = _falg("eval", "--algebra", "builtin:polynomial", "--expr", op.join(["e1"] * 3000), timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"


@pytest.mark.parametrize(
    "command, files",
    [
        ("norm", {"vector": {"coords": {"0": "1e100000000"}}}),
        ("norm", {"vector": {"coords": {"0": "1"}, "tail": "1e-100000000"}}),
        ("apply", {"map": {"cols": {"0": {"0": "-3E+999999999"}}}, "vector": {"coords": {"0": "1"}}}),
        ("apply", {"map": {"cols": {"0": {"0": "1"}}}, "vector": {"coords": {"0": "7" * 100000}}}),
    ],
    ids=["norm-exponent", "norm-tail-exponent", "apply-exponent", "apply-digits"],
)
def test_cli_huge_literals_exit_2(tmp_path, command, files):
    argv = [command]
    for flag, data in files.items():
        argv += [f"--{flag}", write(tmp_path, f"{flag}.json", data)]
    proc = _falg(*argv, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--vector", "{deep}"],
        ["apply", "--map", "{deep}", "--vector", "{ok}"],
        ["eval", "--algebra", "builtin:polynomial", "--let", "v={deep}", "--expr", "v"],
        ["check", "--algebra", "{deep}"],
    ],
    ids=["norm-vector", "apply-map", "eval-let", "check-algebra"],
)
def test_cli_deeply_nested_json_exits_2(tmp_path, argv):
    # json.load recurses once per nesting level
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    ok = write(tmp_path, "ok.json", {"coords": {"0": "1"}})
    proc = _falg(*(a.format(deep=deep, ok=ok) for a in argv), timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{deep} is not valid JSON: nested too deeply" in proc.stderr


@pytest.mark.parametrize(
    "content",
    ['{"coords": {}}'.encode("utf-16"), b'{"coords": {"0": ' + b"7" * 5000 + b"}}"],
    ids=["utf16-bom", "5000-digit-number"],
)
def test_cli_undecodable_json_exits_2(tmp_path, content):
    # bytes ff fe are not UTF-8, and json reads a number of over 4300 digits as an int it refuses
    path = tmp_path / "f.json"
    path.write_bytes(content)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    argv = [sys.executable, "-m", "falg", "norm", "--vector", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=dict(env, PYTHONPATH=SRC_DIR), timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{path} is not valid JSON: " in proc.stderr


@pytest.mark.parametrize("literal", ["7" * 100000, "1/" + "3" * 100000], ids=["integer", "fraction"])
def test_cli_huge_eval_literal_exits_2(literal):
    # PYTHONINTMAXSTRDIGITS=0 lifts CPython's own int-from-string limit
    env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONINTMAXSTRDIGITS="0")
    argv = [sys.executable, "-m", "falg", "eval", "--algebra", "builtin:polynomial", "--expr", literal]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "digits" in proc.stderr


@pytest.mark.parametrize(
    "command, files",
    [
        ("apply", {"map": {"cols": {"0": {"0": "1e300"}}, "tail": "1e300"},
                   "vector": {"coords": {"0": "1e300"}, "tail": "1e10"}}),
        ("apply", {"map": {"cols": {"0": {"0": "1"}}, "tail": "1e300"},
                   "vector": {"coords": {"0": "1"}, "tail": "1e300"}}),
        ("norm", {"vector": {"coords": {"0": "1e308", "1": "1e308"}}}),
    ],
    ids=["apply-prefix", "apply-bound", "norm"],
)
def test_cli_f64_overflow_exits_2(tmp_path, command, files):
    argv = [command, "--backend", "f64"]
    for flag, data in files.items():
        argv += [f"--{flag}", write(tmp_path, f"{flag}.json", data)]
    proc = _falg(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "finite" in proc.stderr


@pytest.mark.parametrize("expr, flags", [("v+v", []), ("(v+v)-(v+v)", []), ("v*v", ["--json"])])
def test_cli_f64_eval_overflow_exits_2(tmp_path, capsys, expr, flags):
    big = write(tmp_path, "big.json", {"coords": {"0": "1e308"}})
    argv = ["eval", "--backend", "f64", "--algebra", "builtin:polynomial", "--let", f"v={big}", "--expr", expr]
    code, out, err = run(capsys, argv + flags)
    assert code == 2 and out == ""
    assert "float coefficients must be finite" in err


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_long_flat_chain_compares_and_prints(op):
    # a run of one operator is one Chain node, so ==, hash, repr and print_expr do not recurse per term
    tree = parse_expr(op.join(["e1"] * 3000))
    text = print_expr(tree)
    assert text == f" {op} ".join(["e1"] * 3000)
    assert tree == parse_expr(text)
    assert tree != parse_expr(op.join(["e1"] * 2999 + ["e2"]))
    assert tree != parse_expr(op.join(["e1"] * 2999))
    assert Chain("+", (Basis(1), Basis(2))) != Chain("-", (Basis(1), Basis(2)))
    try:
        hashed, shown = hash(tree), repr(tree)
    except RecursionError:  # failed outside: pytest would compare the locals of 1000 frames
        hashed = shown = None
    assert shown is not None, "hash or repr recursed once per chain node"
    assert hashed == hash(parse_expr(text))
    assert shown == f"Chain(ops={op * 2999!r}, operands=({', '.join(['Basis(index=1)'] * 3000)}))"


def _eval_argv(algebra: str, expr: str) -> list:
    return ["eval", "--algebra", algebra, "--expr", expr]


_LONG_LABEL = "`" + "x" * 100000 + "`"
_ONE_ROW_TABLE = {"structure": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}


def _norm_argv(backend, data):
    return lambda tmp: ["norm", "--backend", backend, "--vector", write(tmp, "v.json", data)]


# argv of one call, built in tmp_path, whose error quotes 100,000 characters of input
LONG_ECHOES = {
    "literal": lambda tmp: _eval_argv("builtin:polynomial", "7" * 100000),
    "unexpected": lambda tmp: _eval_argv("builtin:polynomial", "e1 " + "7" * 100000),
    "identifier": lambda tmp: _eval_argv("builtin:polynomial", "v" * 100000),
    "builtin-name": lambda tmp: ["check", "--algebra", write(tmp, "a.json", {"builtin": "x" * 100000})],
    "polynomial-label": lambda tmp: _eval_argv("builtin:polynomial", _LONG_LABEL),
    "quaternion-label": lambda tmp: _eval_argv("builtin:quaternion", _LONG_LABEL),
    "table-label": lambda tmp: _eval_argv(write(tmp, "t.json", _ONE_ROW_TABLE), _LONG_LABEL),
    # int(), Fraction() and float() alone would quote the whole text they cannot read
    **{f"coefficient-{b}": _norm_argv(b, {"coords": {"0": "x" * 100000}}) for b in ("int", "rat", "f64")},
    **{f"tail-{b}": _norm_argv(b, {"coords": {"0": "1"}, "tail": "y" * 100000}) for b in ("int", "rat", "f64")},
    "map-column": lambda tmp: ["norm", "--map", write(tmp, "f.json", {"cols": {"x" * 100000: []}})],
    # a command-line token argparse would quote whole
    "int-option": lambda tmp: ["check", "--algebra", "builtin:polynomial", "--trials", "x" * 100000],
    "choice-option": lambda tmp: ["check", "--algebra", "builtin:polynomial", "--backend", "x" * 100000],
    "command": lambda tmp: ["x" * 100000],
    "flag-value": lambda tmp: ["check", "--algebra", "builtin:polynomial", "--json=" + "x" * 100000],
    "help-value": lambda tmp: ["--help=" + "x" * 100000],
    "let-value": lambda tmp: _eval_argv("builtin:polynomial", "1") + ["--let", "x" * 100000],
    "builtin-spec": lambda tmp: ["check", "--algebra", "builtin:" + "x" * 100000],
    "unrecognized": lambda tmp: _eval_argv("builtin:polynomial", "1") + ["x" * 100000],
    "ambiguous-value": lambda tmp: ["tensor", "--s=" + "x" * 99996],  # the message quotes the whole 100,000-character token
}


@pytest.mark.parametrize("argv", LONG_ECHOES.values(), ids=LONG_ECHOES)
def test_cli_long_token_echo_is_short(tmp_path, argv):
    proc = _falg(*argv(tmp_path), timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "100000 characters" in proc.stderr
    assert len(proc.stderr) < 1024


def test_cli_long_max_index_env_echo_is_short(capsys, monkeypatch):
    monkeypatch.setenv("FALG_MAX_INDEX", "x" * 100000)
    code, out, err = run(capsys, ["check", "--algebra", "builtin:polynomial", "--trials", "5"])
    assert (code, out) == (2, "")
    assert err == f"FALG_MAX_INDEX must be an integer, got {'x' * 40!r}... (100000 characters)\n"


@pytest.mark.parametrize("argv", [["check", "--algebra"], ["norm", "--vector"]], ids=["algebra", "vector"])
def test_cli_unreadable_path_is_quoted_once(capsys, argv):
    path = "x" * 100000  # longer than any file name the OS reads
    code, out, err = run(capsys, [*argv, path])
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {path}: ") and err.count(path) == 1
    assert len(err) < len(path) + 200


def test_cli_f64_infinite_tail_rejected_at_parse(tmp_path):
    vector = write(tmp_path, "v.json", {"coords": {"0": "1"}, "tail": "inf"})
    proc = _falg("norm", "--backend", "f64", "--vector", vector)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "is not a valid vector: bound must be finite" in proc.stderr


@pytest.mark.parametrize(
    "argv, files",
    [
        (["norm", "--vector", "v"], {"v": {"coords": {"1": "2", "01": "3", "1_0": "5"}}}),
        (["norm", "--map", "f"], {"f": {"cols": {"0": {"1": "1"}, "00": {"1": "1"}}}}),
        (["dual", "--functional", "phi", "--vector", "v"],
         {"phi": {"coords": {"1": "2", "+1": "3"}}, "v": {"coords": {"1": "1"}}}),
        (["tensor", "--pure", "v", "w"], {"v": {"coords": {"0": "1", "-0": "2"}}, "w": {"coords": {"1": "1"}}}),
        (["tensor", "--algebra", "builtin:polynomial", "--tensor", "t", "--map", "f", "--vector", "v"],
         {"t": {"arity": 2, "coords": {"0,0": "1", "0,00": "1"}}, "f": {"cols": {"0": {"0": "1"}}},
          "v": {"coords": {"0": "1"}}}),
    ],
    ids=["norm-vector", "norm-map", "dual", "tensor-pure", "tensor-via"],
)
def test_cli_noncanonical_wire_keys_exit_2(tmp_path, argv, files):
    # "01", "1_0", "+1", "-0" would each name an index another key names too
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in files.items()}
    proc = _falg(*(paths.get(arg, arg) for arg in argv))
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert "canonical decimal" in proc.stderr


def test_cli_tensor_negative_samples_exit_2(tmp_path, capsys):
    t = write(tmp_path, "t.json", {"arity": 2, "coords": {"0,0": "1"}})
    f = write(tmp_path, "f.json", {"cols": {"0": {"0": "1"}}})
    v = write(tmp_path, "v.json", {"coords": {"0": "1"}})
    argv = ["tensor", "--algebra", "builtin:polynomial", "--tensor", t, "--map", f, "--vector", v]
    code, out, err = run(capsys, argv + ["--samples", "-1"])
    assert code == 2 and out == ""
    assert err == "samples must be >= 0, got -1\n"
    code, out, _ = run(capsys, argv + ["--samples", "0"])
    assert code == 0 and out == "{0: 1}\n"


_GOOD_FILES = {
    "v": {"coords": {"0": "1"}},
    "f": {"cols": {"0": {"0": "1"}}},
    "t": {"arity": 2, "coords": {"0,0": "1"}},
}
_VIA = ["tensor", "--algebra", "builtin:polynomial"]


@pytest.mark.parametrize(
    "argv, bad, message",
    [
        (["eval", "--algebra", "builtin:polynomial", "--let", "x=BAD", "--expr", "x"], {"coords": {"x": "1"}},
         "vector: invalid literal for int() with base 10: 'x'"),
        (["apply", "--map", "BAD", "--vector", "v"], {"cols": {"0": ["1"]}},
         "map: column '0' must be a JSON object, got list"),
        (["apply", "--map", "f", "--vector", "BAD"], {"coords": {"a": "1"}},
         "vector: invalid literal for int() with base 10: 'a'"),
        (["apply", "--map", "f", "--vector", "BAD"], {"coords": {"0": "1"}, "tail": "-1"},
         "vector: bound must be non-negative, got -1"),
        (["compose", "--f", "BAD", "--g", "f"], {"cols": {"-1": {"0": "1"}}},
         "map: basis index must be >= 0, got -1"),
        (["compose", "--f", "f", "--g", "BAD"], [1], "map: ColumnFiniteMap data must be a JSON object, got list"),
        (["tensor", "--pure", "v", "BAD"], {"coords": {"0": "1e99999"}},
         "vector: literal exponent 99999 exceeds 4300 in magnitude"),
        (_VIA + ["--tensor", "BAD", "--map", "f", "--vector", "v"], {"arity": 2, "coords": {"0": "1"}},
         "tensor: coordinate key (0,) does not match arity 2"),
        (_VIA + ["--tensor", "t", "--map", "BAD", "--vector", "v"], {"cols": "x"},
         "map: 'cols' must be a JSON object, got str"),
        (_VIA + ["--tensor", "t", "--map", "f", "--vector", "BAD"], {},
         "vector: HamelVector data has no 'coords' field"),
        (["norm", "--vector", "BAD"], {"coords": {"0": "abc"}}, "vector: Invalid literal for Fraction: 'abc'"),
        (["norm", "--map", "BAD"], {"cols": {"0": {"0": "1"}}, "tail": "x"},
         "map: Invalid literal for Fraction: 'x'"),
        (["dual", "--functional", "BAD", "--vector", "v"], {"coords": {"1_0": "1"}},
         "functional: wire key '1_0' is not a canonical decimal index"),
        (["dual", "--functional", "v", "--vector", "BAD"], 7,
         "vector: HamelVector data must be a JSON object, got int"),
        (["apply", "--map", "f", "--vector", "BAD"], {"coords": {"0": "1/0"}},
         "vector: zero denominator in '1/0'"),
        (["apply", "--map", "f", "--vector", "BAD"], {"coords": {"0": "1"}, "tail": "1/0"},
         "vector: zero denominator in '1/0'"),
        (["norm", "--vector", "BAD"], {"coords": {"0": 1}},
         "vector: exact coefficients and bounds are decimal strings, got int"),
        (["norm", "--backend", "int", "--vector", "BAD"], {"coords": {"0": 1}},
         "vector: exact coefficients and bounds are decimal strings, got int"),
        (["norm", "--backend", "f64", "--vector", "BAD"], {"coords": {"0": True}},
         "vector: float coefficients and bounds are numbers or decimal strings, got bool"),
        (["norm", "--backend", "f64", "--vector", "BAD"], {"coords": {"0": 1}, "tail": False},
         "vector: float coefficients and bounds are numbers or decimal strings, got bool"),
    ],
    ids=[
        "eval-let", "apply-map", "apply-vector", "apply-tail-vector", "compose-f", "compose-g", "tensor-pure",
        "tensor-tensor", "tensor-map", "tensor-vector", "norm-vector", "norm-map", "dual-functional",
        "dual-vector", "apply-zero-denominator", "apply-tail-zero-denominator", "norm-number-rat",
        "norm-number-int", "norm-bool-f64", "norm-bool-tail-f64",
    ],
)
def test_cli_malformed_file_stderr(tmp_path, capsys, argv, bad, message):
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in {**_GOOD_FILES, "BAD": bad}.items()}
    argv = [paths.get(arg, arg.replace("BAD", paths["BAD"])) for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"{paths['BAD']} is not a valid {message}\n"


@pytest.mark.parametrize(
    "c, extra, where",
    [("1/0", {}, "structure row 0 field 'c': "), ("1", {"pairBound": "1/0"}, "")],
    ids=["c", "pair-bound"],
)
def test_cli_algebra_zero_denominator_names_the_file(tmp_path, capsys, c, extra, where):
    algebra = write(tmp_path, "a.json", {"structure": [{"i": 0, "j": 0, "k": 0, "c": c}], **extra})
    code, out, err = run(capsys, ["check", "--algebra", algebra])
    assert code == 2 and out == ""
    assert err == f"cannot load algebra {algebra!r}: {where}zero denominator in '1/0'\n"
