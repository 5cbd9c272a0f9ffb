import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from falg import (
    FLOAT64,
    RATIONAL,
    HamelVector,
    LabelError,
    basis_vector,
    fixture_from_data,
    load_builtin,
)

RULE_BACKED = ["polynomial", "free:1", "free:2", "free:3", "group_z"]
ALL_NAMES = RULE_BACKED + ["quaternion", "complex"]


@pytest.mark.parametrize("name", ALL_NAMES)
@given(data=st.data())
def test_codec_round_trip(name, data):
    fix = load_builtin(name)
    cap = {"quaternion": 3, "complex": 1}.get(name, 400)
    index = data.draw(st.integers(min_value=0, max_value=cap))
    label = fix.decode(index)
    assert fix.encode(label) == index


def test_polynomial_labels():
    fix = load_builtin("polynomial")
    assert fix.decode(0) == "1"
    assert fix.decode(1) == "x"
    assert fix.decode(2) == "x^2"
    assert fix.encode("x^3") == 3
    assert fix.encode("x^0") == 0 and fix.encode("x^1") == 1  # aliases
    for bad in ("x^+2", "x^02", "x^ 2", "x^", "y", "x^2x", "x^-1", "2"):
        with pytest.raises(LabelError):
            fix.encode(bad)
    with pytest.raises(ValueError, match="^basis index must be >= 0, got -1$"):
        fix.decode(-1)


def test_polynomial_rule():
    table = load_builtin("polynomial").table
    assert table.lookup(1, 2) == basis_vector(RATIONAL, 3)
    assert table.mul(
        HamelVector(RATIONAL, {0: 1, 1: 1}), HamelVector(RATIONAL, {0: 1, 1: 1})
    ) == HamelVector(RATIONAL, {0: 1, 1: 2, 2: 1})


def test_free_two_enumeration():
    fix = load_builtin("free:2")
    assert [fix.decode(i) for i in range(7)] == ["1", "a", "b", "aa", "ab", "ba", "bb"]
    assert fix.encode("1") == 0 and fix.encode("") == 0
    assert fix.encode("a") == 1 and fix.encode("b") == 2 and fix.encode("aa") == 3
    assert fix.decode(4) == "ab"
    with pytest.raises(LabelError):
        fix.encode("c")
    with pytest.raises(LabelError):
        fix.encode("aXb")


def test_free_concatenation_product():
    rng = random.Random(7)
    for k in (1, 2, 3):
        fix = load_builtin(f"free:{k}")
        assert fix.table.lookup(fix.encode("a"), fix.encode("a")) == basis_vector(
            RATIONAL, fix.encode("aa")
        )
        for _ in range(200):
            i, j = rng.randint(0, 80), rng.randint(0, 80)
            product = fix.table.lookup(i, j)
            word = lambda n: "" if (w := fix.decode(n)) == "1" else w
            assert product == basis_vector(RATIONAL, fix.encode(word(i) + word(j)))


def _string_rule(k: int, i: int, j: int) -> int:
    """The free:k product by spelling both words out, concatenating, re-indexing."""
    def offset(length):
        return length if k == 1 else (k**length - 1) // (k - 1)

    def word(index):
        length = 0
        while offset(length + 1) <= index:
            length += 1
        rem, digits = index - offset(length), []
        for _ in range(length):
            rem, d = divmod(rem, k)
            digits.append(d)
        return digits[::-1]

    digits = word(i) + word(j)
    value = 0
    for d in digits:
        value = value * k + d
    return offset(len(digits)) + value


@pytest.mark.parametrize("k", [1, 2, 3, 26])
@given(data=st.data())
def test_free_index_rule_matches_string_rule(k, data):
    indices = st.integers(min_value=0, max_value=3000 if k == 1 else 10**12)
    i, j = data.draw(indices), data.draw(indices)
    table = load_builtin(f"free:{k}").table
    assert table.lookup(i, j) == basis_vector(RATIONAL, _string_rule(k, i, j))


@pytest.mark.parametrize("k", [1, 2, 3, 26])
@given(data=st.data())
def test_free_codec_inverts_on_long_words_and_large_indices(k, data):
    fix = load_builtin(f"free:{k}")
    word = data.draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz"[:k], min_size=1, max_size=200))
    index = data.draw(st.integers(min_value=0, max_value=10**4 if k == 1 else 10**60))
    assert fix.decode(fix.encode(word)) == word
    assert fix.encode(fix.decode(index)) == index


def test_free_two_product_example():
    fix = load_builtin("free:2")
    ea, eb = basis_vector(RATIONAL, fix.encode("a")), basis_vector(RATIONAL, fix.encode("b"))
    assert fix.table.mul(ea, eb) == basis_vector(RATIONAL, fix.encode("ab"))


def test_group_z_zigzag():
    fix = load_builtin("group_z")
    assert fix.encode("1") == 0
    assert fix.encode("g") == 1
    assert fix.encode("g^-1") == 2
    assert fix.encode("g^2") == 3
    assert fix.encode("g^-2") == 4
    assert fix.decode(2) == "g^-1"
    rng = random.Random(8)
    for _ in range(300):
        m, n = rng.randint(-40, 40), rng.randint(-40, 40)
        product = fix.table.lookup(fix.encode(f"g^{m}"), fix.encode(f"g^{n}"))
        assert product == basis_vector(RATIONAL, fix.encode(f"g^{m + n}"))


def test_group_z_inverse_hits_unit():
    fix = load_builtin("group_z")
    g = basis_vector(RATIONAL, fix.encode("g"))
    ginv = basis_vector(RATIONAL, fix.encode("g^-1"))
    assert fix.table.mul(g, ginv) == basis_vector(RATIONAL, 0)


def test_quaternion_labels_and_table():
    fix = load_builtin("quaternion")
    assert [fix.decode(n) for n in range(4)] == ["1", "i", "j", "k"]
    i, j, k = (basis_vector(RATIONAL, n) for n in (1, 2, 3))
    table = fix.table
    assert table.mul(i, i) == basis_vector(RATIONAL, 0).scale(RATIONAL.scalar(-1))
    assert table.mul(i, j) == k
    assert table.mul(j, i) == -k
    with pytest.raises(LabelError):
        fix.decode(4)
    with pytest.raises(LabelError):
        fix.encode("q")


def test_complex_table():
    fix = load_builtin("complex")
    assert [fix.decode(n) for n in range(2)] == ["1", "i"]
    i = basis_vector(RATIONAL, 1)
    assert fix.table.mul(i, i) == -basis_vector(RATIONAL, 0)


def test_load_builtin_errors():
    for bad in ("octonion", "free:0", "free:abc", "free:-1", "free:01", "free:27"):
        with pytest.raises(ValueError):
            load_builtin(bad)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_fixtures_pass_their_claimed_laws(name):
    report = load_builtin(name).table.check_laws(trials=100, seed=5)
    assert report.ok, report.to_data()


def test_quaternion_commutator_witness():
    table = load_builtin("quaternion").table
    i, j = basis_vector(RATIONAL, 1), basis_vector(RATIONAL, 2)
    assert table.commutator(i, j) == HamelVector(RATIONAL, {3: 2})


def test_free_two_noncommutative_witness():
    table = load_builtin("free:2").table
    ea, eb = basis_vector(RATIONAL, 1), basis_vector(RATIONAL, 2)
    assert not table.commutator(ea, eb).is_zero()


@pytest.mark.parametrize("name", RULE_BACKED)
def test_pair_bound_one_on_sampled_pairs(name):
    table = load_builtin(name).table
    rng = random.Random(11)
    for _ in range(1000):
        i, j = rng.randint(0, 200), rng.randint(0, 200)
        assert table.lookup(i, j).l1() == 1


def test_fixture_from_data_builtin_reference():
    fix = fixture_from_data({"builtin": "quaternion"})
    assert fix.name == "quaternion" and fix.encode("k") == 3


def test_fixture_from_data_extensional_identity_codec():
    data = {
        "name": "tiny",
        "structure": [{"i": 0, "j": 0, "k": 0, "c": "1"}],
        "pairBound": "1",
    }
    fix = fixture_from_data(data)
    assert fix.encode("3") == 3 and fix.decode(5) == "5"
    for bad in ("x", "03", "-1", "1.5"):
        with pytest.raises(LabelError):
            fix.encode(bad)


def test_float_backend_fixture():
    fix = load_builtin("polynomial", FLOAT64)
    assert fix.backend is FLOAT64
    v = HamelVector(FLOAT64, {0: 1.0, 1: 0.5})
    assert fix.table.mul(v, v) == HamelVector(FLOAT64, {0: 1.0, 1: 1.0, 2: 0.25})
    assert fix.table.check_laws(trials=50, seed=3).ok


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_from_a_checkout(tmp_path, script: Path, *args: str) -> subprocess.CompletedProcess:
    """script run with no PYTHONPATH, from a working directory elsewhere, writing no bytecode."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, str(script), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("script", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name)
def test_script_help_runs_from_a_checkout(tmp_path, script):
    # every script finds what it imports next to it
    proc = _run_from_a_checkout(tmp_path, script, "--help")
    assert proc.returncode == 0, proc.stderr


def test_law_sweep_runs_from_a_checkout(tmp_path):
    proc = _run_from_a_checkout(tmp_path, SCRIPTS / "law_sweep.py", "--trials", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(" ok\n") == 21
