"""The cli_cold workload: one fresh `python -m falg` per call.

Every call reads files generated from the seed, and its expected stdout is
computed here from the same data by the oracles (binomial rows from
`math.comb`, the frozen quaternion table, dict-of-Fraction maps), rendered in
the CLI's documented output formats.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles
from oracles import banded, frac

LAWS = ("left_distributive", "right_distributive", "scalar_left", "scalar_right", "associative")


@dataclass
class Call:
    cls: str
    argv: list[str]
    expected: str


def _text(d: dict) -> str:
    return "{" + ", ".join(f"{i}: {d[i]}" for i in sorted(d)) + "}"


def _wire_vector(d: dict) -> dict:
    return {"coords": {str(i): str(d[i]) for i in sorted(d)}}


def _wire_cols(cols: dict) -> dict:
    return {"cols": {str(j): _wire_vector(cols[j])["coords"] for j in sorted(cols)}}


def _json_line(data) -> str:
    return json.dumps(data, separators=(", ", ": ")) + "\n"


def _laws_out(name: str, trials: int, seed: int) -> str:
    lines = [f"{law}: ok ({trials} trials)" for law in LAWS]
    return "\n".join(lines) + f"\nok: {name} (seed {seed})\n"


def build_round(seed: int, r: int, out_dir: str) -> list[Call]:
    rng = random.Random(f"cli_cold:{seed}:{r}")
    files: dict[str, object] = {}

    def file(name: str, data) -> str:
        path = os.path.join(out_dir, f"r{r}_{name}.json")
        files[path] = data
        return path

    calls = []

    m = rng.randint(6, 12)
    expr = " * ".join(["(1 + `x`)"] * m)
    calls.append(Call("eval.poly_power", ["eval", "--algebra", "builtin:polynomial", "--expr", expr],
                      _text({k: math.comb(m, k) for k in range(m + 1)}) + "\n"))

    a, b, c, d = (rng.randint(1, 5) for _ in range(4))
    s1, s2 = rng.choice("+-"), rng.choice("+-")
    u = {1: Fraction(a), 2: Fraction(b if s1 == "+" else -b)}
    v = {2: Fraction(c), 3: Fraction(d if s2 == "+" else -d)}
    comm = oracles.add(oracles.mul_quaternion(u, v), oracles.scale(-1, oracles.mul_quaternion(v, u)))
    calls.append(Call("eval.quat_commutator",
                      ["eval", "--algebra", "builtin:quaternion", "--expr",
                       f"[{a}*`i` {s1} {b}*`j`, {c}*`j` {s2} {d}*`k`]"],
                      _text(comm) + "\n"))

    for name in ("quaternion", "free:2"):
        law_seed = rng.randrange(1000)
        calls.append(Call(f"check.{name}",
                          ["check", "--algebra", f"builtin:{name}", "--trials", "100", "--seed", str(law_seed)],
                          _laws_out(name, 100, law_seed)))

    n = 24
    f, g = banded(rng, n, 4), banded(rng, n, 4)
    x = {i: frac(rng) for i in range(n)}
    tf, tg, tx = (Fraction(rng.randint(1, 8), 16) for _ in range(3))
    f_path, g_path, x_path = file("f", _wire_cols(f)), file("g", _wire_cols(g)), file("x", _wire_vector(x))
    ft_path = file("ft", {**_wire_cols(f), "tail": str(tf)})
    gt_path = file("gt", {**_wire_cols(g), "tail": str(tg)})
    xt_path = file("xt", {**_wire_vector(x), "tail": str(tx)})
    mf, mg, mx = oracles.l1_total(f), oracles.l1_total(g), oracles.l1(x)

    calls.append(Call("apply.exact", ["apply", "--map", f_path, "--vector", x_path],
                      _text(oracles.apply(f, x)) + "\n"))
    # certificate of TailMap.apply: Ff*tail(x) + Ft*(|prefix x| + tail(x))
    apply_tail = mf * tx + tf * (mx + tx)
    calls.append(Call("apply.tail", ["apply", "--map", ft_path, "--vector", xt_path],
                      f"{_text(oracles.apply(f, x))} tail {apply_tail}\n"))
    calls.append(Call("compose.exact", ["compose", "--f", f_path, "--g", g_path],
                      _json_line(_wire_cols(oracles.compose(f, g)))))
    # certificate of TailMap.compose: Ff*Gt + Ft*(Gf + Gt)
    compose_tail = mf * tg + tf * (mg + tg)
    calls.append(Call("compose.tail", ["compose", "--f", ft_path, "--g", gt_path],
                      _json_line({**_wire_cols(oracles.compose(f, g)), "tail": str(compose_tail)})))
    calls.append(Call("norm.vector_tail", ["norm", "--vector", xt_path], f"[{mx}, {mx + tx}]\n"))
    best = max(oracles.l1(col) for col in f.values())
    calls.append(Call("norm.map_exact", ["norm", "--map", f_path], f"[{best}, {mf}]\n"))

    factors = [{i: frac(rng) for i in rng.sample(range(12), 5)} for _ in range(3)]
    paths = [file(f"t{k}", _wire_vector(v)) for k, v in enumerate(factors)]
    pure = oracles.pure_tensor(factors)
    calls.append(Call("tensor.pure", ["tensor", "--pure", *paths],
                      _json_line({"arity": 3, "coords": {",".join(map(str, k)): str(pure[k]) for k in sorted(pure)}})))

    phi = {i: frac(rng) for i in rng.sample(range(n), 12)}
    phi_path = file("phi", _wire_vector(phi))
    value = sum((phi[i] * x[i] for i in phi), Fraction(0))
    calls.append(Call("dual", ["dual", "--functional", phi_path, "--vector", x_path], f"{value}\n"))

    for path, data in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return calls


def build(seed: int, rounds: int, out_dir: str) -> list[list[Call]]:
    os.makedirs(out_dir, exist_ok=True)
    return [build_round(seed, r, out_dir) for r in range(rounds)]
