"""Committed mutants: each breaks one guarded detail, and named tests must catch it.

    python3 scripts/mutants.py                      # run every mutant
    python3 scripts/mutants.py convolve-sorted-keys # run the named mutants only

A mutant replaces one snippet, which must occur exactly once, in one file of
``src/falg``.  Each runs in its own temporary copy of ``src/``, ``tests/``,
``scripts/`` and ``pyproject.toml``, so this tree is never edited.  First the
unmutated copy must pass every named test; then, for each mutant, pytest runs
its named tests on the mutated copy, and every one of them must fail.  A
mutant whose snippet is missing is an error too: the code it guards moved,
so the mutant must move with it.  The named tests are tier-1 tests; this
script is not, since it runs pytest once per mutant.

Exit 0 when every mutant is caught by all its named tests, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = "tests/test_kernel.py::"
COLUMNS = KERNEL + "test_column_sum_examples["
DRAWS = [f"tests/test_algebra.py::test_below_draws_the_randint_stream[{seed}]" for seed in (0, 1, 808, 2**40 + 7)]
LAWS = [f"tests/test_algebra.py::test_check_laws_matches_reference[{b}]" for b in ("rat", "int", "f64")]
RING = "tests/test_ring.py::"
ALGEBRA = "tests/test_algebra.py::"
LOOKUP = ALGEBRA + "test_lookup_checks_both_indices_before_memoizing["
GROUPS = RING + "test_mass_over_several_denominator_groups_is_the_chained_sum["
VALUES = "tests/test_values.py::"
EDGES = VALUES + "test_constructors_reject_edge_inputs_with_their_messages["
RAW_CONSTRUCTORS = ("vector", "functional", "map-column", "tail-vector")
DIFFERENTIAL = "tests/test_differential.py::test_differential_every_block_matches"
F64_OVERFLOW = [KERNEL + f"test_float_overflow_raises[{op}]"
                for op in ("add", "scale", "apply", "compose", "mul", "tensor_pure")]
CLI = "tests/test_cli.py::"
USAGE = CLI + "test_cli_usage_error_messages["
ENTRY = CLI + "test_cli_run_exits_with_main_code_and_freezes_after["
MERGES = KERNEL + "test_add_and_sub_are_the_chained_operators["
MERGE_EXAMPLES = KERNEL + "test_add_and_sub_examples["
PASS = VALUES + "test_exact_type_pass_examples["
LINEAR = VALUES + "test_minus_and_scalar_times_are_the_linear_identities["
TAIL_DIFFERENCES = "tests/test_schauder.py::test_rational_tail_map_differences_are_sound"
LONG_ECHOES = ("literal", "unexpected", "identifier", "builtin-name", "polynomial-label", "quaternion-label",
               "table-label", *(f"{field}-{b}" for field in ("coefficient", "tail") for b in ("int", "rat", "f64")),
               "map-column", "int-option", "choice-option", "command", "flag-value", "help-value", "let-value",
               "builtin-spec", "unrecognized", "ambiguous-value")
POSITION = CLI + "test_lex_error_is_reported_at_its_own_line_and_column"
CATALOG = "tests/test_catalog.py::"
VIEW_KINDS = ("vector", "functional", "tensor")
BACKENDS = ("int", "rat", "f64")
HAMEL = "tests/test_hamel.py::"
UNKNOWN_FIELDS = HAMEL + "test_exact_wire_readers_refuse_unknown_fields["
FIELDS = ("tail", "tail-text", "junk", "empty", "long")
READERS = ("vector", "functional", "tensor", "map", "tail-vector", "tail-map", "algebra", "structure-row", "claims",
           "builtin")
ALGEBRA_FILES = CLI + "test_cli_check_rejects_malformed_table_json["
ALGEBRA_FILE_CASES = ("misspelt-pair-bound", "builtin-pair-bound", "builtin-structure", "unknown-claim", "row-note")


class Mutant:
    def __init__(self, name: str, file: str, old: str, new: str, tests: list[str]):
        self.name, self.file, self.old, self.new, self.tests = name, file, old, new, tests


MUTANTS = [
    Mutant(
        "convolve-keeps-zero-terms", "algebra.py",
        "                t = x * y\n                if not t:\n                    continue\n",
        "                t = x * y\n",
        [KERNEL + "test_power_basis_mul_examples[underflow]"],
    ),
    Mutant(
        "convolve-keeps-cancelled-keys", "algebra.py",
        "                    t = acc[k] + t\n                    if not t:\n                        del acc[k]\n"
        "                        continue\n",
        "                    t = acc[k] + t\n",
        [KERNEL + "test_power_basis_mul_examples[cancel-and-return]",
         KERNEL + "test_power_basis_mul_examples[negative-exponents]"],
    ),
    Mutant(
        "convolve-sorted-keys", "algebra.py",
        "return {to_index(k): t for k, t in acc.items()}",
        "return {to_index(k): acc[k] for k in sorted(acc)}",
        [KERNEL + "test_power_basis_mul_examples[cancel-and-return]",
         KERNEL + "test_power_basis_mul_examples[negative-exponents]"],
    ),
    Mutant(
        "split-unscaled-numerators", "ring.py",
        "nums[k] = x._numerator * (d // x._denominator)",
        "nums[k] = x._numerator",
        [KERNEL + "test_exact_apply_is_chained_sum",
         KERNEL + "test_exact_mul_is_chained_sum",
         DIFFERENTIAL],
    ),
    Mutant(
        "column-sum-keeps-zero-terms", "ring.py",
        "                t = s * x\n                if not t:\n                    continue\n",
        "                t = s * x\n",
        [COLUMNS + "f64-underflow-apply]", COLUMNS + "f64-underflow-tpoly_apply]"],
    ),
    Mutant(
        "column-sum-keeps-cancelled-keys", "ring.py",
        "                    continue\n                if k in acc:\n                    t = acc[k] + t\n"
        "                    if not t:\n                        del acc[k]\n                        continue\n",
        "                    continue\n                if k in acc:\n                    t = acc[k] + t\n",
        [COLUMNS + f"{b}-cancel-and-return-{op}]" for b in ("int", "f64") for op in ("apply", "tpoly_apply")],
    ),
    Mutant(
        "rat-column-sum-keeps-cancelled-keys", "ring.py",
        "                t = s * (x._numerator * (d // x._denominator))\n                if k in acc:\n"
        "                    t = acc[k] + t\n                    if not t:\n                        del acc[k]\n"
        "                        continue\n",
        "                t = s * (x._numerator * (d // x._denominator))\n                if k in acc:\n"
        "                    t = acc[k] + t\n",
        [COLUMNS + "rat-cancel-and-return-apply]", COLUMNS + "rat-cancel-and-return-tpoly_apply]"],
    ),
    Mutant(
        "rat-column-sum-unscaled-entries", "ring.py",
        "t = s * (x._numerator * (d // x._denominator))",
        "t = s * x._numerator",
        [COLUMNS + f"rat-{case}-{op}]" for case in ("denominators", "cancel-and-return")
         for op in ("apply", "tpoly_apply")],
    ),
    Mutant(
        "rat-column-sum-unscaled-columns", "ring.py",
        "            if d != den:\n                s *= den // d\n",
        "",
        [COLUMNS + "rat-denominators-apply]", COLUMNS + "rat-denominators-tpoly_apply]"],
    ),
    Mutant(
        "combine-keeps-zero-terms", "hamel.py",
        "            x = s * n\n            if not x:\n                continue\n",
        "            x = s * n\n",
        [COLUMNS + "f64-underflow-compose]"],
    ),
    Mutant(
        "combine-keeps-cancelled-keys", "hamel.py",
        "            if k in acc:\n                x = acc[k] + x\n                if not x:\n"
        "                    del acc[k]\n                    continue\n            acc[k] = x\n    return den, acc\n",
        "            if k in acc:\n                x = acc[k] + x\n            acc[k] = x\n    return den, acc\n",
        [COLUMNS + f"{b}-cancel-and-return-compose]" for b in ("int", "rat", "f64")],
    ),
    Mutant(
        "combine-unscaled-parts", "hamel.py",
        "        if d != den:\n            s *= den // d\n",
        "",
        [COLUMNS + "rat-denominators-compose]", COLUMNS + "rat-cancel-and-return-compose]"],
    ),
    Mutant(
        "compose-drops-entry-denominators", "hamel.py",
        "parts.append((p, (q * form[0], form[1])))",
        "parts.append((p, form))",
        [COLUMNS + "rat-denominators-compose]", COLUMNS + "rat-cancel-and-return-compose]"],
    ),
    # three checks made by hand in earlier changes: an unreduced quotient (g = 1
    # in the Fraction builder), a running sum not rescaled at a new denominator,
    # and an entry that violates the pair bound kept as checked
    Mutant(
        "rat-coords-unreduced", "ring.py",
        "                g = gcd(n, den)\n",
        "                g = 1\n",
        [KERNEL + "test_rational_coords_builds_reduced_fractions",
         KERNEL + "test_coords_inverts_split[rat]",
         KERNEL + "test_exact_apply_is_chained_sum",
         COLUMNS + "rat-denominators-apply]"],
    ),
    # the Scalar builders of int and f64 results: a float sum or product that
    # overflowed is rejected, and one that underflowed to 0.0 is not stored
    Mutant(
        "f64-coords-skips-finite-check", "ring.py",
        "        self._check_sums(form[1].values())\n        return {k: x for",
        "        return {k: x for",
        F64_OVERFLOW[1:] + [CLI + "test_cli_f64_eval_overflow_exits_2[v*v-flags2]"],
    ),
    Mutant(
        "coords-keeps-zero", "ring.py",
        "for k, x in form[1].items() if x}",
        "for k, x in form[1].items()}",
        [KERNEL + "test_float_tensor_pure_drops_underflow", KERNEL + "test_coords_inverts_split[f64]",
         KERNEL + "test_coords_inverts_split[int]"],
    ),
    Mutant(
        "mul-form-drops-rescale", "algebra.py",
        "                    acc = {k: n * m for k, n in acc.items()}\n",
        "",
        [KERNEL + "test_mul_rescales_across_new_denominators",
         KERNEL + "test_exact_mul_is_chained_sum"],
    ),
    Mutant(
        "rows-store-violating-entry", "algebra.py",
        "        if self.pair_bound is not None:\n",
        "        d, nums = self.backend._split(entry._raw)\n        row[j] = d, tuple(nums.items())\n"
        "        if self.pair_bound is not None:\n",
        [KERNEL + f"test_pair_bound_violation_raises_on_every_mul[backend{i}]" for i in range(3)],
    ),
    Mutant(
        "below-accepts-n", "algebra.py",
        "    while r >= n:\n",
        "    while r > n:\n",
        DRAWS + [DIFFERENTIAL],
    ),
    Mutant(
        "below-bits-of-n-minus-1", "algebra.py",
        "    k = n.bit_length()\n",
        "    k = (n - 1).bit_length()\n",
        DRAWS + [DIFFERENTIAL],
    ),
    # check_laws applies _below's rule inline: at a power-of-two width an index draw reads width.bit_length() bits
    Mutant(
        "rand-form-index-bits-of-width-minus-1", "algebra.py",
        "        k = width.bit_length()\n",
        "        k = (width - 1).bit_length()\n",
        LAWS,
    ),
    Mutant(
        "rand-form-index-before-scalar", "algebra.py",
        "            scalar = self._rand_scalar(bits)\n"
        "            i = bits(k)\n            while i >= width:\n                i = bits(k)\n",
        "            i = bits(k)\n            while i >= width:\n                i = bits(k)\n"
        "            scalar = self._rand_scalar(bits)\n",
        LAWS + [DIFFERENTIAL],
    ),
    Mutant(
        "rand-form-keeps-zero-draws", "algebra.py",
        "            if p:\n                nums[i] = p * (den // q)\n",
        "            if True:\n                nums[i] = p * (den // q)\n",
        LAWS + [DIFFERENTIAL],
    ),
    Mutant(
        "rand-form-lcm-of-last-denominator", "algebra.py",
        "                den = lcm(den, q)\n",
        "                den = q\n",
        LAWS[:1] + [DIFFERENTIAL],  # only rat draws denominators
    ),
    # each law row draws its arguments in order, and a counterexample shows the claimed law's defect
    Mutant(
        "law-draw-order", "algebra.py",
        '("scalar_left", "duv", lambda t, d, u, v: (',
        '("scalar_left", "udv", lambda t, u, d, v: (',
        LAWS,
    ),
    Mutant(
        "law-defect-dropped", "algebra.py",
        "parts.append((defect, getattr(self, defect)(*values)))",
        "pass",
        LAWS + [DIFFERENTIAL],
    ),
    Mutant(
        "mass-unreduced", "ring.py",
        "        g = gcd(n, d)\n",
        "        g = 1\n",
        [RING + "test_rational_mass_is_a_reduced_fraction", GROUPS + "1]",
         RING + "test_truncate_sums_a_fraction_subclass_tail[rat]"],
    ),
    Mutant(
        "mass-signed-numerators", "ring.py",
        "n = abs(x._numerator)",
        "n = x._numerator",
        [RING + "test_mass_over_64_distinct_prime_denominators_is_the_chained_sum",
         RING + "test_rational_mass_is_a_reduced_fraction",
         RING + "test_truncate_sums_a_fraction_subclass_tail[rat]"],
    ),
    Mutant(
        "mass-drops-ints", "ring.py",
        "        d, n = 1, whole\n",
        "        d, n = 1, 0\n",
        [GROUPS + f"{g}]" for g in (1, 2, 9)]
        + [RING + "test_mass_over_64_distinct_prime_denominators_is_the_chained_sum",
           RING + "test_rational_mass_is_a_reduced_fraction"],
    ),
    Mutant(
        "mass-join-over-product", "ring.py",
        "                e //= g\n",
        "",
        [GROUPS + f"{g}]" for g in (2, 5, 9)] + [RING + "test_rational_mass_is_a_reduced_fraction"],
    ),
    Mutant(
        "mass-join-coprime-unscaled", "ring.py",
        "n = n * e + m * d\n",
        "n = n * e + m\n",
        [RING + "test_mass_over_64_distinct_prime_denominators_is_the_chained_sum"],
    ),
    # the exact norm arithmetic on Fraction slots: each result is reduced, as the operators' are
    # one slot add serves norm_add and the rat merge behind + and -
    Mutant(
        "slot-add-unreduced", "ring.py",
        "    g = gcd(t, g)\n",
        "    g = 1\n",
        [RING + "test_exact_norm_arithmetic_is_the_operators", MERGES + "rat]",
         MERGE_EXAMPLES + "rat-equal]", MERGE_EXAMPLES + "rat-partly-shared]"],
    ),
    Mutant(
        "norm-mul-one-cross-gcd", "ring.py",
        "g, h = gcd(na, db), gcd(nb, da)",
        "g, h = gcd(na, db), 1",
        [RING + "test_exact_norm_arithmetic_is_the_operators"],
    ),
    # + and - are one merge: a cancelled sum is deleted, a float sum that overflowed raises,
    # and rat negation keeps its sign
    Mutant(
        "merge-keeps-cancelled-sum", "ring.py",
        "                y = out[k] + y\n                if not y:\n                    del out[k]\n"
        "                    continue\n",
        "                y = out[k] + y\n",
        [MERGES + "int]", MERGES + "f64]", MERGE_EXAMPLES + "int-cancel]", MERGE_EXAMPLES + "f64-cancel]"],
    ),
    Mutant(
        "rat-merge-keeps-cancelled-sum", "ring.py",
        "                if not y._numerator:\n                    del out[k]\n                    continue\n",
        "",
        [MERGES + "rat]", MERGE_EXAMPLES + "rat-cancel]"],
    ),
    Mutant(
        "f64-merge-skips-finite-check", "ring.py",
        "            out[k] = y\n        self._check_sums(out.values())\n",
        "            out[k] = y\n",
        [F64_OVERFLOW[0], MERGE_EXAMPLES + "f64-overflow]", MERGE_EXAMPLES + "f64-overflow-sub]"]
        + [CLI + f"test_cli_f64_eval_overflow_exits_2[{case}]" for case in ("v+v-flags0", "(v+v)-(v+v)-flags1")],
    ),
    Mutant(
        "rat-neg-drops-sign", "ring.py",
        "_rational(-x._numerator, x._denominator)",
        "_rational(x._numerator, x._denominator)",
        [MERGES + "rat]", MERGE_EXAMPLES + "rat-cancel]"],
    ),
    # the constructors' exact-type pass: it stores only what the checked loop stores unchanged
    Mutant(
        "exact-pass-accepts-bool-keys", "ring.py",
        "if type(k) is not int or k < 0 or type(x) is not exact:",
        "if not isinstance(k, int) or k < 0 or type(x) is not exact:",
        [PASS + f"{b}-bool-key]" for b in ("int", "f64")],
    ),
    Mutant(
        "rat-exact-pass-accepts-bool-keys", "ring.py",
        "if type(k) is not int or k < 0 or type(x) is not Fraction:",
        "if not isinstance(k, int) or k < 0 or type(x) is not Fraction:",
        [PASS + "rat-bool-key]"],
    ),
    Mutant(
        "exact-pass-keeps-zero", "ring.py",
        "            if x:\n                out[k] = x\n",
        "            out[k] = x\n",
        [PASS + f"{b}-zero]" for b in ("int", "f64")],
    ),
    Mutant(
        "rat-exact-pass-keeps-zero", "ring.py",
        "            if x._numerator:\n                out[k] = x\n",
        "            out[k] = x\n",
        [PASS + "rat-zero]"],
    ),
    Mutant(
        "f64-exact-pass-keeps-nonfinite", "ring.py",
        "                out[k] = x\n        self._check_sums(out.values())\n",
        "                out[k] = x\n",
        [PASS + "f64-nonfinite]"],
    ),
    # the constructors' checked loop: each must still reject or drop what it always did
    Mutant(
        "clean-key-skips-index", "hamel.py",
        "        key = index(key)\n",
        "",
        [EDGES + f"{c}-{k}]" for c in RAW_CONSTRUCTORS for k in ("negative-key", "bool-key")],
    ),
    Mutant(
        "clean-scalar-skips-operand", "hamel.py",
        "x = _operand(c, Scalar, backend, \"coefficient\").value if",
        "x = c.value if",
        [EDGES + f"{c}-other-backend-{k}]" for c in RAW_CONSTRUCTORS for k in ("scalar", "zero")],
    ),
    Mutant(
        "clean-keeps-zero", "hamel.py",
        "        if x:\n            out[key] = x\n",
        "        out[key] = x\n",
        [VALUES + f"test_constructors_drop_every_zero[{c}]" for c in RAW_CONSTRUCTORS],
    ),
    Mutant(
        "clean-trusts-subclass-is-zero", "hamel.py",
        "        if x:\n            out[key] = x\n",
        "        if x or isinstance(c, Scalar) and not c.is_zero():\n            out[key] = x\n",
        [VALUES + f"test_constructors_drop_the_zero_of_a_scalar_subclass[{k}-{b}]"
         for k in VIEW_KINDS for b in BACKENDS],
    ),
    # the basis builders skip the constructors, so they check the index themselves
    Mutant(
        "basis-skips-index-check", "hamel.py",
        "_table(HamelVector, backend, {_check_index(i):",
        "_table(HamelVector, backend, {i:",
        [KERNEL + f"test_basis_builders_check_the_index[{c}-{k}]"
         for c in ("vector", "map-row") for k in ("negative", "bool", "str")],
    ),
    Mutant(
        "nest-checks-first-argument-only", "hamel.py",
        "    for x in xs:\n",
        "    for x in xs[:1]:\n",
        [f"tests/test_hamel.py::test_poly_apply_checks_every_argument_before_reading_the_nest[{case}]"
         for case in ("junk", "other-backend", "zero-first")],
    ),
    Mutant(
        "norm-check-accepts-negative-fraction", "ring.py",
        "if type(x) is Fraction and x._numerator >= 0 or",
        "if type(x) is Fraction or",
        [RING + "test_exact_bound_checks"],
    ),
    # the pair-bound check reads the lo end of the mass, and one nonzero term among zeros is not rounded
    Mutant(
        "pair-check-reads-upper-mass", "algebra.py",
        "_mass_bounds(entry._raw.values())[0]",
        "_mass_bounds(entry._raw.values())[1]",
        [KERNEL + "test_float_pair_bound_check_under_one[at-bound]"],
    ),
    Mutant(
        "mass-bounds-rounds-single-term", "ring.py",
        "if sum(map(bool, values)) > 1:",
        "if sum(map(bool, values)) > 0:",
        [KERNEL + "test_float_pair_bound_check_reads_one_entry_exactly"],
    ),
    Mutant(
        "f64-mass-counts-zero-terms", "ring.py",
        "if sum(map(bool, values)) > 1:",
        "if total and len(values) > 1:",
        ["tests/test_schauder.py::test_float_mass_of_one_nonzero_term_among_zeros_is_exact",
         RING + "test_backend_method_outcomes_are_pinned[_mass_bounds([0, Fraction(3, 2)],)]"],
    ),
    # tables hold raw values: the coords view reads as the dict of Scalars, and kernels never read it
    Mutant(
        "view-eq-ignores-backend", "hamel.py",
        "return self._raw == other._raw and (self._backend is other._backend or not self._raw)",
        "return self._raw == other._raw",
        [VALUES + f"test_coords_views_compare_as_their_dicts_across_backends[{k}]" for k in VIEW_KINDS],
    ),
    Mutant(
        "view-repr-of-raw-values", "hamel.py",
        "return repr(dict(self.items()))",
        "return repr(self._raw)",
        [VALUES + f"test_coords_view_reads_as_the_dict_of_scalars[{k}-{b}]" for k in VIEW_KINDS for b in BACKENDS]
        + [VALUES + f"test_value_class_behaviour[{c}]" for c in ("HamelVector", "DualFunctional", "TensorElement")],
    ),
    Mutant(
        "l1-reads-view", "hamel.py",
        "return self.backend._mass(self._raw.values())",
        "return self.backend._mass([c.value for c in self.coords.values()])",
        [KERNEL + f"test_kernels_build_no_scalar_and_no_view[{b}]" for b in BACKENDS],
    ),
    # a token's column counts from its line's start, and a label's newlines start lines too
    Mutant(
        "lex-column-ignores-line-start", "cli.py",
        "ch, col, end = text[pos], pos - start + 1, pos + 1",
        "ch, col, end = text[pos], pos + 1, pos + 1",
        [CLI + "test_parse_error_line_tracking", POSITION],
    ),
    Mutant(
        "label-newline-not-counted", "cli.py",
        "            line += text.count(\"\\n\", pos, end)\n"
        "            start = max(start, text.rfind(\"\\n\", pos, end) + 1)\n",
        "",
        [POSITION],
    ),
    # each bracket or unary minus nests one level, for the node it opens only
    Mutant(
        "nesting-depth-not-restored", "cli.py",
        "        node = build(tok)\n        self.depth -= 1\n",
        "        node = build(tok)\n",
        [CLI + "test_parse_nesting_cap"],
    ),
    # a chain folds from the left, each operator with the operand after it
    Mutant(
        "chain-fold-shifts-operands", "cli.py",
        "for op, operand in zip(node.ops, node.operands[1:]):",
        "for op, operand in zip(node.ops, node.operands):",
        [CLI + "test_eval_scalar_promotion_and_scaling", CLI + "test_eval_chain_folds_its_operands_in_order"],
    ),
    Mutant(
        "chain-fold-swaps-operands", "cli.py",
        "value = _binary(op, value, _eval(operand, fixture, bindings), fixture)",
        "value = _binary(op, _eval(operand, fixture, bindings), value, fixture)",
        [CLI + "test_eval_chain_folds_its_operands_in_order"],
    ),
    # the command table's parser keeps argparse's grammar and messages
    Mutant(
        "parser-skips-required", "cli.py",
        "if opt.required and values[_dest(opt.name)] is None]",
        "if False]",
        [USAGE + f"{case}]" for case in ("eval-required-both", "eval-required-expr", "dual-required")]
        + [DIFFERENTIAL],
    ),
    Mutant(
        "parser-skips-choice-check", "cli.py",
        "    if opt.check is not None and text not in opt.check:",
        "    if False:",
        [USAGE + "bad-choice]", USAGE + "empty-choice]", DIFFERENTIAL],
    ),
    Mutant(
        "parser-keeps-int-as-string", "cli.py",
        "            return int(text)",
        "            return text",
        [USAGE + "bad-int]", USAGE + "bad-int-equals]", CLI + "test_cli_int_options_are_ints", DIFFERENTIAL],
    ),
    Mutant(
        "parser-takes-ambiguous-prefix", "cli.py",
        "    if len(matches) > 1:",
        "    if len(matches) > 9:",
        [USAGE + f"{case}]" for case in ("ambiguous", "ambiguous-equals", "ambiguous-empty-prefix")]
        + [DIFFERENTIAL],
    ),
    Mutant(
        "parser-help-exits-2", "cli.py",
        "    if parsed is None:\n        return 0",
        "    if parsed is None:\n        return 2",
        [CLI + f"test_cli_help_exits_0_and_names_every_option[-h-{c}]" for c in ("None", "eval", "check")]
        + [DIFFERENTIAL],
    ),
    # _main alone maps exceptions to exit codes, and _read alone refuses a tail to an exact class
    Mutant(
        "check-maps-its-own-errors", "cli.py",
        "    report = fixture.table.check_laws(trials=args.trials, max_index=max_index, seed=args.seed)\n",
        "    try:\n"
        "        report = fixture.table.check_laws(trials=args.trials, max_index=max_index, seed=args.seed)\n"
        "    except ValueError as e:\n"
        "        raise CliError(str(e)) from None\n",
        [CLI + "test_cli_check_pair_bound_violation_exits_1", DIFFERENTIAL],
    ),
    # the process entry runs the atexit handlers, flushes stdout and exits with main's code
    Mutant(
        "entry-skips-freeze", "cli.py",
        "    code = main()\n    atexit._run_exitfuncs()\n",
        "    code = main()\n",
        [CLI + "test_cli_entry_runs_atexit_handlers_after_freezing"],
    ),
    Mutant(
        "entry-skips-flush", "cli.py",
        "        sys.stdout.flush()\n        sys.stderr.flush()\n",
        "        sys.stderr.flush()\n",
        [CLI + "test_cli_entry_runs_atexit_handlers_after_freezing"],
    ),
    Mutant(
        "entry-exits-0", "cli.py",
        "    os._exit(code)",
        "    os._exit(0)",
        [ENTRY + f"{code}]" for code in (1, 2)] + [CLI + "test_cli_subprocess_determinism"],
    ),
    # a write to a closed stdout fails inside main, which sends what is left to devnull
    Mutant(
        "main-keeps-stdout-buffered", "cli.py",
        '        print(end="", flush=True)',
        "        pass",
        [CLI + "test_cli_closed_stdout_exits_2_without_traceback[buffered]"],
    ),
    Mutant(
        "broken-pipe-keeps-stdout", "cli.py",
        "        os.dup2(devnull, sys.stdout.fileno())\n",
        "",
        [CLI + "test_cli_closed_stdout_exits_2_without_traceback[buffered]"],
    ),
    # + joins an operand of its own class, backend and shape: a tensor's arity
    Mutant(
        "linear-join-skips-shape", "hamel.py",
        "            if getattr(other, name) != getattr(self, name):",
        "            if False:",
        [VALUES + "test_linear_values_join_operands_of_their_class_backend_and_shape[tensor]",
         "tests/test_tensor.py::test_arity_mismatch_rejected"],
    ),
    # a table checks the indices of every pair: each entries key, and a lookup that hits its memo
    Mutant(
        "lookup-memo-hit-skips-index", "algebra.py",
        "        _check_index(i)\n        _check_index(j)\n        key = (i, j)\n",
        "        key = (i, j)\n",
        [LOOKUP + f"{case}-TypeError]" for case in
         ("polynomial-False-0", "polynomial-0.0-0", "free:1-0-False", "extensional-0-0.0")],
    ),
    Mutant(
        "table-entries-skip-key-check", "algebra.py",
        "{(_check_index(i), _check_index(j)): _entry(backend, e)",
        "{(i, j): _entry(backend, e)",
        [ALGEBRA + f"test_table_entries_are_keyed_by_basis_index_pairs[{case}]" for case in ("negative", "bool", "str")],
    ),
    # a table's fields are fixed at construction; only its rule may be rewrapped
    Mutant(
        "table-field-assignable", "algebra.py",
        '        if name != "rule":\n',
        '        if name == "backend":\n',
        [ALGEBRA + "test_table_fields_are_fixed_but_rule"],
    ),
    Mutant(
        "table-to-data-skips-key-check", "algebra.py",
        "sorted((_check_index(i), _check_index(j)) for i, j in table.entries)",
        "sorted(table.entries)",
        [ALGEBRA + f"test_table_to_data_refuses_keys_its_reader_rejects[{case}]"
         for case in ("negative", "bool", "str")],
    ),
    # a - b and d * a are written once, for every linear value; negation keeps a tail
    Mutant(
        "linear-sub-adds", "hamel.py",
        "        return self + (-other)",
        "        return self + other",
        [LINEAR + f"{kind}-{b}]" for kind in ("vector", "map", "tail-vector", "tail-map") for b in ("int", "rat")]
        + [TAIL_DIFFERENCES, DIFFERENTIAL],
    ),
    Mutant(
        "certified-neg-drops-tail", "schauder.py",
        "return self._make(-self._part, self.tail)",
        "return self._make(-self._part, self.backend.norm_zero)",
        [LINEAR + f"{kind}-{b}]" for kind in ("tail-vector", "tail-map") for b in ("int", "rat")]
        + [TAIL_DIFFERENCES, DIFFERENTIAL],
    ),
    # float64 reads JSON numbers, but not JSON booleans
    Mutant(
        "f64-parse-takes-bool", "ring.py",
        "return _finite(_float(_not_bool(text)))",
        "return _finite(_float(text))",
        [RING + "test_backend_method_outcomes_are_pinned[parse(True,)]",
         CLI + "test_cli_malformed_file_stderr[norm-bool-f64]"],
    ),
    # every wire reader refuses a field its format does not define, through one rule; a tail reader reads
    # its part's fields and its own "tail" as one record
    Mutant(
        "exact-reader-keeps-unknown-fields", "hamel.py",
        "        if name not in required and name not in optional:\n",
        "        if False:\n",
        [UNKNOWN_FIELDS + f"{kind}-{field}]" for kind in READERS for field in FIELDS
         if not (kind.startswith("tail-") and field.startswith("tail"))]
        + [CLI + "test_cli_eval_let_rejects_tail_file"]
        + [CLI + f"test_cli_exact_commands_reject_tail_files[{case}]"
           for case in ("dual-vector", "dual-functional", "tensor-pure", "tensor-via-vector", "tensor-via-map")]
        + [ALGEBRA_FILES + f"{case}]" for case in ALGEBRA_FILE_CASES],
    ),
    Mutant(
        "tail-reader-passes-its-tail-on", "schauder.py",
        "        part = cls._part_cls._from_record(backend, *fields)\n",
        "        part = cls._part_cls.from_data(backend, data)\n",
        [UNKNOWN_FIELDS + f"{kind}-{field}]" for kind in ("tail-vector", "tail-map") for field in FIELDS[2:]]
        + [HAMEL + f"test_tail_readers_read_part_and_tail_as_one_record[{kind}]"
           for kind in ("tail-vector", "tail-map")],
    ),
    Mutant(
        "algebra-reader-keeps-unknown-fields", "algebra.py",
        '        data, "algebra data", ("structure",),',
        '        {k: data[k] for k in ("structure", "name", "pairBound", "claims") if k in data}\n'
        '        if isinstance(data, dict) else data, "algebra data", ("structure",),',
        [UNKNOWN_FIELDS + f"algebra-{field}]" for field in FIELDS] + [ALGEBRA_FILES + "misspelt-pair-bound]"],
    ),
    Mutant(
        "fixture-reader-keeps-unknown-fields", "catalog.py",
        '_wire_record(data, "builtin reference", ("builtin",))[0]',
        'data["builtin"]',
        [UNKNOWN_FIELDS + f"builtin-{field}]" for field in FIELDS]
        + [ALGEBRA_FILES + f"{case}]" for case in ("builtin-pair-bound", "builtin-structure")],
    ),
    # every int falg reads is checked by one rule, each against its own floor: a count of trials, an arity,
    # a letter count
    Mutant(
        "check-index-ignores-least", "hamel.py",
        "    if i < least:\n",
        "    if i < 0:\n",
        [HAMEL + f"test_every_integer_read_follows_one_rule[{site}-below-floor]"
         for site in ("trials", "tensor-arity", "poly-arity", "tail-poly-arity", "letter-count")]
        + ["tests/test_algebra.py::test_check_laws_rejects_zero_trials"],
    ),
    # the basis builders store the backend's one unit; int's small 1 is shared either way
    Mutant(
        "basis-vector-own-unit", "hamel.py",
        "return _table(HamelVector, backend, {_check_index(i): backend._unit})",
        "return _table(HamelVector, backend, {_check_index(i): backend.from_int(1)})",
        [VALUES + f"test_values_keep_no_attribute_dict_and_share_the_unit[{b}]" for b in ("rat", "f64")],
    ),
    # an error message quotes at most 40 characters of caller text
    Mutant(
        "excerpt-uncut", "ring.py",
        "    if not isinstance(text, str) or len(text) <= 40:\n        return repr(text)\n",
        "    return repr(text)\n",
        [CLI + f"test_cli_long_token_echo_is_short[{case}]" for case in LONG_ECHOES]
        + [CLI + "test_cli_long_max_index_env_echo_is_short"],
    ),
    # free words concatenate in bijective base k: the digits of j follow those of i
    Mutant(
        "free-word-length", "catalog.py",
        "i * k ** length(j) + j",
        "i * k ** length(i) + j",
        [CATALOG + f"test_free_index_rule_matches_string_rule[{k}]" for k in (2, 3, 26)]
        + [CATALOG + "test_free_concatenation_product", CATALOG + "test_fixtures_pass_their_claimed_laws[free:2]",
           DIFFERENTIAL],
    ),
    # every builtin claims associativity, and check reports the claim
    Mutant(
        "builtin-claims", "catalog.py",
        "claims_associative=True",
        "claims_associative=False",
        [CLI + "test_cli_check_quaternion", CLI + "test_cli_check_json",
         "tests/test_acceptance.py::test_criterion_10_cli_golden",
         "tests/test_tensor.py::test_map_via_tensor_quaternion_sandwich", DIFFERENTIAL],
    ),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "scripts"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _failed(tree: Path, tests: list[str]) -> set[str]:
    """The named tests that do not pass in tree: failed, errored or not run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    passed = set(re.findall(r"^PASSED (.+?)\s*$", proc.stdout, re.M))
    return {t for t in tests if t not in passed}


def _mutate(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "falg" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise LookupError(f"{mutant.name}: snippet occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutant {unknown[0]!r}; one of {', '.join(known)}")
    chosen = [known[n] for n in args.names] or MUTANTS
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        named = sorted({t for m in chosen for t in m.tests})
        broken = _failed(base, named)
        if broken:
            print(f"unmutated tree fails {len(broken)} named tests: {', '.join(sorted(broken))}")
            return 1
        survivors = 0
        for m in chosen:
            tree = Path(tmp) / m.name
            _copy_tree(tree)
            try:
                _mutate(tree, m)
            except LookupError as e:
                print(f"error: {e}")
                survivors += 1
                continue
            failed = _failed(tree, m.tests)
            missed = [t for t in m.tests if t not in failed]
            if missed:
                survivors += 1
                print(f"survived: {m.name} passes {', '.join(missed)}")
            else:
                print(f"caught: {m.name} ({len(m.tests)} tests fail)")
            shutil.rmtree(tree)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
