"""Mutation checks: each mutant must fail the tests named for it.

A mutant replaces one exact piece of source text in one module, in a copy
of `src/`, and the tests it names run against that copy (with ``--slow``,
so a slow parameter may be named).  The text must occur exactly once, so
an entry that no longer matches the source fails loudly instead of
testing nothing.  A mutant is killed when pytest reports failing tests,
or when they run past the time limit; it survives when they pass, and any
other pytest outcome (a test id that does not exist, say) is an error.
Stdlib only:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones
    python tests/mutants.py --list

The exit code is 0 only when every mutant run was killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 300

JACOBI = "tests/test_jacobi_core.py::"
WEIGHTS = "tests/test_weights.py::"
SPACE = "tests/test_space.py::"
CANON = "tests/test_canon.py::"
MASS = "tests/test_mass.py::"
ALEXANDER = "tests/test_alexander.py::"
BCR = "tests/test_bcr_core.py::"
CLI = "tests/test_serialize_cli.py::"
BRIDGE = "tests/test_bridge.py::"
MEMORY = "tests/test_memory.py::"
PSI = "tests/test_psi.py::"

# (name, module under src/knotweights, source text, replacement, test ids)
MUTANTS = (
    ("edge-list sign reads the wrong end",
     "jacobi.py",
     "        halves[b].append((i, 1))\n    return halves\n",
     "        halves[b].append((i, 0))\n    return halves\n",
     [JACOBI + "test_edge_list_class_matches_class_of[3]"]),
    ("sign parity misses one rotation",
     "jacobi.py",
     "if a < b < c or b < c < a or c < a < b:",
     "if a < b < c or b < c < a:",
     [JACOBI + "test_flip_negates_the_sign_at_every_vertex[2]",
      WEIGHTS
      + "test_values_follow_the_orientation_sign_under_relabeling[2]"]),
    ("kept generators not conjugated into canonical labels",
     "jacobi.py",
     "[tuple(perm[g[v]] for v in inv) for g in gens]",
     "[tuple(g) for g in gens]",
     [JACOBI + "test_kept_automorphisms_match_a_fresh_search[3]"]),
    ("one-pass orientation lists half-edges descending",
     "jacobi.py",
     "    halves = [[] for _ in range(nv)]\n"
     "    for i, (a, b) in enumerate(edges):",
     "    halves = [[] for _ in range(nv)]\n"
     "    for i, (a, b) in reversed(list(enumerate(edges))):",
     [JACOBI + "test_representative_orientation_is_the_default[2]"]),
    ("in-place multigraphs skip a partner",
     "enumerate.py",
     "frame[2] = j + 1",
     "frame[2] = j + 2",
     [JACOBI + "test_multigraphs_match_the_concatenating_generator[3]"]),
    ("multigraph search also drops the closed candidates of one component",
     "enumerate.py",
     "if pivot > 0 and pivot >= free_start and need == orig[pivot]:",
     "if pivot >= free_start and need == orig[pivot]:",
     [JACOBI + "test_searched_candidates_are_line_only_or_one_closed"
      "_component[1]"]),
    ("closed candidates kept only with vertex 0 off every parallel pair",
     "enumerate.py",
     "len(set(edges)) == len(edges) or edges[0] == edges[1]",
     "len(set(edges)) == len(edges) or edges[0] != edges[1]",
     [MASS + "test_class_lists_meet_the_mass_formula[3]"]),
    ("swap test also skips ties",
     "enumerate.py",
     "                        < [x for x in at_i if x != j]):",
     "                        <= [x for x in at_i if x != j]):",
     [JACOBI + "test_swap_test_matches_the_relabeling_oracle[3]"]),
    ("swap test compares unjoined vertices the wrong way",
     "enumerate.py",
     "elif at_j < at_i:",
     "elif at_j > at_i:",
     [JACOBI + "test_swap_test_matches_the_relabeling_oracle[3]"]),
    ("leaf positions restart at each line position",
     "conway.py",
     "            for i, v in enumerate(line):\n"
     "                pos[v] = i\n",
     "            i = 0\n"
     "            for v in line:\n"
     "                pos[v] = i\n"
     "                i = i + 1 if v in cyc else 0\n",
     [WEIGHTS + "test_kernel_matches_the_oracle_on_every_class_through"
      "_degree_three"]),
    ("wc' cycle sum without the sign (-1)^(k-1)",
     "conway.py",
     "    return Fraction(-sum(c * _cycles(chords)",
     "    return Fraction(sum(c * _cycles(chords)",
     [WEIGHTS + "test_cumulant_matches_the_partition_oracle[4]"]),
    ("wc' cycle sum closes on S transposed",
     "conway.py",
     "    return -sum(s * sums[-1].get(j, 0) for _, j, s in steps[0])",
     "    return sum(s * sums[-1].get(j, 0) for _, j, s in steps[0])",
     [WEIGHTS + "test_chord_diagrams_wc_is_det_and_wc_prime_the_cycle_sum"
      "[4]"]),
    ("wc' cycle sum counts each cycle in both directions",
     "conway.py",
     "    return -sum(s * sums[-1].get(j, 0) for _, j, s in steps[0])",
     "    return -2 * sum(s * sums[-1].get(j, 0) for _, j, s in steps[0])",
     [WEIGHTS + "test_random_chord_diagrams_wc_prime_is_the_cumulant[8-200]"]),
    ("wc' of odd degree expanded instead of 0 at once",
     "conway.py",
     "d.nv == 0 or d.degree % 2 or d.has_legless_vertex()",
     "d.nv == 0 or d.has_legless_vertex()",
     [WEIGHTS + "test_exact_zeros_expand_nothing"]),
    ("wc without its odd-degree zero",
     "conway.py",
     "if d.degree % 2 or d.has_legless_vertex():",
     "if d.has_legless_vertex():",
     [WEIGHTS + "test_exact_zeros_expand_nothing"]),
    ("wc skips its degree cap",
     "conway.py",
     "    check_degree(d.degree, k_max)\n"
     "    if d.degree % 2 or d.has_legless_vertex():",
     "    if d.degree % 2 or d.has_legless_vertex():",
     [WEIGHTS + "test_wc_checks_the_cap_before_any_zero_or_expansion",
      CLI + "test_cli_weight_respects_the_cap"]),
    ("splice leaves the host's half-edges unmapped",
     "psi.py",
     "            return (emap[e], end)",
     "            return h",
     [PSI + "test_splicing_a_chord_either_way_restores_the_edge"]),
    ("default selection keeps one edge per component",
     "psi.py",
     "for i in edges[:len(comp) // 2])",
     "for i in edges[:1])",
     [PSI + "test_default_selection_sizes"]),
    ("IHX taken at parallel edges too",
     "relations.py",
     "if pairs.count(pair) == 1]",
     "if pairs.count(pair) >= 1]",
     [SPACE + "test_relators_are_stu_at_spanning_sites_and_ihx_beside_chords"
      "[3-50-7]"]),
    ("IHX companion marked in its own labels, not its canonical slots",
     "relations.py",
     "frozenset((perm[a], perm[b]))",
     "frozenset((a, b))",
     [SPACE + "test_relators_are_stu_at_spanning_sites_and_ihx_beside_chords"
      "[3-50-7]"]),
    ("line tokens joined unshifted",
     "jacobi.py",
     "closed_tokens + _shifted(tokens, closed))",
     "closed_tokens + tokens)",
     [SPACE + "test_closed_and_line_keys_join_into_the_class_key[2]"]),
    ("closed components joined unshifted",
     "jacobi.py",
     "tokens += _shifted(own, at)",
     "tokens += own",
     [JACOBI + "test_classes_joined_from_parts_match_a_search_of_every"
      "_candidate[2]"]),
    ("closed components joined unsorted",
     "jacobi.py",
     "closed = sorted(closed, key=lambda rep: rep.record[0][1])",
     "closed = list(closed)",
     [JACOBI + "test_classes_joined_from_parts_match_a_search_of_every"
      "_candidate[5]"]),
    ("drop a block-swap generator",
     "jacobi.py",
     "        if own == before:\n",
     "        if False:\n",
     [MASS + "test_class_lists_meet_the_mass_formula[2]"]),
    ("drop a class: closed parts never repeat a component",
     "enumerate.py",
     "_closed_multisets(closed, k - rep.degree, i)",
     "_closed_multisets(closed, k - rep.degree, i + 1)",
     [MASS + "test_class_lists_meet_the_mass_formula[2]"]),
    ("leg test loosened: an edge between trivalent vertices gives a leg",
     "jacobi.py",
     "            elif uni[b]:\n                legged[a] = True",
     "            else:\n                legged[a] = True",
     [WEIGHTS + "test_legless_classes_expand_to_zero[3]"]),
    ("new rows keep integral Fractions",
     "quotient.py",
     "        if self._fractions:\n            _ints(row)\n",
     "",
     [SPACE + "test_eliminator_keeps_integral_values_as_ints"]),
    ("reduction skips the leads a subtraction brings in",
     "quotient.py",
     "                    if k2 not in terms and k2 in pivots:\n",
     "                    if False:\n",
     [SPACE + "test_reduction_takes_the_leads_a_subtraction_brings_in"]),
    ("splitting extends the relator rows in place",
     "quotient.py",
     "    elim.pivots = dict(elim.pivots)\n",
     "",
     [SPACE + "test_splitting_and_projection_leave_the_relator_rows_alone"
      "[2]"]),
    ("lead taken as the greatest column of a row",
     "quotient.py",
     "        lead = min(terms)\n",
     "        lead = max(terms)\n",
     [SPACE + "test_integer_pivots_match_the_fraction_eliminator[2]"]),
    ("reduce passes a foreign key through",
     "quotient.py",
     "            raise ValueError(\n",
     "            return vec\n            raise ValueError(\n",
     [SPACE + "test_reduce_rejects_a_key_that_is_not_a_class_of_the_degree"
      "[2]"]),
    ("relator term kept under the search's fresh key",
     "relations.py",
     "vec.add_term(_listed(classes, _joined(closed_tokens, term)),\n"
     "                             coeff)",
     "vec.add_term(_joined(closed_tokens, term), coeff)",
     [SPACE + "test_relators_hold_the_class_lists_keys_and_rows_their_ranks"
      "[2]"]),
    ("`kept` skips the pool for edge pairs",
     "jacobi.py",
     "    rep.edges = tuple(map(pooled, rep.edges))\n",
     "",
     [MEMORY + "test_held_parts_are_the_pools[2]"]),
    ("`found` keyed by the search's fresh key",
     "enumerate.py",
     "found[rep.record[0]] = rep\n    for rep in _joined_classes(k):",
     "found[key] = rep\n    for rep in _joined_classes(k):",
     [MEMORY + "test_enumeration_files_each_class_under_its"
      "_representatives_key[2]"]),
    ("`dfs` cycle left in place",
     "canon.py",
     "    dfs = None",
     "    pass",
     [MEMORY + "test_a_searching_canonical_form_leaves_no_garbage"]),
    ("edge ids go unchecked",
     "serialize.py",
     "    _check_ids(edges_rows, \"edges\", \"m\")\n",
     "",
     [CLI + "test_cli_vertex_class_and_id_type_are_checked"
      "[argv1-edge_id_seven]"]),
    ("a bigon is taken with equal signs",
     "alexander.py",
     "if j is None or crossings[j][4] != -s:",
     "if j is None:",
     [ALEXANDER + "test_equal_signs_bound_no_bigon[1]"]),
    ("class search builds its entries without the tags",
     "jacobi.py",
     "entries = [(a, b, tags[i]) for i, (a, b) in enumerate(edges)]",
     "entries = [(a, b, 0) for i, (a, b) in enumerate(edges)]",
     [JACOBI + "test_canonical_key_keeps_the_class_and_the_numbering[2]"]),
    ("generator sign check never returns 0",
     "jacobi.py",
     "            return key, 0, perm, gens\n",
     "            return key, sign, perm, gens\n",
     [JACOBI + "test_canonical_form_matches_the_unpruned_search[2]"]),
    ("Bareiss row swap keeps the sign",
     "alexander.py",
     "            a[k], a[piv] = a[piv], a[k]\n            sign = -sign\n",
     "            a[k], a[piv] = a[piv], a[k]\n",
     [ALEXANDER + "test_bareiss_matches_laplace_on_random_matrices"]),
    ("BCR classes drawn from the greatest rotation",
     "enumerate.py",
     "and word == min(word[i:] + word[:i]",
     "and word == max(word[i:] + word[:i]",
     [BCR + "test_enumeration_matches_the_piece_word_scan[3]"]),
    ("BCR cycle lengths stop at 2k - 1",
     "enumerate.py",
     "for length in range(max(2, k), 2 * k + 1):",
     "for length in range(max(2, k), 2 * k):",
     [MASS + "test_bcr_class_lists_meet_the_burnside_count[3]"]),
    ("BCR key without the rotation minimum",
     "bcr.py",
     "return min(word[i:] + word[:i] for i in range(len(word)))",
     "return word",
     [BCR + "test_word_keys_match_the_directed_search[2]"]),
    ("identity rotation not counted in |Aut|",
     "bcr.py",
     "return sum(word[i:] + word[:i] == word for i in range(len(word)))",
     "return sum(word[i:] + word[:i] == word for i in range(1, len(word)))",
     [BCR + "test_wheel_automorphisms_are_rotations"]),
    ("canonical search visits the greatest children",
     "canon.py",
     "least = min(children)[0]",
     "least = max(children)[0]",
     [CANON + "test_parallel_edges_and_tags"]),
    ("skein join renames the smaller arc",
     "alexander.py",
     "lo, hi = min(x, y), max(x, y)",
     "hi, lo = min(x, y), max(x, y)",
     [ALEXANDER + "test_skein_matches_the_list_recursion_on_the_fixtures"]),
    ("descending base case returns the split-link zero",
     "alexander.py",
     "out = {0: 1} if n_comp == 1 else {}",
     "out = {}",
     [ALEXANDER + "test_descending_diagram_is_the_unknot_by_the_base_case"]),
    ("planarity check passes codes with too few faces",
     "pd.py",
     "if n_faces != len(self) + 2:",
     "if n_faces > len(self) + 2:",
     [ALEXANDER + "test_parse_rejects_non_planar_codes"]),
    ("epsilon drops the trivalent vertices",
     "bridge.py",
     "(len(bcr.external_edges()) + bcr.n_trivalent()) % 2",
     "len(bcr.external_edges()) % 2",
     [BRIDGE + "test_epsilon_values"]),
    ("exp recurrence drops the k weight",
     "series.py",
     "k * a[k] * e[n - k]",
     "a[k] * e[n - k]",
     [ALEXANDER + "test_exp_matches_the_power_loop_on_series_with_odd"
      "_terms"]),
    ("cumulant recursion takes C(n - 1, k)",
     "series.py",
     "comb(n - 1, k - 1)",
     "comb(n - 1, k)",
     [ALEXANDER + "test_log_and_exp_match_the_power_loops_on_the_fixtures"
      "[3_1]"]),
    ("power sums start at n = 1",
     "series.py",
     "for a, m in terms) for n in range(K + 1)]",
     "for a, m in terms) for n in range(1, K + 2)]",
     [ALEXANDER + "test_log_and_exp_match_the_power_loops_on_the_fixtures"
      "[3_1]"]),
    ("substitution divides by n, not n!",
     "series.py",
     "D * factorial(n)",
     "D * (n or 1)",
     [ALEXANDER + "test_log_and_exp_match_the_power_loops_on_the_fixtures"
      "[3_1]"]),
    ("z_k keeps the sign of the cumulant",
     "series.py",
     "Fraction(-kappa[n]",
     "Fraction(kappa[n]",
     [ALEXANDER + "test_log_and_exp_match_the_power_loops_on_the_families"
      "[T(2,3)]"]),
    ("moments not rescaled by the denominator",
     "series.py",
     "D ** (n - 1) * sums[n]",
     "sums[n]",
     [ALEXANDER
      + "test_rational_seifert_polynomial_keeps_its_denominators"]),
    ("cumulants divided by n! alone",
     "series.py",
     "D ** n * factorial(n)",
     "factorial(n)",
     [ALEXANDER
      + "test_log_and_exp_match_the_power_loops_on_random_polynomials"]),
    ("unit check assumes an integer polynomial",
     "series.py",
     "if sums[0] != D:",
     "if sums[0] != 1:",
     [ALEXANDER
      + "test_rational_seifert_polynomial_keeps_its_denominators"]),
    ("conway field read one place off",
     "cli.py",
     'enumerate(out["series"])',
     'enumerate(out["series"], 1)',
     [CLI + "test_cli_conway_field_is_the_expansion[3_1]"]),
)


def mutated_source(name, module, text, replacement, where):
    """Copy `src/` under `where` with one replacement; return the copy."""
    src = where / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "knotweights" / module
    code = path.read_text(encoding="utf-8")
    count = code.count(text)
    if count != 1:
        raise SystemExit(f"mutant {name!r}: the text occurs {count} times "
                         f"in {module}, not once")
    path.write_text(code.replace(text, replacement), encoding="utf-8")
    return src


def run(mutant):
    """'killed', 'survived' or 'error: ...' for one mutant."""
    name, module, text, replacement, tests = mutant
    with tempfile.TemporaryDirectory() as tmp:
        src = mutated_source(name, module, text, replacement, Path(tmp))
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "--slow",
                 "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=LIMIT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {done.returncode}: {' '.join(tail)}"


def main(args):
    if args == ["--list"]:
        for mutant in MUTANTS:
            print(mutant[0])
        return 0
    chosen = [m for m in MUTANTS if not args or m[0] in args]
    unknown = set(args) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"no mutant named {sorted(unknown)}")
        return 2
    bad = 0
    for mutant in chosen:
        outcome = run(mutant)
        bad += outcome != "killed"
        print(f"{outcome:8}  {mutant[0]}")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
