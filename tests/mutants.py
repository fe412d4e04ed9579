"""Mutation ledger: deliberate bugs that named tests must catch.

Each mutant names the file it edits, an exact snippet ``old`` that occurs
there exactly once, its replacement ``new``, and the test ids that must
all fail while the edit is in place.  ``tests/test_mutants.py`` (tier 1)
checks that every snippet still occurs exactly once and that every named
test exists, so a refactor that moves the code updates the ledger with it.

The kill run copies the repository into a temporary directory, applies one
mutant at a time there and runs its tests::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones
    python tests/mutants.py 'writer-*'   # every mutant whose name starts with writer-

It prints one line per mutant and exits 1 if any survives (a listed test
passes) or cannot be judged (pytest reports a usage or collection error).
A surviving mutant is a finding for the next change, never a reason to
delete the entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOLFN = "src/bfmi/boolfn.py"
CHANNEL = "src/bfmi/channel.py"
CLI = "src/bfmi/cli.py"
INIT = "src/bfmi/__init__.py"
KARAMATA = "src/bfmi/karamata.py"
MI = "src/bfmi/mi.py"
VERIFY = "src/bfmi/verify.py"
MI_KERNEL = "src/bfmi/_kernel.py"
ORBIT = "src/bfmi/_orbit.py"
SCAN = "src/bfmi/_scan.py"
KERNEL = "tests/test_mi.py::TestDoubleDoubleKernel::"
DISTINCT = "tests/test_mi.py::TestDistinctRows::"
BLOCKS = "tests/test_mi.py::TestKernelBlocks::"
HAND_BUILT = DISTINCT + "test_hand_built_words_match_the_oracles"
LANES = "tests/test_channel.py::TestJointYZ::test_int64_lanes_match_python_int_inverse"
GOLDEN = "tests/test_golden.py::test_report_bytes_are_pinned"
WRITER = "tests/test_channel.py::TestJointYZContainer::"
VECTOR = "tests/test_verify.py::TestVectorEngine::"
EXHAUSTIVE = "tests/test_verify.py::TestExhaustive::"
WORKERS = EXHAUSTIVE + "test_n5_starts_one_worker_per_usable_cpu"
JSON_TEXT = "tests/test_verify.py::TestJsonText::"
INDEX_MAPS = "tests/test_boolfn.py::TestIndexMaps::test_input_index_map_matches_per_index_loop"
SPECS = "tests/test_boolfn.py::TestClassSpecs::"
CONSTRUCTORS = "tests/test_boolfn.py::TestConstructors::"
USAGE = "tests/test_cli.py::TestUsageErrors::"
BAD_INPUT = USAGE + "test_bad_input_is_one_error_line"
FRESH_BAD_INPUT = USAGE + "test_a_fresh_process_prints_the_same_line"
VERDICTS = "tests/test_cli.py::TestVerdicts::"
EXACT_IMPORTS = "tests/test_cli.py::TestExactPathsImportNoNumpy::test_exact_commands_load_neither_numpy_nor_multiprocessing"
CLOSED_PIPE = VERDICTS + "test_a_fresh_process_on_a_closed_pipe_exits_2"
RECORDS = "tests/test_cli.py::TestRecordsAreTheirFields::test_json_keys_are_the_field_names_in_order"
HISTOGRAMS = "tests/test_boolfn.py::TestProfileHistograms::"
HISTOGRAM_PATH = "tests/test_mi.py::TestHistogramPath::"
RUN_WALK = "tests/test_karamata.py::TestRunWalk::"
CONSTRUCTION = "tests/test_karamata.py::TestSequenceConstruction::"
CERTIFICATES = "tests/test_karamata.py::TestCertificates::"
CERTIFY = "tests/test_karamata.py::TestCertify::"
BOUND = "tests/test_karamata.py::TestBoundEquivalence::"
REDUCTION = "tests/test_verify.py::TestReduction::"
RECORD_BASE = "tests/test_records.py::"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the double-double quotient kernel
    Mutant(
        "kernel-no-midpoint-guard",
        MI_KERNEL,
        "    undecided = r + t * push != r\n",
        "    undecided = np.zeros(r.shape, dtype=bool)\n",
        (KERNEL + "test_exact_rounding_midpoints", KERNEL + "test_near_midpoints_of_a_non_dyadic_den"),
    ),
    Mutant(
        "kernel-bound-2^10-too-tight",
        MI_KERNEL,
        "_PUSH = 1.0 + 2.0**-41 ",
        "_PUSH = 1.0 + 2.0**-51 ",
        (KERNEL + "test_near_midpoints_of_a_non_dyadic_den",),
    ),
    Mutant(
        "kernel-mass-low-word-dropped",
        MI_KERNEL,
        "    e += hi * g_lo + lo * g_hi\n",
        "    e += hi * g_lo\n",
        (KERNEL + "test_random_tables_match_the_loop[15]", KERNEL + "test_exact_rounding_midpoints"),
    ),
    Mutant(
        "kernel-groups-by-float-value",
        MI_KERNEL,
        "    top = words.shape[1] - 1\n",
        "    values = words.astype(np.float64) @ 2.0 ** (64 * np.arange(words.shape[1]))\n"
        "    _, first, counts = np.unique(values, return_index=True, return_counts=True)\n"
        "    return words[first], counts\n",
        (KERNEL + "test_equal_floats_of_distinct_rows_stay_apart", HAND_BUILT + "[below-the-aligned-key]"),
    ),
    Mutant(
        "kernel-den-shift-one-too-far",
        MI_KERNEL,
        "        den <<= -a\n",
        "        den <<= 1 - a\n",
        tuple(f"{KERNEL}test_dens_below_the_ratio_scale_match_the_fraction_oracle[{n}]" for n in range(1, 5)),
    ),
    # the row grouping on top-aligned uint64 keys
    Mutant(
        "grouping-lower-word-split-skipped",
        MI_KERNEL,
        "        if (seen[group] == col).all():\n",
        "        if True:\n",
        (HAND_BUILT + "[equal-keys-interleaved]", HAND_BUILT + "[below-the-aligned-key]",
         HAND_BUILT + "[four-words]"),
    ),
    Mutant(
        "grouping-shift-off-by-one",
        MI_KERNEL,
        "    shift = 64 - high.bit_length()\n",
        "    shift = 65 - high.bit_length()\n",
        # the top word's highest set bit leaves the key, and nothing checks the top word again
        (HAND_BUILT + "[top-bit-only]", HAND_BUILT + "[top-word-zero]"),
    ),
    Mutant(
        "grouping-fast-exit-on-equal-keys",
        MI_KERNEL,
        "    if new.all():\n",
        "    if new.any():\n",
        (HAND_BUILT + "[one-word]", KERNEL + "test_equal_floats_of_distinct_rows_stay_apart",
         "tests/test_channel.py::TestJointYZContainer::test_distinct_rows_compresses_structured_tables",
         DISTINCT + "test_structured_and_constant_tables_match_the_oracles[7]"),
    ),
    Mutant(
        "grouping-ranks-unpermuted",
        MI_KERNEL,
        "    group[np.argsort(key)] = ",
        "    group[:] = ",
        # the dense ranks land on the rows in sorted order, not on the rows they rank
        (HAND_BUILT + "[one-word]", DISTINCT + "test_a_non_dyadic_table_with_repeated_rows_matches_the_oracles"),
    ),
    Mutant(
        "grouping-pair-unpacked",
        MI_KERNEL,
        "        pair = group << bits | ",
        "        pair = group | ",
        (HAND_BUILT + "[equal-keys-interleaved]",),
    ),
    # the escapes from the kernel to the exact path, taken per block of distinct rows
    Mutant(
        "mi-den-escape-dropped",
        MI_KERNEL,
        "    if den.bit_length() > _KERNEL_DEN_BITS:\n",
        "    if False:\n",
        (KERNEL + "test_den_at_the_top_of_the_exponent_range",),
    ),
    Mutant(
        "kernel-decided-rows-inverted",
        MI_KERNEL,
        "_terms(counts, c1, c2, ~redo)",
        "_terms(counts, c1, c2, redo)",
        # a block of any size keeps only the rows the kernel could not decide
        (BLOCKS + "test_small_blocks_take_the_kernel_and_match_int_division_bit_for_bit[1w-13/64]",
         BLOCKS + "test_a_short_last_block_takes_the_kernel"),
    ),
    Mutant(
        "mi-exact-path-masses-swapped",
        MI,
        "        for mass, d in zip((py_num - num, num), down):\n",
        "        for mass, d in zip((num, py_num - num), down):\n",
        # the exact path reduces class histograms, tables past den 2^1022 and undecided kernel rows
        (KERNEL + "test_den_at_the_top_of_the_exponent_range",
         KERNEL + "test_rows_the_kernel_leaves_undecided_match_the_loop[8]",
         GOLDEN + "[verify-json]"),
    ),
    Mutant(
        "kernel-undecided-rows-dropped",
        MI_KERNEL,
        "    return chain(_terms(counts, c1, c2, ~redo),\n"
        "                 _exact_terms(_fold_words(rows[redo]), counts[redo].tolist(), den, *scales))\n",
        "    return _terms(counts, c1, c2, ~redo)\n",
        (KERNEL + "test_rows_the_kernel_leaves_undecided_match_the_loop[8]",),
    ),
    Mutant(
        "kernel-zero-margin-for-inexact-masses",
        MI_KERNEL,
        "    push = 1.0 if num == den and exact_masses else _PUSH\n",
        "    push = 1.0 if num == den else _PUSH\n",
        (KERNEL + "test_exact_rounding_midpoints",),
    ),
    # JointYZ validation on the words
    Mutant(
        "validation-range-check-skipped",
        CHANNEL,
        "        if above.any():\n",
        "        if False:\n",
        ("tests/test_channel.py::TestJointYZContainer::test_constructor_validates_integer_numerators",),
    ),
    Mutant(
        "validation-lower-words-ignore-ties",
        CHANNEL,
        "        above |= tied & (col > lim)\n",
        "        above |= col > lim\n",
        ("tests/test_channel.py::TestJointYZContainer::test_constructor_names_the_row_and_checks_the_words",),
    ),
    # the int64 lanes of joint_yz's inverse transform
    Mutant(
        "wht-butterflies-repeat-a-matrix-level",
        CHANNEL,
        "    h = 1 << k\n",
        "    h = 1 << max(k - 1, 0)\n",
        ("tests/test_channel.py::TestJointYZ::test_wht_matches_the_hadamard_sum[int64]",),
    ),
    Mutant(
        "lanes-carry-add-dropped",
        CHANNEL,
        "        lane += carry\n",
        "",
        # the random golden dump takes the NumPy writer; the 2^-70 one folds its multiword masses
        (LANES + "[16]", GOLDEN + "[compute-small-dump-2^-70]"),
    ),
    Mutant(
        "lanes-logical-carry-shift",
        CHANNEL,
        "        np.right_shift(lane, bits, out=carry)  # arithmetic: negative lanes borrow\n",
        "        carry[:] = (lane.view(np.uint64) >> np.uint64(bits)).view(np.int64)\n",
        (LANES + "[16]",),
    ),
    Mutant(
        "lanes-width-8-bits-too-wide",
        CHANNEL,
        "    bits = _lane_bits(n)\n",
        "    bits = _lane_bits(n) + 8\n",
        ("tests/test_channel.py::TestJointYZ::test_digits_near_the_int64_limit[2]",
         "tests/test_channel.py::TestJointYZ::test_lanes_near_the_int64_limit[8]",
         "tests/test_channel.py::TestJointYZ::test_lanes_near_the_int64_limit[14]"),
    ),
    Mutant(
        "lanes-top-lane-sized-for-bits",
        CHANNEL,
        "    top_bytes = min(8, width - (lanes - 1) * step)\n",
        "    top_bytes = step\n",
        # the all-ones table's top lane needs more than a digit's bytes at 13/64 and
        # 12345/100003 from n = 12 and at 1/3 from n = 16
        (LANES + "[12]", LANES + "[16]"),
    ),
    Mutant(
        "lanes-top-lane-sized-for-bits-unguarded",
        CHANNEL,
        "    if lane.min() < 0 or int(lane.max()) >> (8 * top_bytes):",
        "    top_bytes = step\n    if lane.min() < 0:",
        (LANES + "[12]", LANES + "[16]"),
    ),
    Mutant(
        "lanes-top-lane-check-dropped",
        CHANNEL,
        "    if lane.min() < 0 or int(lane.max()) >> (8 * top_bytes):",
        "    if False:",
        # the wrapped bytes still fail JointYZ's invariants, but under the wrapper's message
        (WRITER + "test_a_negative_top_lane_is_caught_before_the_packing",),
    ),
    Mutant(
        "fold-bytes-read-big-endian",
        CHANNEL,
        'repeat("little")',
        'repeat("big")',
        # the random golden dump takes the NumPy writer; the 2^-70 one folds its multiword masses
        (LANES + "[16]", GOLDEN + "[compute-small-dump-2^-70]"),
    ),
    # the cell masses, shared by the MI kernel and the CSV writer
    Mutant(
        "kernel-z0-borrow-dropped",
        CHANNEL,
        "        masses[0, :, k] = diff - borrow\n",
        "        masses[0, :, k] = diff\n",
        (KERNEL + "test_random_tables_match_the_loop[13]", WRITER + "test_csv_dump_matches_the_gcd_loop[p2]"),
    ),
    # the CSV writer's Python path, for a den with an odd factor or den/2^n >= 2^106: trailing
    # zeros, shifts of the folded ints, the odd cofactor
    Mutant(
        "writer-trailing-zero-cap-dropped",
        CHANNEL,
        "np.minimum(_trailing_zeros(masses), a).tolist()",
        "_trailing_zeros(masses).tolist()",
        (WRITER + "test_csv_dump_matches_the_gcd_loop[p3]", WRITER + "test_csv_dump_matches_the_gcd_loop[p6]",
         WRITER + "test_csv_dump_of_hand_built_cells[2^300*3^60*5]"),
    ),
    Mutant(
        "writer-zero-mass-count-uncapped",
        CHANNEL,
        "    count[zero] = 1 << 62\n",
        "",
        (WRITER + "test_csv_dump_of_hand_built_cells[2^130]",
         WRITER + "test_trailing_zeros_and_shifts_of_multiword_rows"),
    ),
    Mutant(
        "writer-shift-dropped",
        CHANNEL,
        "list(map(operator.rshift, _fold(masses), t))",
        "_fold(masses)",
        (WRITER + "test_csv_dump_matches_the_gcd_loop[p3]", WRITER + "test_csv_dump_matches_the_gcd_loop[p6]",
         GOLDEN + "[compute-small-dump-2^-70]", WRITER + "test_trailing_zeros_and_shifts_of_multiword_rows"),
    ),
    Mutant(
        "writer-shift-one-too-far",
        CHANNEL,
        "_fold(masses), t))",
        "_fold(masses), [c + 1 for c in t]))",
        (WRITER + "test_csv_dump_matches_the_gcd_loop[p5]", WRITER + "test_csv_dump_of_hand_built_cells[2^130]",
         WRITER + "test_trailing_zeros_and_shifts_of_multiword_rows"),
    ),
    Mutant(
        "writer-odd-cofactor-gcd-skipped",
        CHANNEL,
        "    if odd == 1:\n",
        "    if True:\n",
        # of the golden dumps, only the cofactor table's cells share a factor (3) with den's odd part
        (WRITER + "test_csv_dump_matches_the_gcd_loop[p3]", WRITER + "test_csv_dump_matches_the_gcd_loop[p5]",
         GOLDEN + "[compute-cofactor-dump-third]"),
    ),
    # the CSV writer's NumPy path, for den = 2^a with den/2^n < 2^106: shifts on the words, the
    # decimal digits, the denominator strings
    Mutant(
        "writer-numpy-cap-dropped",
        CHANNEL,
        "    t = np.minimum(_trailing_zeros(masses), a)\n",
        "    t = _trailing_zeros(masses)\n",
        (WRITER + "test_csv_dump_matches_the_gcd_loop[p0]",
         WRITER + "test_one_word_and_constant_tables_take_the_numpy_writer[n13-zero]"),
    ),
    Mutant(
        "writer-numpy-shift-dropped",
        CHANNEL,
        "_decimal(*_shift_right(masses, t))",
        "_decimal(*_shift_right(masses, 0 * t))",
        (WRITER + "test_csv_dump_matches_the_gcd_loop[p2]", WRITER + "test_csv_dump_matches_the_gcd_loop[n15-31_64]",
         GOLDEN + "[compute-random-dump]"),
    ),
    Mutant(
        "writer-high-word-shift-dropped",
        CHANNEL,
        " | (hi >> (t - 64))",
        "",
        (WRITER + "test_shift_right_of_one_and_two_word_masses",),
    ),
    Mutant(
        "writer-remainder-correction-dropped",
        CHANNEL,
        "    q += fix\n    r -= fix * _TEN16\n",
        "",
        (WRITER + "test_decimal_digits_match_str",),
    ),
    Mutant(
        "writer-zero-printed-empty",
        CHANNEL,
        '    text[text == b""] = b"0"\n',
        "",
        (WRITER + "test_decimal_digits_match_str", WRITER + "test_csv_dump_matches_the_gcd_loop[p0]",
         WRITER + "test_one_word_and_constant_tables_take_the_numpy_writer[n9-zero]"),
    ),
    Mutant(
        "writer-den-string-indexed-by-t-plus-1",
        CHANNEL,
        "mids[t[:size]]",
        "mids[t[:size] + 1]",
        (WRITER + "test_csv_dump_matches_the_gcd_loop[p2]", WRITER + "test_csv_dump_matches_the_gcd_loop[n15-31_64]",
         GOLDEN + "[compute-random-dump]"),
    ),
    # Karamata reports
    Mutant(
        "karamata-dump-header-capital-k",
        KARAMATA,
        'yield "k,SL_num,',
        'yield "K,SL_num,',
        (GOLDEN + "[karamata-dump-n5]", GOLDEN + "[karamata-dump-n6]"),
    ),
    # a refused dump must leave no file behind
    Mutant(
        "karamata-dump-opens-before-ceiling",
        KARAMATA,
        "    if rows > 1 << MAX_N:\n",
        "    open(path, \"w\").close()\n    if rows > 1 << MAX_N:\n",
        ("tests/test_cli.py::TestKaramata::test_dump_sums_past_2_to_the_24_rows_exits_2_and_writes_nothing",),
    ),
    Mutant(
        "karamata-p-string-trailing-space",
        CLI,
        '"p": str(p),',
        '"p": str(p) + " ",',
        tuple(f"{GOLDEN}[karamata-n{n}]" for n in range(2, 21))
        + (GOLDEN + "[karamata-dump-n5]", GOLDEN + "[karamata-dump-n6]"),
    ),
    # the run walk, run merging and scalar ledger of certify
    Mutant(
        "karamata-walk-tie-is-a-violation",
        KARAMATA,
        "            if new_gap > 0:\n",
        "            if new_gap >= 0:\n",
        (RUN_WALK + "test_identical_sequences_hold", RUN_WALK + "test_equal_prefix_sums_are_no_violation",
         CERTIFICATES + "test_instances_majorize_exactly",
         CERTIFY + "test_equals_the_certificate_of_the_instance[2]", GOLDEN + "[karamata-n2]"),
    ),
    Mutant(
        "karamata-tie-merge-dropped",
        KARAMATA,
        "        elif num == last:\n",
        "        elif False:\n",
        ("tests/test_karamata.py::TestMerge::test_adjacent_equal_runs_merge",
         CONSTRUCTION + "test_symmetric_point_collapses_everything",
         CONSTRUCTION + "test_integer_runs_match_the_fraction_reference[2]"),
    ),
    Mutant(
        "karamata-length-check-dropped",
        KARAMATA,
        "    if x_length != y_length:\n",
        "    if False:\n",
        ("tests/test_karamata.py::TestMutations::test_length_mismatch_raises[2-p0]",
         "tests/test_karamata.py::TestMutations::test_length_mismatch_raises[5-p1]"),
    ),
    Mutant(
        "karamata-seq-coercion-dropped",
        KARAMATA,
        "_merge((index(num), index(count)) for num, count in runs)",
        "_merge(runs)",
        ("tests/test_karamata.py::TestMerge::test_sequence_rejects_non_integers",),
    ),
    Mutant(
        "karamata-n2-direct-middle-prefixes-dropped",
        KARAMATA,
        "    if n == 2:\n",
        "    if False:\n",
        (CERTIFICATES + "test_ledger_values_n2",
         "tests/test_karamata.py::TestMutations::test_n2_pairing_lemma_false_inside_the_quarter_to_half_interval",
         GOLDEN + "[karamata-n2]"),
    ),
    # the convexity step: sum g(X) counts the 2^n (n-1) middle values c, each g(c) = -n/2^n
    Mutant(
        "karamata-convexity-middle-term-dropped",
        KARAMATA,
        "    rhs_w = -n * (n - 1) + big_k * ",
        "    rhs_w = big_k * ",
        tuple(f"{BOUND}test_convexity_gap_is_nonnegative_and_vanishes_at_half[{n}]" for n in range(2, 7))
        + (BOUND + "test_scaling_identity[2-p0]", BOUND + "test_both_vanish_at_half"),
    ),
    Mutant(
        "karamata-reconstruction-check-dropped",
        KARAMATA,
        "    if abs(reconstructed - result.mi_bits) > 1e-9:\n",
        "    if False:\n",
        (BOUND + "test_a_reconstruction_mismatch_is_an_assertion",),
    ),
    # the public surface and the report writers
    # sweep's make_class pre-check is gone; verify_class's raise keeps its behaviour
    Mutant(
        "sweep-make-class-dropped",
        VERIFY,
        "    if skipped and not hists:\n",
        "    if False:\n",
        (USAGE + "test_sweep_of_a_class_absent_at_n_is_usage_error",),
    ),
    Mutant(
        "all-gains-a-name",
        INIT,
        '"xlog2x"),',
        '"xlog2x", "marginal_spot_check"),',
        (
            "tests/test_public_surface.py::test_all_is_the_pinned_list",
            "tests/test_public_surface.py::test_every_public_name_resolves",
        ),
    ),
    Mutant(
        "json-indent-1",
        VERIFY,
        '    inner = nl + "  "',
        '    inner = nl + " "',
        # one writer for every JSON report: each command's pinned bytes see it
        tuple(GOLDEN + f"[{case}]" for case in ("verify-json", "exhaustive-n2-json", "karamata-n4",
                                                  "karamata-dump-n5", "compute-random-dump", "reduce-check")),
    ),
    # the JSON writer against json.dumps(indent=2) on tokens no golden report holds
    Mutant(
        "json-empty-dict-on-two-lines",
        VERIFY,
        '            parts.append("{}")\n',
        '            parts.append("{" + nl + "}")\n',
        (JSON_TEXT + "test_every_token_kind_matches_the_json_encoder",
         JSON_TEXT + "test_seeded_random_trees_match_the_json_encoder"),
    ),
    Mutant(
        "json-ensure-ascii-dropped",
        VERIFY,
        "    str: encode_basestring_ascii,\n",
        "    str: lambda s: '\"' + s + '\"',\n",
        (JSON_TEXT + "test_every_token_kind_matches_the_json_encoder",
         JSON_TEXT + "test_seeded_random_trees_match_the_json_encoder"),
    ),
    Mutant(
        "json-negative-zero-unsigned",
        VERIFY,
        "    return float.__repr__(x)\n",
        "    return float.__repr__(x + 0.0)\n",
        (JSON_TEXT + "test_every_token_kind_matches_the_json_encoder",
         JSON_TEXT + "test_seeded_random_trees_match_the_json_encoder"),
    ),
    Mutant(
        "csv-certificate-holds-json-spelling",
        VERIFY,
        'None if cert is None else cert["holds"]',
        'None if cert is None else str(cert["holds"]).lower()',
        ("tests/test_cli.py::TestCsvIsJson::test_verify", GOLDEN + "[verify-csv]"),
    ),
    Mutant(
        "channel-second-public-write-csv",
        CHANNEL,
        "def joint_yz(",
        "def write_csv(joint, path):\n    joint.write_csv(path)\n\n\ndef joint_yz(",
        ("tests/test_perfbench_spans.py::test_span_names_are_unique_and_cover_every_counter",),
    ),
    # one judge of where a class exists, n first, and no mask where no table is read
    Mutant(
        "make-class-n-unchecked",
        BOOLFN,
        "    if not 1 <= n <= MAX_N:\n",
        "    if False:\n",
        (CONSTRUCTORS + "test_n_is_checked_before_the_mask_is_built[class2-25-make_class]",
         CONSTRUCTORS + "test_n_is_checked_before_the_mask_is_built[dictator-25-make_class]",
         CONSTRUCTORS + "test_n_is_checked_before_the_mask_is_built[lex-25-profile_histogram]"),
    ),
    Mutant(
        "histogram-judge-skipped",
        BOOLFN,
        "    _judge(n, c)  # so c is one of the classes below\n",
        "",
        (CONSTRUCTORS + "test_profile_histogram_judges_as_make_class[3-cls3]",
         CONSTRUCTORS + "test_profile_histogram_judges_as_make_class[3-class1]",
         CONSTRUCTORS + "test_n_is_checked_before_the_mask_is_built[class2-64-profile_histogram]",
         USAGE + "test_sweep_of_a_class_absent_at_n_is_usage_error"),
    ),
    Mutant(
        "class-check-builds-mask",
        VERIFY,
        "        if hist is None:  # lex, the one class whose joint table is built\n",
        "        if True:\n",
        ("tests/test_cli.py::TestJointTables::test_class_checks_at_n_24_build_no_mask[verify]",
         "tests/test_cli.py::TestJointTables::test_joint_yz_runs_only_without_a_histogram[verify]"),
    ),
    # the exact side imports no array module at module level
    Mutant(
        "karamata-imports-numpy",
        KARAMATA,
        "from typing import Iterable, Optional\n",
        "from typing import Iterable, Optional\n\nimport numpy as np  # noqa: F401\n",
        (EXACT_IMPORTS,),
    ),
    Mutant(
        "verify-imports-pool",
        VERIFY,
        "from typing import Iterable, Optional\n",
        "from multiprocessing import Pool  # noqa: F401\nfrom typing import Iterable, Optional\n",
        (EXACT_IMPORTS,),
    ),
    Mutant(
        "verify-logging-at-import",
        VERIFY,
        "import io\nimport math\n",
        "import io\nimport logging  # noqa: F401\nimport math\n",
        (EXACT_IMPORTS,),
    ),
    Mutant(
        "truth-table-bound-off-by-one",
        BOOLFN,
        "self.mask.bit_length() > 1 << self.n:",
        "self.mask.bit_length() > (1 << self.n) + 1:",
        tuple(f"tests/test_boolfn.py::TestTruthTable::test_mask_range_boundaries[{n}]" for n in (1, 6)),
    ),
    # records built from their fields, and the one spec table
    Mutant(
        "spec-default-j-zero",
        BOOLFN,
        '{"j": 1}',
        '{"j": 0}',
        ("tests/test_boolfn.py::TestClassSpecs::test_parse_round_trip[dictator-expected5]",),
    ),
    Mutant(
        "spec-required-check-dropped",
        BOOLFN,
        "    if missing:\n",
        "    if False:\n",
        (SPECS + "test_malformed_specs_raise[class3]", SPECS + "test_malformed_specs_raise[lex]"),
    ),
    Mutant(
        "spec-repeated-key-kept",
        BOOLFN,
        "        if key in args:\n",
        "        if False:\n",
        (SPECS + "test_error_names_the_real_problem[class3:r=2:r=5-repeated key 'r']",),
    ),
    Mutant(
        "summary-argmax-before-bound",
        VERIFY,
        "    bound_bits: float\n    max_margin: float\n    argmax_canonical_tables: tuple[TruthTable, ...]\n",
        "    argmax_canonical_tables: tuple[TruthTable, ...]\n    bound_bits: float\n    max_margin: float\n",
        # JSON keys follow the fields wherever they are, so only the pinned bytes see the move
        (GOLDEN + "[exhaustive-n3-json]", GOLDEN + "[exhaustive-n3-csv]"),
    ),
    Mutant(
        "verify-status-dropped",
        VERIFY,
        '"p": str(report.p), "status": report.status}',
        '"p": str(report.p)}',
        (RECORDS, GOLDEN + "[verify-json]", "tests/test_cli.py::TestVerify::test_small_grid_passes"),
    ),
    # the frozen record base: equality by class, no assignment, no dict shared between instances
    Mutant(
        "record-eq-ignores-class",
        BOOLFN,
        "        if type(other) is not type(self):\n",
        "        if not isinstance(other, _Record):\n",
        (RECORD_BASE + "test_equality_across_classes_and_defaults",),
    ),
    Mutant(
        "record-not-frozen",
        BOOLFN,
        '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        tuple(f"{RECORD_BASE}TestEveryRecord::test_assigning_or_deleting_raises_attribute_error[{name}]"
              for name in ("TruthTable", "MajorizationCertificate", "JointYZ")),
    ),
    Mutant(
        "record-shared-default",
        BOOLFN,
        '                    defaults[name], value = _FRESH, f"{{}} if {name} is _FRESH else {name}"\n',
        "",
        (RECORD_BASE + "test_each_certificate_gets_its_own_dict",),
    ),
    # verify's make_class re-call is gone; verify_class's raise keeps its behaviour
    Mutant(
        "verify-absent-spec-passes",
        VERIFY,
        "        raise skipped[0][1]\n",
        "        return []\n",
        tuple(f"{USAGE}test_verify_of_a_spec_absent_at_every_n_is_usage_error[{i}]"
              for i in ("class3-r0", "class1-i5000"))
        + ("tests/test_verify.py::TestVerifyClass::test_a_class_absent_at_every_n_raises_and_logs_nothing",),
    ),
    Mutant(
        "family-check-dropped",
        CLI,
        "            if n_max < 2:  # a subcube needs 1 <= r <= n-1\n",
        "            if False:\n",
        (
            USAGE + "test_a_class_with_no_member_in_range_is_one_error_line[class3-family]",
            USAGE + "test_a_class_with_no_member_in_range_is_one_error_line[class4-family]",
            USAGE + "test_a_bare_family_needs_a_member_but_all_keeps_class1_and_class2",
        ),
    ),
    Mutant(
        "family-check-at-n-max-2",
        CLI,
        "            if n_max < 2:  # a subcube needs 1 <= r <= n-1\n",
        "            if n_max < 3:\n",
        tuple(f"{USAGE}test_a_bare_family_at_n_max_2_reports_its_r1_member[{f}]" for f in ("class3", "class4")),
    ),
    Mutant(
        "r-parsed-by-int",
        CLI,
        'p_red.add_argument("--r", type=_integer,',
        'p_red.add_argument("--r", type=int,',
        (BAD_INPUT + "[r-not-an-integer]",),
    ),
    Mutant(
        "n-min-of-1-refused",
        CLI,
        "    if value < 1:\n",
        "    if value < 2:\n",
        (USAGE + "test_a_bare_family_needs_a_member_but_all_keeps_class1_and_class2",
         "tests/test_cli.py::TestJointTables::test_joint_yz_runs_only_without_a_histogram[verify]"),
    ),
    # the option rules argparse declares, and its usage errors routed to main's one error line
    Mutant(
        "p-with-p-den-accepted",
        CLI,
        "    points = grid.add_mutually_exclusive_group()\n",
        "    points = grid\n",
        tuple(f"{BAD_INPUT}[{cmd}-p-with-p-den-{den}]"
              for cmd in ("verify", "karamata", "exhaustive", "sweep") for den in (8, 64)),
    ),
    Mutant(
        "compute-source-check-dropped",
        CLI,
        "add_mutually_exclusive_group(required=True)",
        "add_mutually_exclusive_group()",
        (BAD_INPUT + "[compute-no-source]",),
    ),
    Mutant(
        "compute-n-check-dropped",
        CLI,
        "    elif args.n is None:\n",
        "    elif False:\n",
        (BAD_INPUT + "[compute-function-no-n]", FRESH_BAD_INPUT + "[compute-function-no-n]"),
    ),
    Mutant(
        "reduce-check-p-check-dropped",
        CLI,
        'point.add_argument("--p", type=_parse_p, required=True,',
        'point.add_argument("--p", type=_parse_p,',
        (BAD_INPUT + "[reduce-check-no-p]", BAD_INPUT + "[compute-no-p]"),
    ),
    Mutant(
        "compute-exclusive-group-removed",
        CLI,
        "    source = p_compute.add_mutually_exclusive_group(required=True)\n",
        "    source = p_compute\n",
        (BAD_INPUT + "[function-and-table]", FRESH_BAD_INPUT + "[function-and-table]"),
    ),
    Mutant(
        "usage-error-escapes-main",
        CLI,
        "    def error(self, message):\n"
        "        raise ValueError(message)\n",
        "",
        tuple(f"{BAD_INPUT}[{case}]" for case in ("no-arguments", "unknown-command", "n-min-below-1",
                                                  "compute-no-p", "function-and-table", "option-not-read"))
        + (FRESH_BAD_INPUT + "[no-arguments]",),
    ),
    # a closed stdout pipe exits 2, with stderr on the same pipe too, and not 120 from the flush at exit
    Mutant(
        "closed-pipe-stdout-kept",
        CLI,
        "            _to_devnull(sys.stdout)\n",
        "            pass\n",
        (CLOSED_PIPE + "[compute-stderr-shared]", CLOSED_PIPE + "[compute-stderr-open]"),
    ),
    Mutant(
        "closed-pipe-stderr-unguarded",
        CLI,
        "        try:\n"
        "            print(f\"mi: error: {exc}\", file=sys.stderr, flush=True)\n"
        "        except BrokenPipeError:  # stderr shares stdout's closed pipe: the line has nowhere to go\n"
        "            _to_devnull(sys.stderr)\n",
        "        print(f\"mi: error: {exc}\", file=sys.stderr, flush=True)\n",
        (VERDICTS + "test_stdout_and_stderr_on_one_closed_pipe_exit_2",
         CLOSED_PIPE + "[verify-stderr-shared]", CLOSED_PIPE + "[verify-stderr-shared-unbuffered]"),
    ),
    Mutant(
        "emit-flush-dropped",
        CLI,
        "        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit\n",
        "",
        (CLOSED_PIPE + "[verify-stderr-open]", CLOSED_PIPE + "[compute-stderr-open]"),
    ),
    # the n = 5 scan starts one worker per CPU the process may use, at most one per chunk
    Mutant(
        "pool-cpu-cap-removed",
        VERIFY,
        "min(len(os.sched_getaffinity(0)) if hasattr(os, \"sched_getaffinity\") else os.cpu_count() or 1,\n"
        "                  len(args))",
        "len(args)",
        (WORKERS + "[one-usable-cpu]", WORKERS + "[two-usable-cpus]", WORKERS + "[no-affinity-call]"),
    ),
    Mutant(
        "pool-affinity-ignored",
        VERIFY,
        "len(os.sched_getaffinity(0))",
        "os.cpu_count()",
        (WORKERS + "[one-usable-cpu]", WORKERS + "[two-usable-cpus]"),
    ),
    # the closed-form profile histograms of the class checks, and the producer of their rows
    Mutant(
        "histogram-complement-ones-kept",
        BOOLFN,
        "ProfileHistogram(h.n, (1 << h.n) - h.ones, profiles, h.counts)",
        "ProfileHistogram(h.n, h.ones, profiles, h.counts)",
        (HISTOGRAMS + "test_histograms_are_the_tables_own_profiles[3]",
         HISTOGRAMS + "test_counts_cover_every_y_and_columns_sum_to_ones_times_shells[24]",
         HISTOGRAM_PATH + "test_bit_identical_to_the_table_path[4]",
         HISTOGRAM_PATH + "test_bit_identical_to_the_table_path_at_n_20[class2]",
         GOLDEN + "[verify-json]"),
    ),
    Mutant(
        "histogram-subcube-counts-unscaled",
        BOOLFN,
        "math.comb(r, k) << (n - r) for k in range(r + 1)",
        "math.comb(r, k) for k in range(r + 1)",
        (HISTOGRAMS + "test_histograms_are_the_tables_own_profiles[3]",
         HISTOGRAMS + "test_counts_cover_every_y_and_columns_sum_to_ones_times_shells[24]",
         HISTOGRAM_PATH + "test_bit_identical_to_the_table_path[6]",
         GOLDEN + "[reduce-check]", GOLDEN + "[sweep-class3]"),
    ),
    Mutant(
        "producer-equal-numerators-unmerged",
        MI,
        "        merged[num] = merged.get(num, 0) + count\n",
        "        merged[num] = count\n",
        # at p = 1/2 every cell's log is 0, so only the merged counts themselves show the loss
        (HISTOGRAM_PATH + "test_rows_and_counts_are_the_grouped_table_rows[1_2]",),
    ),
    # the exact verdict of the subcube reduction: equal maps {P(Z = 1 | y): share of y}
    Mutant(
        "reduction-verdict-always-true",
        VERIFY,
        "    identical = _conditional_rows(full_h, q) == _conditional_rows(reduced_h, q)\n",
        "    identical = True\n",
        (REDUCTION + "test_one_moved_y_is_not_identical_though_mi_moves_by_2e_13",),
    ),
    Mutant(
        "reduction-shares-are-raw-counts",
        MI,
        "Fraction(count, size)",
        "count",
        tuple(f"{REDUCTION}test_the_conditional_rows_are_identical[p{i}]" for i in range(6))
        + (GOLDEN + "[reduce-check]",),
    ),
    Mutant(
        "reduction-key-without-2^n",
        MI,
        "Fraction(num * size, den)",
        "Fraction(num, den)",
        tuple(f"{REDUCTION}test_the_conditional_rows_are_identical[p{i}]" for i in range(6))
        + (GOLDEN + "[reduce-check]",),
    ),
    # the symmetry group
    Mutant(
        "lex-min-little-endian-keys",
        ORBIT,
        '.view(">u8")',
        '.view("<u8")',
        (
            "tests/test_boolfn.py::TestCanonicalForm::test_orbit_walk_counts_orbits_and_finds_lex_min[4-222]",
            EXHAUSTIVE + "test_argmax_lists_are_pinned",
        ),
    ),
    Mutant(
        "index-maps-neg-major",
        ORBIT,
        "(moved[:, None, :] ^ flips[None, :, None])",
        "(moved[None, :, :] ^ flips[:, None, None])",
        tuple(f"{INDEX_MAPS}[{n}]" for n in (2, 3, 4)),
    ),
    # the profile codes of the exhaustive scan
    Mutant(
        "doubling-high-half-innermost",
        SCAN,
        "(codes[y ^ b][:, :, None] + codes[:, None, :])",
        "(codes[y ^ b][:, None, :] + codes[:, :, None])",
        # row y gets the codes of y xor (every doubling's b): MI sums over y, so only code tests see it
        tuple(f"{VECTOR}test_space_codes_are_the_codes_of_every_mask[{n}]" for n in (4, 5)),
    ),
    Mutant(
        "doubling-xor-flip-dropped",
        SCAN,
        "codes[y ^ b][:, :, None]",
        "codes[:, :, None]",
        (
            VECTOR + "test_space_codes_are_the_codes_of_every_mask[2]",
            VECTOR + "test_space_codes_are_the_codes_of_every_mask[5]",
            GOLDEN + "[exhaustive-n3-json]",
        ),
    ),
    Mutant(
        "n5-high-half-unflipped",
        SCAN,
        "high = low[flip, masks[i] >> 16]",
        "high = low[:, masks[i] >> 16]",
        (EXHAUSTIVE + "test_n5_chunk_across_a_high_half_boundary", EXHAUSTIVE + "test_n5_chunks_are_pinned[chunk37]"),
    ),
    # the scan kernel's term table
    Mutant(
        "scan-empty-column-mask-dropped",
        SCAN,
        "np.where(live, ",
        "np.where(pc > 0.0, ",
        (
            VECTOR + "test_constant_tables_have_mi_zero_at_non_dyadic_p",
            VECTOR + "test_matches_pure_python_bit_for_bit",
        ),
    ),
    Mutant(
        "scan-np-log2-back",
        SCAN,
        "np.fromiter(map(math.log2, np.where(pc > 0.0, pc, 1.0).tolist()), float, len(pc))",
        "np.log2(np.where(pc > 0.0, pc, 1.0))",
        (VECTOR + "test_matches_pure_python_bit_for_bit",),
    ),
    Mutant(
        "scan-blas-dot-back",
        SCAN,
        "    p1 = np.zeros(len(profiles))\n"
        "    for d in range(n + 1):  # int / int rounds h_d correctly\n"
        "        p1 += profiles[:, d] * ((den - t) ** (n - d) * t**d / (den**n * size))\n",
        "    p1 = profiles @ np.array([(den - t) ** (n - d) * t**d / (den**n * size) for d in range(n + 1)])\n",
        (VECTOR + "test_matches_pure_python_bit_for_bit",),
    ),
    # a scan worker loads the kernel alone, not the exact side that calls it
    Mutant(
        "scan-imports-verify",
        SCAN,
        "from .boolfn import TruthTable\n",
        "from .boolfn import TruthTable\nfrom .verify import PASS_MARGIN_TOLERANCE\n",
        ("tests/test_cli.py::TestExactPathsImportNoNumpy::test_a_scan_worker_loads_no_exact_side_module_but_boolfn",),
    ),
    Mutant(
        "n5-filter-bound-off-by-one",
        SCAN,
        "np.bitwise_count(masks) <= size // 2",
        "np.bitwise_count(masks) < size // 2",
        (EXHAUSTIVE + "test_n5_chunk_across_a_high_half_boundary", EXHAUSTIVE + "test_n5_chunks_are_pinned[chunk0]"),
    ),
)


def apply(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant's edit; its snippet must occur exactly once."""
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {found} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def failed_ids(output: str) -> set[str]:
    """Test ids that pytest's ``-rfE`` summary reports as failed or erroring."""
    ids = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                ids.add(line[len(tag) :].split(" - ")[0].strip())
    return ids


def run(mutant: Mutant, copy: Path) -> str:
    """``killed``, ``SURVIVED`` or ``ERROR``, with the edit applied to ``copy`` and undone."""
    path = copy / mutant.file
    original = path.read_text()
    path.write_text(apply(mutant, original))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
            timeout=900,
        )
    finally:
        path.write_text(original)
    if proc.returncode not in (0, 1):
        return "ERROR"
    return "killed" if set(mutant.tests) <= failed_ids(proc.stdout) else "SURVIVED"


def select(patterns: list[str]) -> list[Mutant]:
    """The mutants named by ``patterns`` (every one if there are none), in ledger order.

    A pattern is a mutant's exact name, or a prefix followed by ``*``
    (``writer-*`` selects every mutant whose name starts with ``writer-``).
    A pattern that matches no mutant is an error.
    """

    def matches(pattern: str, name: str) -> bool:
        return name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern

    if not all(any(matches(p, m.name) for m in MUTANTS) for p in patterns):
        raise SystemExit(f"unknown mutant in {patterns}")
    return [m for m in MUTANTS if not patterns or any(matches(p, m.name) for p in patterns)]


def main(patterns: list[str]) -> int:
    chosen = select(patterns)
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        for mutant in chosen:
            verdict = run(mutant, copy)
            bad += verdict != "killed"
            print(f"{verdict:8} {mutant.name}", flush=True)
    print(f"{len(chosen) - bad}/{len(chosen)} mutants killed")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
