"""Mutants that guard the inline copies of a rule.

Several rules are stated twice in the library: once plainly, and once
inlined on a path with measured traffic (the machine's granule walk and
its async flag, the benign verdict, its counter and its rearm in place,
the metadata arm and clear, a fresh region's tag exclusion, the region
tag fills, `free`'s tag compare, the generator's `_below`).  Each mutant
below breaks one such copy and names the tests that must catch it.  A few more break the trace
parser's grammar table, `set_tag_range`'s multi-page loop, and the budget and
instruction count that the machine's loop derives from pc.

    python tests/mutants.py

For each mutant the script copies `src/` to a temporary directory,
replaces the mutant's old text (which must occur exactly once in its file)
with the new text, and runs only the named tests against the copy.  A
mutant survives unless every named test fails.  The named tests must first
pass on the unmutated copy.  The script exits 1 when a mutant survives,
when its old text no longer matches, or when a named test fails on the
unmutated copy: a change to a guarded copy updates its mutant here.

Hypothesis runs derandomized and without its shrink phase, so each run
is repeatable and a kill costs seconds.  Standard library only; pytest
does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CPU = "tests/test_cpu.py"
SLOW = f"{CPU}::TestSlowPathReach"
DET = "tests/test_detector.py"
ALLOC = "tests/test_allocator.py"
MEMORY = "tests/test_memory.py"
TRACE = "tests/test_trace.py"
RUNNER = "tests/test_runner.py"
GOLDEN = "tests/test_golden.py"

# (name, file under src/mtesim, exact old text, new text, test ids that must fail)
MUTANTS = (
    # the machine's granule walk
    ("walk leaves out the next page", "cpu.py",
     "if last >= GRANULES_PER_PAGE:",
     "if last > GRANULES_PER_PAGE:",
     (f"{SLOW}::test_bug_across_a_page_edge_takes_the_benign_verdict_once",
      f"{SLOW}::test_async_mismatch_across_a_page_edge_is_queued",
      f"{SLOW}::test_benign_hit_across_a_page_edge_resumes_and_delegates")),
    ("fault address masked past the top", "cpu.py",
     "(address & ~PAGE_MASK) + (g << GRANULE_SHIFT))",
     "((address & ~PAGE_MASK) + (g << GRANULE_SHIFT)) & ADDRESS_MASK)",
     (f"{CPU}::test_bug_past_top_of_address_space_reports_the_unmasked_address[Mode.SYNC]",
      f"{CPU}::test_step_matches_tag_check_and_handler_reference")),
    ("async mismatch sets no flag", "cpu.py",
     "self.async_fault_pending = True",
     "self.async_fault_pending = False",
     (f"{CPU}::TestStepSemantics::test_async_fault_executes_access_and_reports_at_kernel_entry",
      f"{SLOW}::test_async_mismatch_across_a_page_edge_is_queued",
      f"{CPU}::test_step_matches_tag_check_and_handler_reference",
      f"{DET}::TestReports::test_async_report_json_is_golden")),
    # the loop's budget and instruction count, derived from pc
    ("run end leaves its last instruction uncounted", "cpu.py",
     "+ (end is not None)",
     "+ 0",
     (f"{CPU}::TestLoopEdges::test_the_instruction_that_ends_the_run_is_counted[halt]",
      f"{CPU}::TestLoopEdges::test_the_instruction_that_ends_the_run_is_counted[sync-bug]",
      f"{RUNNER}::test_run_stops_after_exactly_max_steps",
      f"{GOLDEN}::test_corpus_digest_unchanged[benign48]")),
    ("running off the end of the program pauses", "cpu.py",
     "if pc < stop:\n                    raise TraceRuntimeError",
     "if False:\n                    raise TraceRuntimeError",
     (f"{CPU}::TestLoopEdges::test_running_off_the_end_names_the_pc_past_the_program[one-run]",
      f"{CPU}::TestLoopEdges::test_running_off_the_end_names_the_pc_past_the_program[stepping]",
      f"{CPU}::TestLoopEdges::test_a_budget_ending_at_the_end_of_the_program_pauses")),
    ("slot pc + 1 runs in the call even when the budget ends at pc", "cpu.py",
     "mem, self, pc + 1 < stop):",
     "mem, self, pc < stop):",
     (f"{RUNNER}::test_pausing_anywhere_matches_one_run",
      f"{SLOW}::test_benign_hit_across_a_page_edge_resumes_and_delegates",
      f"{CPU}::test_step_matches_tag_check_and_handler_reference")),
    # the benign hit
    ("benign verdict masks the fault address past the top", "detector.py",
     "check_access(address, start, size",
     "check_access(a, start, size",
     (f"{CPU}::test_load_wrapping_into_armed_granule_0_passes_as_across_a_page_edge",
      f"{CPU}::test_step_matches_tag_check_and_handler_reference")),
    ("uncounted hit retires by threshold", "detector.py",
     "if counted and (word >> 4 >= config.access_threshold",
     "if (word >> 4 >= config.access_threshold",
     (f"{DET}::test_fused_benign_hit_matches_stepwise_reference",
      f"{CPU}::test_step_matches_tag_check_and_handler_reference")),
    ("uncounted hit rearmed in place", "detector.py",
     "elif counted and next_in_call:",
     "elif next_in_call:",
     (f"{DET}::TestOverreadSkip::test_skipped_overread_reads_the_delegated_padding",
      f"{DET}::test_fused_benign_hit_matches_stepwise_reference")),
    ("uncounted hit bumps the counter", "detector.py",
     "+ (counted << 4)",
     "+ (1 << 4)",
     (f"{DET}::TestOverreadSkip::test_skip_on_delegates_without_counting",
      f"{DET}::test_fused_benign_hit_matches_stepwise_reference",
      f"{GOLDEN}::test_memory_digest_unchanged[overread]")),
    ("rearm in place leaves its trap uncounted", "detector.py",
     "self.counters.traps_delivered += 1   # the trap at pc + 1",
     "self.counters.traps_delivered += 0   # the trap at pc + 1",
     (f"{DET}::TestRecoveryProtocol::test_benign_hit_delegates_then_revokes",
      f"{RUNNER}::test_run_end_counter_identities")),
    # the arm and the clear
    ("arm leaves the counter's high byte", "detector.py",
     "data[last] = tag\n    if addressable <= 14:",
     "data[last] = tag\n    if addressable < 14:",
     (f"{ALLOC}::test_arm_and_clear_match_stepwise_reference",
      f"{ALLOC}::test_arm_and_free_clear_match_stepwise_reference")),
    ("clear leaves the counter's high byte", "detector.py",
     "data[last] = 0\n        if addressable <= 14:",
     "data[last] = 0\n        if addressable <= 13:",
     (f"{ALLOC}::test_arm_and_clear_match_stepwise_reference",)),
    ("free leaves the metadata", "allocator.py",
     "if addressable:\n            clear_metadata(",
     "if False:\n            clear_metadata(",
     (f"{ALLOC}::TestFree::test_free_clears_short_granule_metadata",
      f"{ALLOC}::test_arm_and_free_clear_match_stepwise_reference")),
    # a fresh region's draw: only a live left neighbour's tag and parity
    ("fresh draw leaves out the left neighbour's parity", "allocator.py",
     "\n                    exclude |= _ODD_TAGS if left.tag & 1 else _EVEN_TAGS",
     "\n                    exclude |= 0",
     (f"{ALLOC}::TestAllocate::test_adjacent_allocations_have_opposite_parity",)),
    ("fresh draw excludes a freed left neighbour", "allocator.py",
     "\n            if left is not None and left.tag and left.base in self.live:",
     "\n            if left is not None and left.tag:",
     (f"{ALLOC}::test_freed_left_neighbour_is_not_excluded",
      f"{ALLOC}::test_allocator_matches_reference_allocator")),
    # free's one compare
    ("free ignores the canary bits", "allocator.py",
     "raw >> TAG_SHIFT != rec.tag",
     "raw >> TAG_SHIFT & 0xF != rec.tag",
     (f"{ALLOC}::TestFree::test_free_with_canary_bits_is_mismatch",)),
    # the region tag fills: a fresh region and the retag at free within a
    # page, and set_tag_range within a page and across pages
    ("fresh in-page fill one granule short", "allocator.py",
     "i, n = base >> PAGE_SHIFT, usable >> GRANULE_SHIFT",
     "i, n = base >> PAGE_SHIFT, (usable >> GRANULE_SHIFT) - 1",
     (f"{ALLOC}::TestAllocate::test_in_page_fresh_region_matches_per_granule_loop[1]",
      f"{ALLOC}::TestAllocate::test_in_page_fresh_region_matches_per_granule_loop[64]",
      f"{ALLOC}::TestAllocate::test_in_page_fresh_region_matches_per_granule_loop[256]")),
    ("in-page retag one granule short", "allocator.py",
     "n = usable >> GRANULE_SHIFT",
     "n = (usable >> GRANULE_SHIFT) - 1",
     (f"{ALLOC}::TestFree::test_in_page_retag_matches_per_granule_loop[1]",
      f"{ALLOC}::TestFree::test_in_page_retag_matches_per_granule_loop[64]",
      f"{ALLOC}::TestFree::test_in_page_retag_matches_per_granule_loop[256]",
      f"{ALLOC}::TestFree::test_retag_at_free_changes_every_granule")),
    ("set_tag_range within a page one granule short", "memory.py",
     "n = end - first\n",
     "n = end - first - 1\n",
     (f"{MEMORY}::test_set_tag_range_equals_per_granule_loop",
      f"{MEMORY}::TestSetTagRange::test_partial_last_granule_is_covered")),
    ("set_tag_range across pages one granule short", "memory.py",
     "(_FILLERS[n] or _make_filler(n))(page, first, fill)\n            g += n",
     "(_FILLERS[n - 1] or _make_filler(n - 1))(page, first, fill)\n            g += n",
     (f"{MEMORY}::test_set_tag_range_equals_per_granule_loop",
      f"{MEMORY}::test_pages_match_per_byte_and_per_granule_dicts")),
    ("set_tag_range across pages one granule early", "memory.py",
     "(page, first, fill)\n            g += n",
     "(page, first - 1, fill)\n            g += n",
     (f"{MEMORY}::test_set_tag_range_equals_per_granule_loop",
      f"{MEMORY}::test_pages_match_per_byte_and_per_granule_dicts")),
    # the generator's draw
    ("_below keeps a draw equal to n", "trace.py",
     "while r >= n:",
     "while r > n:",
     (f"{TRACE}::test_below_draws_what_random_draws[_randbelow]",
      f"{TRACE}::test_below_draws_what_random_draws[choice]",
      f"{TRACE}::test_below_draws_what_random_draws[randint]",
      f"{GOLDEN}::test_program_digest_unchanged[benign48]")),
    # the parser's grammar table
    ("add's operands swapped", "trace.py",
     'Opcode.ADD: (("dst", "r<d>"), ("src", "r<a>"), ("imm", "<imm>")),',
     'Opcode.ADD: (("src", "r<a>"), ("dst", "r<d>"), ("imm", "<imm>")),',
     (f"{TRACE}::test_canonical_line_parses_to_its_instruction_and_back[add]",
      f"{TRACE}::TestParse::test_arity_error_names_the_expected_form[add r0 r1-add r<d> r<a> <imm>]")),
    ("overread_ok dropped", "trace.py",
     "overread_ok=len(tokens) == 7)",
     "overread_ok=False)",
     (f"{TRACE}::test_canonical_line_parses_to_its_instruction_and_back[st]",
      f"{TRACE}::TestParse::test_register_offset_and_flags")),
    ("width and pair positions swapped", "trace.py",
     'tokens[4][:1] != "w" or tokens[5][:1] != "p"',
     'tokens[4][:1] != "p" or tokens[5][:1] != "w"',
     (f"{TRACE}::test_canonical_line_parses_to_its_instruction_and_back[ld]",
      f"{TRACE}::test_canonical_line_parses_to_its_instruction_and_back[st]",
      f"{TRACE}::TestParse::test_access_tokens_out_of_order_or_repeated[ld r0 [r1, #8] p1 w8]")),
)

# Loaded into pytest with `-p`: derandomized, no shrink phase, no database.
_PROFILE = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", derandomize=True, database=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutants")
"""


def failed_tests(src: Path, tests, plugins: Path) -> set:
    """Ids of `tests` that fail against the library in `src`."""
    # No bytecode cache: a mutant of the same length written within the
    # second of the last compile would otherwise run as the stale .pyc.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(plugins))),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
         "-p", "mutant_profile", "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    # a summary line is "FAILED <id>" or "FAILED <id> - <message>", and an
    # id may hold spaces
    summary = [line.split(" ", 1)[1] for line in proc.stdout.splitlines()
               if line.startswith(("FAILED ", "ERROR "))]
    failed = {t for t in tests for line in summary if line == t or line.startswith(t + " ")}
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and not failed):
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return failed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mtesim-mutants-") as tmp:
        src, plugins = Path(tmp) / "src", Path(tmp) / "plugins"
        plugins.mkdir()
        (plugins / "mutant_profile.py").write_text(_PROFILE)
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        sources = {name: (src / "mtesim" / name).read_text()
                   for name in {m[1] for m in MUTANTS}}

        problems = 0
        for name, file, old, _, _ in MUTANTS:
            if sources[file].count(old) != 1:
                print(f"STALE     {name}: {old!r} occurs "
                      f"{sources[file].count(old)} times in {file}, not once")
                problems += 1
        if problems:
            return 1
        every_test = sorted({t for m in MUTANTS for t in m[4]})
        broken = failed_tests(src, every_test, plugins)
        for test in sorted(broken):
            print(f"BROKEN    {test} fails on the unmutated source")
        if broken:
            return 1

        for name, file, old, new, tests in MUTANTS:
            start = time.perf_counter()
            path = src / "mtesim" / file
            path.write_text(sources[file].replace(old, new))
            try:
                survivors = set(tests) - failed_tests(src, tests, plugins)
            finally:
                path.write_text(sources[file])
            verdict = "SURVIVED" if survivors else "killed"
            print(f"{verdict:9} {name} ({file}, {time.perf_counter() - start:.1f} s)")
            for test in sorted(survivors):
                print(f"          passes: {test}")
            problems += bool(survivors)
        print(f"{len(MUTANTS) - problems} of {len(MUTANTS)} mutants killed")
        return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
