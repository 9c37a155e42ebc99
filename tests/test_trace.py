import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtesim import (
    Instruction,
    Opcode,
    TraceParseError,
    WorkloadSpec,
    check_program_bounds,
    generate_workload,
    parse_program,
    render_program,
)
from mtesim.trace import (WorkloadError, _below, _draw_size, _preamble, generate_program,
                          render_instruction)


class TestParse:
    def test_three_instruction_program(self):
        p = parse_program("alloc r0 40\nst r1 [r0, #8] w8 p1\nhalt")
        assert len(p) == 3
        assert [i.kind for i in p] == [Opcode.ALLOC, Opcode.STORE, Opcode.HALT]

    def test_invalid_width(self):
        with pytest.raises(TraceParseError, match="invalid width 3"):
            parse_program("ld r0 [r1, #0] w3 p1\nhalt")

    def test_register_out_of_range(self):
        with pytest.raises(TraceParseError, match="register out of range"):
            parse_program("mov r32 1\nhalt")

    def test_unknown_mnemonic_names_line(self):
        with pytest.raises(TraceParseError, match="line 2"):
            parse_program("mov r0 1\nbogus r1\nhalt")

    def test_missing_halt(self):
        with pytest.raises(TraceParseError, match="must end with halt"):
            parse_program("mov r0 1")

    def test_missing_halt_names_last_instruction_line(self):
        # blank and comment lines after the last instruction do not count
        with pytest.raises(TraceParseError, match="^line 4: program must end with halt$"):
            parse_program("mov r0 1\n\n# note\nmov r1 2\n# trailing\n\n")

    def test_comments_and_offsets_coexist(self):
        p = parse_program(
            "# header comment\n"
            "alloc r0 40   # forty bytes\n"
            "st r1 [r0, #8] w8 p1 # offset eight\n"
            "halt\n"
        )
        assert p[1].offset == 8

    def test_plus_signed_offset(self):
        # `#+` prefixes an offset, as `+7` is an immediate, not a comment
        assert parse_program("st r1 [r0, #+8] w8 p1\nhalt")[0].offset == 8

    def test_hash_before_a_non_ascii_digit_starts_a_comment(self):
        assert parse_program("mov r1 5 #\u0668\nhalt") == parse_program("mov r1 5\nhalt")

    def test_negative_and_hex_immediates(self):
        p = parse_program("mov r0 0x10\nld r1 [r0, #-8] w4 p1\nmov r2 -0x10\nmov r3 +7\nhalt")
        assert p[0].imm == 16
        assert p[1].offset == -8
        assert (p[2].imm, p[3].imm) == (-16, 7)

    def test_register_offset_and_flags(self):
        p = parse_program("ld r2 [r1, r3] w8 p2 overread_ok\nhalt")
        i = p[0]
        assert i.offset_reg == 3 and i.pair == 2 and i.overread_ok

    def test_atomic_flag_rejected(self):
        with pytest.raises(TraceParseError, match="atomic"):
            parse_program("st r2 [r1, #0] w8 p1 atomic\nhalt")

    def test_pair_needs_two_registers(self):
        with pytest.raises(TraceParseError, match="pair"):
            parse_program("ld r31 [r0, #0] w8 p2\nhalt")

    def test_invalid_pair_count(self):
        with pytest.raises(TraceParseError, match="invalid pair count 3"):
            parse_program("ld r0 [r1, #0] w8 p3\nhalt")

    def test_negative_size(self):
        with pytest.raises(TraceParseError, match="invalid size -1"):
            parse_program("alloc r0 -1\nhalt")

    @pytest.mark.parametrize("line, form", [
        ("alloc r0", "alloc r<d> <size>"),
        ("free", "free r<s>"),
        ("add r0 r1", "add r<d> r<a> <imm>"),
        ("halt r0", "halt"),
        ("ld r0 [r1, #8] w8", "ld r<d> [r<b>, #<imm>|r<i>] w<width> p<pair> [overread_ok]"),
    ])
    def test_arity_error_names_the_expected_form(self, line, form):
        with pytest.raises(TraceParseError, match=f"^line 1: expected {re.escape(form)}$"):
            parse_program(line + "\nhalt")

    # Access tokens come in the documented order, each once: a token loop
    # that took them in any order accepted these, the repeated width winning.
    @pytest.mark.parametrize("line", [
        "ld r0 [r1, #8] p1 w8",
        "ld r0 [r1, #8] w8 w16 p1",
        "ld r0 [r1, #8] overread_ok w8 p1",
        "st r0 [r1, #8] w8 p1 overread_ok overread_ok",
    ])
    def test_access_tokens_out_of_order_or_repeated(self, line):
        with pytest.raises(TraceParseError, match="^line 1: expected "):
            parse_program(line + "\nhalt")

    # `int` reads every Unicode decimal digit and `_` separators; the format
    # takes ASCII without `_`.  (`#` before a non-ASCII digit starts a comment.)
    @pytest.mark.parametrize("line", [
        "mov r1 \u0661",
        "mov r1 1_0",
        "ld r0 [r1, #8] w\u0668 p1",
        "ld r0 [r1, #8] w8 p\u0661",
        "alloc r0 0x_10",
    ])
    def test_integers_are_ascii_without_underscores(self, line):
        with pytest.raises(TraceParseError, match="^line 1: invalid "):
            parse_program(line + "\nhalt")

    def test_brackets_and_commas_read_as_spaces(self):
        # inside an address they may also be left out
        assert parse_program("ld r0 r1 #8 w8 p1\nhalt") == parse_program(
            "ld r0 [r1, #8] w8 p1\nhalt")

    @pytest.mark.parametrize("line", ["mov [r1] 5", "free ]r0[", "alloc r0, 40"])
    def test_brackets_and_commas_only_in_an_address(self, line):
        with pytest.raises(TraceParseError, match="^line 1: unexpected '.' outside a load "):
            parse_program(line + "\nhalt")

    @pytest.mark.parametrize("line", [
        "ld r0, [r1, #8] w8 p1",
        "ld r0 [r1, #8] w8, p1",
        "st r0 [r1, #8] w8 p1 ]",
        "ld r0 [r1, #8 w8 p1",
        "ld r0 r1, #8] w8 p1",
        "ld r0 [[r1, #8] w8 p1",
        "ld r0 [r1,, #8] w8 p1",
    ])
    def test_misplaced_address_punctuation(self, line):
        with pytest.raises(TraceParseError, match="^line 1: expected "):
            parse_program(line + "\nhalt")


# One canonical line per opcode and the instruction it stands for, built
# field by field: the generator never emits `add`, `syscall` or `ret`, so
# the round trip over generated programs does not cover them, and a round
# trip alone would not see two operands swapped in both directions.
_CANONICAL = [
    ("alloc r3 40", Instruction(Opcode.ALLOC, dst=3, imm=40)),
    ("free r5", Instruction(Opcode.FREE, src=5)),
    ("mov r2 -7", Instruction(Opcode.MOV, dst=2, imm=-7)),
    ("add r4 r9 16", Instruction(Opcode.ADD, dst=4, src=9, imm=16)),
    ("ld r6 [r1, #-8] w4 p2",
     Instruction(Opcode.LOAD, dst=6, base=1, offset=-8, width=4, pair=2)),
    ("st r7 [r2, r3] w16 p1 overread_ok",
     Instruction(Opcode.STORE, src=7, base=2, offset_reg=3, width=16, overread_ok=True)),
    ("syscall", Instruction(Opcode.SYSCALL)),
    ("ret", Instruction(Opcode.RET)),
    ("halt", Instruction(Opcode.HALT)),
]


@pytest.mark.parametrize("line, instr", _CANONICAL, ids=[i.kind.value for _, i in _CANONICAL])
def test_canonical_line_parses_to_its_instruction_and_back(line, instr):
    assert parse_program(f"{line}\nhalt") == (instr, Instruction(Opcode.HALT))
    assert render_instruction(instr) == line


# Tokens of the trace format, malformed variants of them and its punctuation:
# a line of these either parses or is a `TraceParseError`, never another
# exception.  "r²" and "r١" pass `str.isdigit` but are not registers.
_TOKENS = ["alloc", "free", "mov", "add", "ld", "st", "syscall", "ret", "halt", "bogus",
           "r0", "r1", "r31", "r32", "r-1", "r", "rx", "r²", "r١", "r01",
           "0", "40", "-8", "0x10", "1_0", "0x", "١", "#8", "#-8", "#0x10", "#", "#x",
           "w1", "w8", "w16", "w3", "w", "wx", "p1", "p2", "p3", "p", "pair", "overread_ok",
           "[", "]", ",", "[r0", "#8]", "r1,"]
_LINES = st.tuples(st.lists(st.sampled_from(_TOKENS), max_size=6),
                   st.sampled_from([" ", ", ", ""])).map(lambda t: t[1].join(t[0]))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_LINES, max_size=4), halt=st.booleans())
@example(lines=["]"], halt=True)
@example(lines=["mov r\u00b2 1"], halt=True)
@example(lines=["mov r\u0661 1"], halt=True)
def test_any_line_parses_and_round_trips_or_is_a_parse_error(lines, halt):
    text = "\n".join(lines + ["halt"] * halt)
    try:
        p = parse_program(text)
    except TraceParseError:
        return
    assert parse_program(render_program(p)) == p


class TestRoundTrip:
    def test_render_is_canonical(self):
        text = "alloc r0 40\n  st   r1 [ r0 , #8 ]   w8 p1\nhalt"
        p = parse_program(text)
        canonical = render_program(p)
        assert canonical == "alloc r0 40\nst r1 [r0, #8] w8 p1\nhalt\n"
        assert render_program(parse_program(canonical)) == canonical

    # The generator builds instructions directly; this is what keeps every
    # program it can build expressible in the text format `mtesim gen` writes.
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["intra", "cross", "uaf", "double_free", "benign"]),
           seed=st.integers(0, 10_000), index=st.integers(0, 20),
           adjacent=st.booleans(), reuse_cycles=st.sampled_from([0, 1, 3, 32]),
           accesses=st.sampled_from([0, 8, 48]), preamble_allocs=st.sampled_from([0, 4, 9]))
    def test_parse_render_round_trips_generated_programs(self, kind, seed, index, adjacent,
                                                         reuse_cycles, accesses,
                                                         preamble_allocs):
        spec = WorkloadSpec(kind=kind, seed=seed, adjacent=adjacent, reuse_cycles=reuse_cycles,
                            accesses=accesses, preamble_allocs=preamble_allocs)
        p = generate_program(spec, index)
        parsed = parse_program(render_program(p))
        assert parsed == p


class TestWorkloadSpec:
    def test_intra_needs_a_short_size(self):
        with pytest.raises(WorkloadError, match="not divisible by 16"):
            WorkloadSpec(kind="intra", size_distribution=((32, 1), (64, 1)))

    def test_weights_must_be_positive(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(kind="benign", size_distribution=((32, 0),))

    @pytest.mark.parametrize("weights", [(float("inf"),), (float("nan"),), (1e308, 1e308)])
    def test_weights_must_have_a_finite_total(self, weights):
        with pytest.raises(WorkloadError, match="finite total"):
            WorkloadSpec(kind="benign", size_distribution=tuple((32, w) for w in weights))

    def test_unknown_kind(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(kind="wild")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5000),
                          st.one_of(st.integers(1, 50),
                                    st.floats(1e-3, 1e6, allow_nan=False))),
                min_size=1, max_size=12),
       st.integers(0, 2**32))
@example(list(WorkloadSpec.size_distribution), 0)
@example([(1, 0.1), (2, 0.2), (3, 0.3), (4, 0.4)], 1)      # weights that sum inexactly
@example([(s, 1 + s % 5) for s in range(1, 200)], 2)      # a long distribution
def test_draw_size_matches_choices_with_weights(distribution, seed):
    """`_draw_size`, and the preamble's inline copy of it, draw what
    `random.choices` draws, draw for draw, and leave the generator in the
    same state."""
    spec = WorkloadSpec(kind="benign", size_distribution=tuple(distribution),
                        preamble_allocs=20)
    sizes = [s for s, _ in distribution]
    weights = [w for _, w in distribution]
    cached, reference = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert _draw_size(spec, cached) == reference.choices(sizes, weights=weights)[0]
    out = []
    _preamble(spec, cached, out)
    assert [i.imm for i in out] == [reference.choices(sizes, weights=weights)[0]
                                    for _ in range(20)]
    assert cached.getstate() == reference.getstate()


# every n below 65, powers of two (one bit more than n - 1 needs: half the
# draws are rejected) and the bound of a generated 32-bit value
_BOUNDS = [*range(1, 65), *(2**k for k in range(7, 34)), 2**32 + 1]


@pytest.mark.parametrize("reference_draw", [
    lambda rng, n: rng._randbelow(n),
    lambda rng, n: rng.choice(range(n)),
    lambda rng, n: rng.randint(7, 7 + n - 1) - 7,
], ids=["_randbelow", "choice", "randint"])
def test_below_draws_what_random_draws(reference_draw):
    """`_below` draws what `random.Random` draws, draw for draw, and leaves
    the generator in the same state."""
    for n in _BOUNDS:
        drawn, reference = random.Random(n), random.Random(n)
        for _ in range(30):
            assert _below(drawn.getrandbits, n) == reference_draw(reference, n), n
        assert drawn.getstate() == reference.getstate(), n


class TestGeneratorOracle:
    """Generated corpora are validated by the exact-bounds oracle, which
    tracks (allocation, offset) pairs symbolically and knows nothing about
    the allocator's layout or tags."""

    @pytest.mark.parametrize("kind", ["intra", "cross", "uaf", "double_free"])
    def test_buggy_programs_flagged_at_intended_instruction(self, kind):
        for i in range(50):
            p = generate_program(WorkloadSpec(kind=kind, seed=77), i)
            violations = check_program_bounds(p)
            assert len(violations) == 1
            # the bug is the last instruction before halt
            assert violations[0].pc == len(p) - 2

    def test_nonadjacent_cross_also_flagged(self):
        spec = WorkloadSpec(kind="cross", seed=78, adjacent=False)
        for i in range(30):
            violations = check_program_bounds(generate_program(spec, i))
            assert len(violations) == 1

    def test_uaf_with_reuse_cycles_flagged_as_uaf(self):
        spec = WorkloadSpec(kind="uaf", seed=79, reuse_cycles=2)
        for i in range(30):
            p = generate_program(spec, i)
            violations = check_program_bounds(p)
            assert [v.reason for v in violations] == ["use after free"]

    def test_benign_programs_pass_the_oracle(self):
        for i in range(100):
            p = generate_program(WorkloadSpec(kind="benign", seed=80), i)
            assert check_program_bounds(p) == []

    def test_intra_access_exceeds_size_within_granule(self):
        # with a single 40-byte size, the access must end past byte 40 but
        # stay inside the granule [32, 48)
        spec = WorkloadSpec(kind="intra", size_distribution=((40, 1),), seed=81)
        for i in range(40):
            p = generate_program(spec, i)
            access = p[-2]
            end = access.offset + access.width * access.pair
            assert end > 40
            assert access.offset >= 0 and end <= 48

    def test_double_free_reason(self):
        p = generate_program(WorkloadSpec(kind="double_free", seed=82), 0)
        assert check_program_bounds(p)[0].reason == "double or stale free"


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        spec = WorkloadSpec(kind="benign", count=20, seed=123)
        a = [render_program(p) for p in generate_workload(spec)]
        b = [render_program(p) for p in generate_workload(spec)]
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_workload(WorkloadSpec(kind="benign", count=5, seed=1))
        b = generate_workload(WorkloadSpec(kind="benign", count=5, seed=2))
        assert [render_program(p) for p in a] != [render_program(p) for p in b]
