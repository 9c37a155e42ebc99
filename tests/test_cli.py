import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtesim import SimConfig, TaggedMemory, WorkloadSpec, generate_workload, render_program
from mtesim import cli
from mtesim.cli import _config_from_args, build_parser, main


INTRA = "alloc r0 40\nst r1 [r0, #36] w8 p1\nhalt\n"
BENIGN = "alloc r0 40\nst r1 [r0, #8] w8 p1\nhalt\n"
_RUNS = itertools.count()


@pytest.fixture
def trace_file(tmp_path):
    def write(text, name="t.mtr"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def test_run_bug_exits_1(trace_file, capsys):
    code = main(["run", trace_file(INTRA), "--always-arm", "--seed", "1"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "BugReported"
    assert payload["bug"]["kind"] == "IntraGranuleOverflow"


def test_run_bug_missed_without_tripwires(trace_file, capsys):
    code = main(["run", trace_file(INTRA), "--no-tripwires", "--seed", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "CleanHalt"


def test_run_benign_exits_0(trace_file):
    assert main(["run", trace_file(BENIGN), "--always-arm", "--seed", "1"]) == 0


def test_parse_error_exits_2(trace_file, capsys):
    code = main(["run", trace_file("ld r0 [r1, #0] w3 p1\nhalt\n")])
    assert code == 2
    assert "invalid width 3" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["]\nhalt\n", "mov r\u00b2 1\nhalt\n", "mov r1 \u0661\nhalt\n",
                                  "mov r1 1_0\nhalt\n", "ld r0 [r1, #8] w8 w16 p1\nhalt\n",
                                  "ld r0 [r1, #8] p1 w8\nhalt\n", "mov [r1] 5\nhalt\n",
                                  "alloc r0, 40\nhalt\n"],
                         ids=["bracket_only", "superscript_register", "arabic_indic_digit",
                              "underscore_separator", "repeated_width", "pair_before_width",
                              "bracketed_immediate", "comma_separated"])
def test_malformed_line_exits_2_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "t.mtr"
    path.write_bytes(text.encode())
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and ": line 1: " in err


def test_missing_file_exits_2(capsys):
    assert main(["run", "/nonexistent/trace.mtr"]) == 2


def test_usage_error_exits_2():
    assert main(["run"]) == 2


def test_report_flag_writes_file(trace_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", trace_file(INTRA), "--always-arm", "--seed", "1",
                 "--report", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["outcome"] == "BugReported"


def test_env_seed_fallback_and_flag_priority(trace_file, capsys, monkeypatch):
    monkeypatch.setenv("MTESIM_SEED", "77")
    main(["run", trace_file(BENIGN)])
    assert json.loads(capsys.readouterr().out)["config_echo"]["seed"] == 77
    main(["run", trace_file(BENIGN), "--seed", "5"])
    assert json.loads(capsys.readouterr().out)["config_echo"]["seed"] == 5


class TestGen:
    def test_corpus_layout_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        for out in (out1, out2):
            assert main(["gen", "--kind", "intra", "--count", "20", "--seed", "7",
                         "--out", str(out)]) == 0
        files1 = sorted((out1 / "intra").glob("*.mtr"))
        files2 = sorted((out2 / "intra").glob("*.mtr"))
        assert len(files1) == 20
        assert [f.read_text() for f in files1] == [f.read_text() for f in files2]
        manifest = json.loads((out1 / "intra" / "manifest.json").read_text())
        assert list(manifest) == ["kind", "size_distribution", "count", "seed",
                                  "preamble_allocs", "adjacent", "reuse_cycles", "accesses"]
        assert manifest["kind"] == "intra" and manifest["count"] == 20

    def test_each_kind_manifest_rebuilds_its_corpus(self, tmp_path):
        out = tmp_path / "c"
        assert main(["gen", "--kind", "uaf", "--count", "3", "--seed", "5", "--reuse-cycles",
                     "2", "--preamble", "1", "--sizes", "24:2,40", "--out", str(out)]) == 0
        assert main(["gen", "--kind", "benign", "--count", "2", "--accesses", "3",
                     "--non-adjacent", "--out", str(out)]) == 0
        assert not (out / "manifest.json").exists()
        for kind in ("uaf", "benign"):
            manifest = json.loads((out / kind / "manifest.json").read_text())
            spec = WorkloadSpec(**{**manifest, "size_distribution": tuple(
                map(tuple, manifest["size_distribution"]))})
            corpus = [f.read_text() for f in sorted((out / kind).glob("*.mtr"))]
            assert corpus == [render_program(p) for p in generate_workload(spec)]

    def test_sizes_flag_restricts_sizes(self, tmp_path):
        out = tmp_path / "c"
        assert main(["gen", "--kind", "benign", "--count", "10", "--seed", "3",
                     "--sizes", "24:1,40:1", "--out", str(out)]) == 0
        for f in (out / "benign").glob("*.mtr"):
            for line in f.read_text().splitlines():
                if line.startswith("alloc"):
                    assert int(line.split()[2]) in (24, 40)

    def test_incompatible_kind_and_sizes_exit_2(self, tmp_path, capsys):
        code = main(["gen", "--kind", "intra", "--sizes", "32:1",
                     "--out", str(tmp_path / "c")])
        assert code == 2
        assert "not divisible by 16" in capsys.readouterr().err


class TestExp:
    def test_detection_json(self, capsys):
        code = main(["exp", "detection", "--kind", "intra", "--trials", "50",
                     "--seed", "2", "--always-arm"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "detection_rate/intra"
        assert payload["trials"] == 50
        assert payload["rate"] == 1.0

    def test_collision_json(self, capsys):
        assert main(["exp", "collision", "--trials", "500", "--seed", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["name", "trials", "detected", "rate",
                                 "wilson_95_ci", "config_echo"]

    def test_vulnerable_fraction_uniform(self, capsys):
        assert main(["exp", "vulnerable-fraction", "--uniform", "1:256",
                     "--trials", "2000", "--seed", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.9 < payload["fraction"] < 1.0

    # A list of one entry per size would take minutes and gigabytes.  The
    # address-space cap makes such a regression fail fast instead of swapping.
    @pytest.mark.parametrize("uniform, code", [("1:99999999999", 0), (f"1:{2**64}", 2)])
    def test_vulnerable_fraction_huge_uniform_range_returns_at_once(self, uniform, code):
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mtesim.cli", "exp", "vulnerable-fraction",
             "--uniform", uniform, "--trials", "10"],
            env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=cap_memory,
            capture_output=True, text=True, timeout=20)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert 0.0 <= json.loads(proc.stdout)["fraction"] <= 1.0
        else:
            assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1

    def test_transparency(self, capsys):
        code = main(["exp", "transparency", "--trials", "20", "--seed", "2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    # sha256 of stdout: a change to an experiment's draws, counts or JSON
    # layout moves it
    @pytest.mark.parametrize("argv, digest", [
        ("exp detection --kind cross --trials 200 --seed 1",
         "e7dd7bc6c871185476642cef1ef9747e78049fb78fb8c777df791371ade87260"),
        ("exp collision --trials 500 --seed 2",
         "94cdab3f63adf6cbfff99ed96159952b3ae489377a2a2393648beafd491a9a1b"),
        ("exp transparency --trials 20 --seed 3",
         "7c67c9ac9a78533b8a26c536536d8ceaf70060f59f5d8c2cb42886b731339e29"),
    ], ids=["detection", "collision", "transparency"])
    def test_stdout_is_pinned(self, argv, digest, capsys):
        assert main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Each argv case carries its id, so adding a case renames no other.  The
# first cases keep the ids pytest gave them by position; name a new case
# by its argv joined with spaces.
_BAD_ARGV = {
    "argv0": ["run", "TRACE", "--sampling-rate", "0"],
    "argv1": ["run", "TRACE", "--access-threshold", "0"],
    "argv2": ["run", "TRACE", "--alloc-threshold", "-1"],
    "argv3": ["exp", "collision", "--trials", "0"],
    "argv4": ["exp", "detection", "--trials", "0"],
    "argv5": ["exp", "collision", "--trials", "-3"],
    "argv6": ["exp", "vulnerable-fraction", "--trials", "0"],
    "argv7": ["exp", "transparency", "--trials", "0"],
    "argv8": ["exp", "detection", "--kind", "uaf", "--reuse-cycles", "-2"],
    "argv9": ["exp", "vulnerable-fraction", "--uniform", "5:2"],
    "argv10": ["exp", "vulnerable-fraction", "--uniform", "0:8"],
    "argv11": ["gen", "--kind", "benign", "--accesses", "-3", "--out", "OUT"],
    "argv12": ["gen", "--kind", "benign", "--preamble", "-2", "--out", "OUT"],
    "argv13": ["gen", "--kind", "uaf", "--reuse-cycles", "-5", "--out", "OUT"],
    "argv14": ["run", "TRACE", "--report", "MISSING_DIR/r.json"],
    # a size past the simulated address space: the run cannot allocate it
    "argv15": ["exp", "detection", "--kind", "cross", "--sizes", str(2**60), "--trials", "1"],
    "argv16": ["exp", "transparency", "--sizes", str(2**60), "--trials", "1"],
    # a negative threshold would send every allocation down the untagged path
    "argv17": ["exp", "detection", "--large-threshold", "-1"],
    "argv18": ["run", "TRACE", "--large-threshold", "-1"],
    # a flag the experiment would ignore
    "argv19": ["exp", "transparency", "--kind", "uaf"],
    "argv20": ["exp", "transparency", "--non-adjacent"],
    "argv21": ["exp", "transparency", "--reuse-cycles", "5"],
    "argv22": ["exp", "collision", "--mode", "off"],
    "argv23": ["exp", "collision", "--sizes", "24"],
    "argv24": ["exp", "vulnerable-fraction", "--no-tripwires"],
    "argv25": ["exp", "vulnerable-fraction", "--include-zero-tag"],
    "argv26": ["exp", "transparency", "--mode", "off"],
    "argv27": ["exp", "transparency", "--no-tripwires"],
    "argv28": ["exp", "transparency", "--alloc-threshold", "5"],
    "argv29": ["exp", "transparency", "--always-arm"],
    "argv30": ["exp", "transparency", "--sampling-rate", "3"],
    "argv31": ["exp", "transparency", "--overread-skip"],
    "argv32": ["exp", "detection", "--overread-skip"],
    # a tagged region costs the host one tag byte per granule: at most 1 MiB
    "argv33": ["run", "TRACE", "--large-threshold", "1048577"],
    "exp vulnerable-fraction --uniform 5": ["exp", "vulnerable-fraction", "--uniform", "5"],
    "exp vulnerable-fraction --sizes 24:1,,": ["exp", "vulnerable-fraction", "--sizes", "24:1,,"],
    "exp detection --sizes 24:0": ["exp", "detection", "--sizes", "24:0"],
    "exp transparency --trials x": ["exp", "transparency", "--trials", "x"],
    "gen --count 0": ["gen", "--kind", "benign", "--count", "0", "--out", "OUT"],
    # two size distributions: the experiment would read only one
    "exp vulnerable-fraction --uniform 1:256 --sizes 40": [
        "exp", "vulnerable-fraction", "--uniform", "1:256", "--sizes", "40"],
    "exp vulnerable-fraction --sizes 40 --uniform 1:256": [
        "exp", "vulnerable-fraction", "--sizes", "40", "--uniform", "1:256"],
}

# Cases whose bad value is one flag's: the message names that flag.
_NAMED_FLAG = {
    "argv0": "--sampling-rate", "argv1": "--access-threshold", "argv2": "--alloc-threshold",
    "argv3": "--trials", "argv4": "--trials", "argv5": "--trials", "argv6": "--trials",
    "argv7": "--trials", "argv8": "--reuse-cycles", "argv9": "--uniform", "argv10": "--uniform",
    "argv11": "--accesses", "argv12": "--preamble", "argv13": "--reuse-cycles",
    "argv17": "--large-threshold", "argv18": "--large-threshold", "argv33": "--large-threshold",
    "exp vulnerable-fraction --uniform 5": "--uniform",
    "exp vulnerable-fraction --sizes 24:1,,": "--sizes",
    "exp detection --sizes 24:0": "--sizes",
    "exp transparency --trials x": "--trials",
    "gen --count 0": "--count",
    "exp vulnerable-fraction --uniform 1:256 --sizes 40": "--sizes",
    "exp vulnerable-fraction --sizes 40 --uniform 1:256": "--uniform",
}


@pytest.mark.parametrize("case", list(_BAD_ARGV), ids=list(_BAD_ARGV))
def test_bad_arguments_exit_2_with_one_line(case, trace_file, tmp_path, capsys):
    out = str(tmp_path / "corpus")
    argv = [trace_file(BENIGN) if a == "TRACE" else out if a == "OUT" else a
            for a in _BAD_ARGV[case]]
    argv = [a.replace("MISSING_DIR", str(tmp_path / "missing")) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    if case in _NAMED_FLAG:
        assert f"argument {_NAMED_FLAG[case]}: " in lines[0]


class TestDefaultsHaveOneSource:
    """Flag defaults are `SimConfig`'s and `WorkloadSpec`'s field defaults."""

    @pytest.fixture(autouse=True)
    def no_env_seed(self, monkeypatch):
        monkeypatch.delenv("MTESIM_SEED", raising=False)

    def test_run_defaults_are_the_config_defaults(self):
        assert _config_from_args(build_parser().parse_args(["run", "t.mtr"])) == SimConfig()

    def test_gen_defaults_are_the_spec_defaults(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr("mtesim.cli.generate_workload", lambda spec: specs.append(spec) or [])
        assert main(["gen", "--kind", "benign", "--out", str(tmp_path)]) == 0
        assert specs == [WorkloadSpec(kind="benign", count=100, seed=0)]

    def test_exp_detection_defaults_are_the_config_and_spec_defaults(self, monkeypatch):
        calls = []

        def exp_detection_rate(*args):
            calls.append(args)
            return SimpleNamespace(to_json=lambda: "{}")
        monkeypatch.setattr("mtesim.cli.exp_detection_rate", exp_detection_rate)
        assert main(["exp", "detection"]) == 0
        assert calls == [("intra", SimConfig(), 1000, 0,
                          WorkloadSpec(kind="intra", count=1, seed=0))]

    def test_every_config_field_but_the_seed_has_a_flag(self):
        parser, default = build_parser(), SimConfig()
        changed = set()
        for flag in (["--mode", "off"], ["--sampling-rate", "7"], ["--alloc-threshold", "3"],
                     ["--access-threshold", "5"], ["--no-tripwires"], ["--overread-skip"],
                     ["--no-odd-even"], ["--large-threshold", "128"],
                     ["--include-zero-tag"]):
            config = _config_from_args(parser.parse_args(["run", "t.mtr", *flag]))
            changed |= {f.name for f in fields(SimConfig)
                        if getattr(config, f.name) != getattr(default, f.name)}
        assert changed == {f.name for f in fields(SimConfig)} - {"seed"}


_ENV_SEED_ARGV = {
    "argv0": ["run", "TRACE"],
    "argv1": ["gen", "--kind", "benign", "--count", "2", "--out", "OUT"],
    "argv2": ["exp", "collision", "--trials", "5"],
    "argv3": ["exp", "detection", "--trials", "5"],
}


@pytest.mark.parametrize("argv", list(_ENV_SEED_ARGV.values()), ids=list(_ENV_SEED_ARGV))
def test_non_integer_env_seed_exits_2_with_one_line(argv, trace_file, tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setenv("MTESIM_SEED", "abc")
    out = tmp_path / "corpus"
    argv = [trace_file(BENIGN) if a == "TRACE" else str(out) if a == "OUT" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: MTESIM_SEED must be an integer, got 'abc'"]
    assert not out.exists()


def test_non_utf8_trace_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "t.mtr"
    path.write_bytes(b"\xff\xfe\x00halt\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: not UTF-8 text")


_OOM_ARGV = {
    "argv0": ["run", "TRACE"],
    "argv1": ["exp", "detection", "--kind", "cross", "--sizes", "60000", "--trials", "1"],
    "argv2": ["exp", "transparency", "--trials", "1"],
    "argv3": ["gen", "--kind", "uaf", "--reuse-cycles", "100000000", "--count", "1",
              "--out", "OUT"],
    "argv4": ["gen", "--kind", "benign", "--count", "3", "--out", "OUT"],
}


@pytest.mark.parametrize("argv", list(_OOM_ARGV.values()), ids=list(_OOM_ARGV))
def test_out_of_host_memory_exits_2_with_one_line(argv, trace_file, tmp_path, capsys,
                                                  monkeypatch):
    # stand in for tagging a region, or generating a corpus, too large for
    # the host, without one.  A region's tags take host memory where a tag
    # page is made: in `set_tag_range`, or in `tag_page` when `allocate`
    # fills a new region within one page itself.
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(TaggedMemory, "set_tag_range", exhausted)
    monkeypatch.setattr(TaggedMemory, "tag_page", exhausted)
    if argv[0] == "gen":
        monkeypatch.setattr(cli, "generate_workload", exhausted)
    argv = [trace_file(BENIGN) if a == "TRACE" else str(tmp_path) if a == "OUT" else a
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith("out of host memory")


def test_gen_out_of_host_memory_while_writing_exits_2_with_one_line(tmp_path, capsys,
                                                                    monkeypatch):
    def exhausted(program):
        raise MemoryError

    monkeypatch.setattr(cli, "render_program", exhausted)
    assert main(["gen", "--kind", "intra", "--count", "2", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: out of host memory"]


@pytest.mark.parametrize("stage", ["read", "parse"])
def test_run_out_of_host_memory_before_the_run_exits_2_naming_the_trace(stage, trace_file,
                                                                         capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    path = trace_file(BENIGN)
    if stage == "read":
        monkeypatch.setattr(Path, "read_text", exhausted)
    else:
        monkeypatch.setattr(cli, "parse_program", exhausted)
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: out of host memory"]


def test_value_error_inside_a_run_exits_2_with_one_line(trace_file, capsys, monkeypatch):
    def bad(program, config):
        raise ValueError("tag out of range: 16")

    monkeypatch.setattr(cli, "run_program", bad)
    assert main(["run", trace_file(BENIGN)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: tag out of range: 16"]


# -- property: any argv exits 0, 1 or 2, and exit 2 is one `error:` line ----
# Arguments are drawn from grammar-shaped pools of good and bad tokens.  Flags
# that set a loop count (trials, programs, accesses, cycles) draw only small
# values so each example runs in milliseconds.

_INTS = st.sampled_from(["-1", "0", "1", "3", "x", "", "1.5", str(2**64)])
_SMALL = st.sampled_from(["-1", "0", "1", "2", "x"])
_SIZES = st.sampled_from(["24:1,40:1", "47", "32:1", "0", "-5", "24:0", "24:-1", "24:nan",
                          "24:inf", "x", "", "24:1,", "24::1", str(2**60)])
_UNIFORM = st.sampled_from(["1:256", "5:2", "0:8", "a:b", "1:2:3", "7", f"1:{2**64}"])
_KINDS = st.sampled_from(["intra", "cross", "uaf", "double_free", "benign", "bogus"])


def _flag(name, values=None):
    return st.just([name]) if values is None else values.map(lambda v: [name, v])


_CONFIG_FLAGS = [
    _flag("--mode", st.sampled_from(["off", "sync", "async", "bogus"])),
    _flag("--seed", _INTS), _flag("--sampling-rate", _INTS),
    _flag("--alloc-threshold", _INTS), _flag("--access-threshold", _INTS),
    _flag("--large-threshold", _INTS), _flag("--no-tripwires"), _flag("--overread-skip"),
    _flag("--no-odd-even"), _flag("--include-zero-tag"), _flag("--always-arm"),
]
_GEN_FLAGS = [
    _flag("--count", _SMALL), _flag("--seed", _INTS), _flag("--preamble", _SMALL),
    _flag("--non-adjacent"), _flag("--reuse-cycles", _SMALL), _flag("--accesses", _SMALL),
]
_EXP_FLAGS = _CONFIG_FLAGS + [
    _flag("--uniform", _UNIFORM), _flag("--non-adjacent"), _flag("--reuse-cycles", _SMALL),
    _flag("--accesses", _SMALL),
]
# the flags each experiment reads; any other flag is a usage error.
# `transparency` sets the mode and the arming itself, and no generated
# program marks an access `overread_ok`.
_CONFIG_FLAG_NAMES = {"--seed", "--access-threshold", "--large-threshold", "--no-odd-even",
                      "--include-zero-tag"}
_ARMING_FLAG_NAMES = {"--mode", "--sampling-rate", "--alloc-threshold", "--no-tripwires",
                      "--always-arm"}
_EXP_READS = {
    "detection": _CONFIG_FLAG_NAMES | _ARMING_FLAG_NAMES | {
        "--trials", "--kind", "--sizes", "--non-adjacent", "--reuse-cycles"},
    "collision": {"--trials", "--seed", "--include-zero-tag"},
    "vulnerable-fraction": {"--trials", "--seed", "--sizes", "--uniform"},
    "transparency": _CONFIG_FLAG_NAMES | {"--trials", "--sizes"},
}


def _flags(pool):
    return st.lists(st.one_of(pool), max_size=4).map(lambda fs: [t for f in fs for t in f])


def _maybe(flag):
    return st.one_of(st.just([]), flag)


# the workload flags most inputs hinge on are drawn on their own, half the time each
_WORKLOAD = st.tuples(_maybe(_flag("--kind", _KINDS)), _maybe(_flag("--sizes", _SIZES))).map(
    lambda t: t[0] + t[1])

_TRACES = {
    "benign": BENIGN.encode(),
    "intra": INTRA.encode(),
    "parse_error": b"ld r0 [r1, #0] w3 p1\nhalt\n",
    "bracket_only": b"]\nhalt\n",
    "superscript_register": "mov r\u00b2 1\nhalt\n".encode(),
    "empty": b"",
    "huge_alloc": f"alloc r0 {2**60}\nhalt\n".encode(),
    "not_utf8": b"\xff\xfe\x00halt\n",
}

_ARGV = st.one_of(
    st.tuples(st.just(["run"]), st.sampled_from(sorted(_TRACES) + ["missing"]),
              _flags(_CONFIG_FLAGS + [_flag("--report", st.sampled_from(["OUT/r.json",
                                                                         "OUT/no/r.json"]))])
              ).map(lambda t: t[0] + ["TRACE:" + t[1]] + t[2]),
    st.tuples(_WORKLOAD, _flags(_GEN_FLAGS), st.sampled_from(["OUT", "OUT/file.mtr/x"])).map(
        lambda t: ["gen"] + t[0] + t[1] + ["--out", t[2]]),
    st.tuples(st.sampled_from(["detection", "collision", "vulnerable-fraction",
                               "transparency", "bogus"]),
              _WORKLOAD, _flags(_EXP_FLAGS), _SMALL).map(
        lambda t: ["exp", t[0]] + t[1] + t[2] + ["--trials", t[3]]),
    st.lists(st.sampled_from(["run", "gen", "exp", "detection", "--trials", "-x", "", "--help"]),
             max_size=4),
)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    for name, text in _TRACES.items():
        (root / f"{name}.mtr").write_bytes(text)
    (root / "file.mtr").write_text("halt\n")
    return root


@settings(max_examples=60, deadline=None)
@given(argv=_ARGV, env_seed=st.sampled_from([None, "7", "abc"]))
def test_any_argv_exits_0_1_or_2_without_traceback(cli_dir, argv, env_seed):
    out = cli_dir / f"out{next(_RUNS)}"
    out.mkdir()
    argv = [str(cli_dir / (a[len("TRACE:"):] + ".mtr")) if a.startswith("TRACE:")
            else a.replace("OUT/file.mtr", str(cli_dir / "file.mtr")).replace("OUT", str(out))
            for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        os.environ.pop("MTESIM_SEED", None)
        if env_seed is not None:
            os.environ["MTESIM_SEED"] = env_seed
        code = main(argv)  # an exception escaping here is the traceback a user would see
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
        assert stdout.getvalue() == "", (argv, stdout.getvalue())
    if argv[:1] == ["exp"] and argv[1:2] and argv[1] in _EXP_READS:
        ignored = {a for a in argv[2:] if a.startswith("--")} - _EXP_READS[argv[1]]
        if ignored:   # refused while parsing, before the experiment runs
            assert code == 2 and err.startswith("error: mtesim"), (argv, err)
