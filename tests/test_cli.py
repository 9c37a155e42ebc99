import json

import pytest

from mtesim.cli import main


INTRA = "alloc r0 40\nst r1 [r0, #36] w8 p1\nhalt\n"
BENIGN = "alloc r0 40\nst r1 [r0, #8] w8 p1\nhalt\n"


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
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert list(manifest) == ["kind", "seed", "count", "size_distribution"]
        assert manifest["kind"] == "intra" and manifest["count"] == 20

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

    def test_transparency(self, capsys):
        code = main(["exp", "transparency", "--trials", "20", "--seed", "2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("argv", [
    ["run", "TRACE", "--sampling-rate", "0"],
    ["run", "TRACE", "--access-threshold", "0"],
    ["run", "TRACE", "--alloc-threshold", "-1"],
    ["exp", "collision", "--trials", "0"],
    ["exp", "detection", "--trials", "0"],
    ["exp", "collision", "--trials", "-3"],
    ["exp", "vulnerable-fraction", "--trials", "0"],
    ["exp", "transparency", "--trials", "0"],
    ["exp", "detection", "--kind", "uaf", "--reuse-cycles", "-2"],
    ["exp", "vulnerable-fraction", "--uniform", "5:2"],
    ["gen", "--kind", "benign", "--accesses", "-3", "--out", "OUT"],
    ["gen", "--kind", "benign", "--preamble", "-2", "--out", "OUT"],
    ["gen", "--kind", "uaf", "--reuse-cycles", "-5", "--out", "OUT"],
])
def test_bad_arguments_exit_2_with_one_line(argv, trace_file, tmp_path, capsys):
    out = str(tmp_path / "corpus")
    argv = [trace_file(BENIGN) if a == "TRACE" else out if a == "OUT" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
