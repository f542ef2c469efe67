"""End-to-end CLI roundtrip: generate a subject, then check it."""

import json

import pytest

from repro.cli import main
from repro.obs.report import validate_run_report
from repro.workloads import build_subject, generate_subject
from repro.workloads.generator import SubjectProfile


@pytest.mark.slow
def test_generate_then_check_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "subject.mini"
    assert main(["generate", "zookeeper", "--scale", "0.05",
                 "-o", str(out_path)]) == 0
    capsys.readouterr()  # drain

    # The generated subject seeds real bugs, so `check` must exit 1 and
    # report warnings for every seeded checker.
    code = main(["check", str(out_path), "--stats"])
    out = capsys.readouterr().out
    assert code == 1
    subject = build_subject("zookeeper", scale=0.05)
    expected_checkers = {s.checker for s in subject.seeds}
    for checker in expected_checkers:
        assert f"[{checker}]" in out
    assert "constraints solved" in out


def test_check_single_checker_scopes_report(tmp_path, capsys):
    path = tmp_path / "p.mini"
    path.write_text(
        """
        func main() {
            var f = new FileWriter();
            var s = new Socket();
            s.connect(1);
        }
        """
    )
    main(["check", str(path), "--checkers", "socket"])
    out = capsys.readouterr().out
    assert "[socket]" in out
    assert "[io]" not in out


def test_check_memory_budget_flag(tmp_path, capsys):
    path = tmp_path / "p.mini"
    path.write_text("func main() { var f = new FileWriter(); f.close(); }")
    code = main(["check", str(path), "--memory-budget", "1", "--stats"])
    assert code == 0
    assert "partitions" in capsys.readouterr().out


def test_check_no_cache_flag(tmp_path, capsys):
    path = tmp_path / "p.mini"
    path.write_text("func main() { var f = new FileWriter(); f.close(); }")
    code = main(["check", str(path), "--no-cache", "--stats"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cache hit rate      : 0%" in out


@pytest.mark.parametrize("budget,spills", [("64", 0), ("0.018", 1)])
def test_store_spills_in_stats_and_run_report(tmp_path, capsys, budget,
                                              spills):
    """``store_spills`` tells a resident run from an out-of-core one: 0
    when the graph fits, 1 when only the alias phase outgrows the budget
    (its closure reaches ~21 KB, the dataflow phase's ~16 KB)."""
    profile = SubjectProfile(
        name="tiny", version="0", description="", target_loc=150,
        bugs={"io": (2, 1), "exception": (2, 0), "socket": (1, 0)}, seed=5,
    )
    path = tmp_path / "tiny.mini"
    path.write_text(generate_subject(profile).source)
    report_path = tmp_path / "report.json"
    code = main(["check", str(path), "--memory-budget", budget, "--stats",
                 "--metrics-json", str(report_path)])
    assert code == 1
    assert f"store spills        : {spills} " in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert validate_run_report(report) == []
    assert report["counters"]["store_spills"] == spills
