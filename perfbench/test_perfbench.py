"""The benchmark's own tests, at tiny scale.

    PYTHONPATH=src python3 -m pytest perfbench -q

Tiny stand-ins replace the three workloads (same names and kinds, small
subjects), so every path of ``run.py`` runs in seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

import compare
import run
import tracing
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


@pytest.fixture
def tiny(monkeypatch):
    """Tiny subjects under the real workload names."""
    specs = dict(workloads.WORKLOADS)
    for name, scale in (("check-oocore", 0.1), ("check-resident", 0.05),
                        ("serve-edits", 2)):
        specs[name] = dataclasses.replace(specs[name], scale=scale, setups=2)
    monkeypatch.setattr(workloads, "WORKLOADS", specs)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.2)


def bench(capsys, workload, trace, seconds=1.0, seed=None):
    argv = ["--workload", workload, "--seconds", str(seconds),
            "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out[:-1]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(tiny, capsys, workload, trace):
    result, lines = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        names = {line.split()[0] for line in lines}
        printed = ({"check_s"} if workload.startswith("check") else
                 {"cold_scan_s", "edit_p50_s", "edit_p90_s", "query_p50_s"})
        assert printed | {"setup_s", "peak_rss_mb", "failed_ratio"} <= names
        assert not any(line.startswith("FAILED") for line in lines)
    elif workload == "serve-edits":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # cold scan (one stratum per cluster) plus one per scripted edit
        assert metrics["serve.strata_rechecked"] == 2 + 4


def test_other_seed_keeps_exact_accounting(tiny, capsys):
    result, _ = bench(capsys, "check-resident", 0, seed=45)
    assert result["correct"]


def test_dropped_seed_is_a_failure(tiny, capsys, monkeypatch):
    generate = workloads.generate

    def drop_one(spec, seed):
        sources, seeds = generate(spec, seed)
        return sources, seeds[1:]

    monkeypatch.setattr(workloads, "generate", drop_one)
    for workload in ("check-resident", "serve-edits"):
        result, lines = bench(capsys, workload, 0)
        assert not result["correct"] and result["failed"] >= 1
        assert any(line.startswith("FAILED") for line in lines)


def test_wrong_edit_expectation_is_a_failure():
    edit = workloads.Edit("g0app.mini", "", added=("taint", "g0app.f"))
    fragment = {"edit": {"strata_rechecked": 1, "errors": {},
                         "warnings_added": [], "warnings_retracted": []}}
    assert run._edit_errors(fragment, edit)
    fragment["edit"]["warnings_added"] = [
        {"checker": "taint", "func": "g0app.f"}]
    assert run._edit_errors(fragment, edit) == []
    fragment["edit"]["strata_rechecked"] = 2
    assert run._edit_errors(fragment, edit)


def test_edit_script_is_pad_bug_pad_revert():
    spec = workloads.WORKLOADS["serve-edits"]
    packs = set()
    for seed in range(7, 27):
        sources, _ = workloads.generate(spec, seed)
        pad, bug, pad2, revert = workloads.edit_script(sources, seed)
        assert not (pad.added or pad.retracted or pad2.added
                    or pad2.retracted)
        assert bug.added and revert.retracted == bug.added
        assert revert.path == bug.path
        assert revert.text == sources[bug.path]
        # consecutive edits touch different clusters (strata)
        clusters = [re.match(r"g\d+", e.path).group()
                    for e in (pad, bug, pad2, revert)]
        assert all(a != b for a, b in zip(clusters, clusters[1:]))
        packs.add(bug.added[0])
    assert packs == set(workloads.BUG_BODIES)


def test_self_times_sum_to_the_traced_wall(tmp_path):
    spec = dataclasses.replace(workloads.WORKLOADS["check-oocore"],
                               scale=0.1)
    sources, _ = workloads.generate(spec, spec.default_seed)
    workloads.write_sources(str(tmp_path / "in"), sources)
    spans = str(tmp_path / "spans.json")
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=run.SRC)
    subprocess.run(
        [sys.executable, os.path.join(run.HERE, "tracing.py"), spans, "--",
         "check", str(tmp_path / "in" / "subject.mini"), *spec.check_args],
        env=env, check=False, capture_output=True, timeout=120)
    with open(spans) as f:
        doc = json.load(f)
    assert not doc["missing"]
    metrics = tracing.layer_metrics(doc)
    wall = doc["t1"] - doc["t0"]
    layers = sum(metrics[f"{name}_s"] for name in tracing.LAYER_TIMES)
    assert layers + metrics["unattributed_s"] == pytest.approx(wall,
                                                               abs=1e-6)
    # Every check passes through these layers, and the spans cover most
    # of the wall: what is left is start-up, imports and printing
    # (4-12% of the wall on the reference host).
    for name in ("lang.parse_s", "lang.callgraph_s", "cfet.icfet_s",
                 "graph.alias_build_s", "engine.alias_closure_s",
                 "engine.dataflow_closure_s", "checkers.extract_s"):
        assert metrics[name] > 0, name
    assert 0 < metrics["unattributed_s"] < 0.25 * wall
    assert metrics["engine.partition_loads"] > 0
    assert metrics["fs.atomic_writes"] > 0


RESULT = {"workload": "check-resident", "trace": 0, "seconds": 40.0,
          "host": run.host_record(), "attempted": 3, "failures": [],
          "metrics": {m["name"]: 1.0 for m in BENCH["end_to_end"]}}


def compare_with(tmp_path, **head) -> int:
    """``compare.main`` on one base result against it changed by
    ``head``."""
    for side, doc in (("base", RESULT), ("head", dict(RESULT, **head))):
        os.makedirs(tmp_path / side, exist_ok=True)
        (tmp_path / side / "r.json").write_text(json.dumps(doc))
    return compare.main([str(tmp_path / "base"), str(tmp_path / "head")])


def test_same_results_compare_ok(tmp_path):
    assert compare_with(tmp_path) == 0


def test_different_hosts_or_windows_are_not_compared(tmp_path, capsys):
    assert compare_with(tmp_path,
                        host=dict(RESULT["host"], cpu_count=64)) == 2
    assert compare_with(tmp_path, seconds=10.0) == 2
    assert capsys.readouterr().out.count("not comparable") == 2


def test_failed_head_is_a_regression_however_fast(tmp_path, capsys):
    fast = {name: 0.5 for name in RESULT["metrics"]}
    assert compare_with(tmp_path, metrics=fast,
                        failures=["check: exit 3"]) == 1
    assert "failed operations 0 -> 1 REGRESSION" in capsys.readouterr().out


def test_missing_wrapper_target_fails_the_traced_run(tmp_path):
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps({"t0": 0.0, "t1": 1.0, "spans": [],
                                 "counts": {},
                                 "missing": ["repro.x:gone"]}))

    class Tally:
        attempted, failures, record = 0, [], run.Run.record

    probe = Tally()
    assert run.traced_layers(probe, str(spans), "check") is None
    assert probe.failures and "repro.x:gone" in probe.failures[0]
    assert run.traced_layers(probe, str(tmp_path / "none.json"),
                             "serve") is None
    assert len(probe.failures) == 2
