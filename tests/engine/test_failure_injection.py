"""Failure-injection tests: corrupt files, hostile options, tiny budgets."""

import os
import tempfile

import pytest

from repro import Grapple, GrappleOptions, default_checkers
from repro.cfet import encoding as enc
from repro.cfet.icfet import build_icfet
from repro.engine import serialize
from repro.engine.columnar import ROW_BYTES
from repro.engine.computation import EngineOptions, GraphEngine
from repro.engine.partition import PartitionStore
from repro.grammar.cfg_grammar import Grammar
from repro.graph.model import ProgramGraph
from repro.lang.parser import parse_program
from repro.lang.transform import lower_exceptions, normalize_calls, unroll_loops
from repro.workloads import generate_subject
from repro.workloads.generator import SubjectProfile


@pytest.fixture()
def icfet():
    program = parse_program("func main(x) { if (x > 0) { } return; }")
    normalize_calls(program)
    unroll_loops(program)
    lower_exceptions(program)
    return build_icfet(program)


class ChainGrammar(Grammar):
    table_driven = True

    def compose(self, edge1, edge2, ctx):
        if edge1[2] == ("a",) and edge2[2] == ("a",):
            return (("a",),)
        return ()


def chain(n):
    graph = ProgramGraph()
    for i in range(n):
        graph.vertices.intern(("v", i))
    for i in range(n - 1):
        graph.add_edge(i, i + 1, ("a",), enc.single("main", 0))
    return graph


def test_truncated_partition_file_raises(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20, cache_slots=2)
    store.initialize({0: {(1, 0): {(("I", "f", 0, 0),)}}}, num_vertices=2,
                     min_partitions=1)
    part = store.partitions[0]
    data = open(part.path, "rb").read()
    with open(part.path, "wb") as f:
        f.write(data[: len(data) // 2])
    store._cache.clear()
    with pytest.raises((IndexError, ValueError)):
        store.load(part)


def test_corrupt_magic_raises(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20, cache_slots=2)
    store.initialize({0: {(1, 0): {(("I", "f", 0, 0),)}}}, num_vertices=2,
                     min_partitions=1)
    part = store.partitions[0]
    with open(part.path, "wb") as f:
        f.write(b"NOPE" + b"\x01" * 16)
    store._cache.clear()
    with pytest.raises(ValueError):
        store.load(part)


def test_missing_partition_file_raises(tmp_path):
    store = PartitionStore(str(tmp_path), memory_budget=1 << 20, cache_slots=2)
    store.initialize({0: {(1, 0): {(("I", "f", 0, 0),)}}}, num_vertices=2,
                     min_partitions=1)
    part = store.partitions[0]
    os.remove(part.path)
    store._cache.clear()
    # A vanished file is indistinguishable from a torn one: both surface
    # as CorruptPartition so the retry layer can attempt a rebuild.
    with pytest.raises(serialize.CorruptPartition):
        store.load(part)


def test_serializer_rejects_unknown_element():
    with pytest.raises(ValueError):
        serialize.encode_partition({0: {(1, 0): {(("X", 1),)}}})


def test_engine_workdir_created_if_missing(tmp_path, icfet):
    workdir = str(tmp_path / "deep" / "nested" / "dir")
    options = EngineOptions(workdir=workdir, memory_budget=1 << 20)
    engine = GraphEngine(icfet, ChainGrammar(), options)
    result = engine.run(chain(3))
    assert result.stats.edges_after >= 2
    assert os.path.isdir(workdir)


def test_extreme_small_budget_still_correct(icfet):
    """A budget far below a single partition's floor must not break the
    fixpoint (splits bottom out at single-vertex partitions)."""
    options = EngineOptions(memory_budget=256, min_partitions=2)
    engine = GraphEngine(icfet, ChainGrammar(), options)
    result = engine.run(chain(8))
    pairs = {(s, d) for s, d, _l, _e in result.iter_edges()}
    assert (0, 7) in pairs
    assert len(pairs) == 8 * 7 // 2
    assert result.stats.final_partitions >= 2


def test_max_pairs_cap_halts(icfet):
    options = EngineOptions(memory_budget=1 << 20, max_pairs=1)
    engine = GraphEngine(icfet, ChainGrammar(), options)
    result = engine.run(chain(10))
    assert result.stats.pairs_processed == 1


def test_zero_unroll_rejected():
    from repro.analysis.frontend import compile_source

    with pytest.raises(ValueError):
        compile_source("func main() { }", unroll=0)


# -- residency: throwaway runs stay in memory until the budget overflows ----


@pytest.fixture()
def tmpdir_env(tmp_path, monkeypatch):
    """An empty directory standing in for ``TMPDIR``."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return tmp


def _closure(result):
    return sorted(result.iter_edges())


def test_fitting_run_creates_no_files(tmpdir_env, icfet):
    result = GraphEngine(
        icfet, ChainGrammar(), EngineOptions(memory_budget=1 << 20)
    ).run(chain(16))
    assert len(_closure(result)) == 16 * 15 // 2
    assert result.store.workdir is None
    assert result.stats.store_spills == 0
    assert os.listdir(tmpdir_env) == []
    result.cleanup()  # nothing to remove; must not fail


def test_graph_just_over_budget_spills_and_cleans_up(tmpdir_env, icfet):
    """An initial graph one byte over the budget goes out of core before
    its first partition is built; the closure is the resident run's."""
    resident = GraphEngine(
        icfet, ChainGrammar(), EngineOptions(memory_budget=1 << 20)
    ).run(chain(12))
    budget = (12 - 1) * ROW_BYTES - 1
    result = GraphEngine(
        icfet, ChainGrammar(), EngineOptions(memory_budget=budget)
    ).run(chain(12))
    assert _closure(result) == _closure(resident)
    assert result.stats.store_spills == 1
    workdir = result.store.workdir
    assert os.path.dirname(workdir) == str(tmpdir_env)
    assert os.listdir(workdir)
    result.cleanup()
    assert not os.path.exists(workdir)
    assert os.listdir(tmpdir_env) == []


def test_overflow_mid_closure_spills_and_matches_oracle(tmpdir_env, icfet):
    """The initial partitions fit; derived edges push the store past the
    budget during the closure, and the result still equals a run that
    never left memory."""
    resident = GraphEngine(
        icfet, ChainGrammar(), EngineOptions(memory_budget=1 << 20)
    ).run(chain(16))
    result = GraphEngine(
        icfet, ChainGrammar(), EngineOptions(memory_budget=2048)
    ).run(chain(16))
    assert (16 - 1) * ROW_BYTES <= 2048  # the initial graph fits
    assert resident.stats.store_spills == 0
    assert result.stats.store_spills == 1
    assert _closure(result) == _closure(resident)
    result.cleanup()
    assert os.listdir(tmpdir_env) == []


def test_partition_count_follows_budget_not_residency(tmpdir_env, icfet):
    """Residency must not change the partition count: it still varies
    with the budget, and matches what the always-on-disk store produced
    for the same throwaway runs (2 / 3 / 6 / 11)."""
    counts = {}
    for budget in (1 << 20, 4096, 2048, 1024):
        result = GraphEngine(
            icfet, ChainGrammar(), EngineOptions(memory_budget=budget)
        ).run(chain(16))
        counts[budget] = result.stats.final_partitions
        result.cleanup()
    assert counts == {1 << 20: 2, 4096: 3, 2048: 6, 1024: 11}


def _tiny_subject_source():
    profile = SubjectProfile(
        name="tiny", version="0", description="", target_loc=150,
        bugs={"io": (2, 1), "exception": (2, 0), "socket": (1, 0)}, seed=5,
    )
    return generate_subject(profile).source


def _warnings(run):
    return [
        (w.checker, w.kind, w.site, w.type_name, w.state, w.func, w.line)
        for w in run.report.warnings
    ]


@pytest.mark.parametrize("mode", ["just-over", "mid-closure"])
def test_spilling_pipeline_matches_serial_oracle(tmpdir_env, mode):
    """Both overflow points keep the checkers' warnings -- order
    included -- identical to the resident serial run's."""
    source = _tiny_subject_source()
    fsms = [c.fsm for c in default_checkers()]
    oracle = Grapple(source, fsms).run()
    alias = oracle.alias_phase.engine_result.stats
    assert alias.store_spills == 0
    if mode == "just-over":
        budget = alias.edges_before * ROW_BYTES - 1
    else:
        budget = (alias.edges_before + alias.edges_after) * ROW_BYTES // 2
    run = Grapple(
        source, fsms,
        GrappleOptions(engine=EngineOptions(memory_budget=budget)),
    ).run()
    assert run.report.warnings
    assert _warnings(run) == _warnings(oracle)
    assert run.alias_phase.engine_result.stats.store_spills == 1
    assert os.listdir(tmpdir_env)
    for phase in (run.alias_phase, run.dataflow_phase):
        phase.engine_result.cleanup()
    assert os.listdir(tmpdir_env) == []
