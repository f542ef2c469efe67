"""The scratch store: a resident store's spill directory (DESIGN.md §7, §11).

Nothing resumes from the directory a throwaway run spills to, so its
partition writes go once to a fresh name -- no temp file, no fsync, no
rename -- and the superseded file is removed.  An explicit workdir
keeps the durable temp + fsync + rename path.
"""

import os
import tempfile

import pytest

from repro import Grapple, GrappleOptions, default_checkers
from repro.engine import serialize
from repro.engine.computation import EngineOptions
from repro.engine.io_pipeline import PrefetchReader
from repro.engine.partition import PartitionStore
from repro.engine.stats import EngineStats
from repro.workloads import generate_subject
from repro.workloads.generator import SubjectProfile

# The tiny subject's alias graph starts at 216 edges (~6.9 KB), so this
# budget spills both phases and splits them into 16 and 11 partitions.
BUDGET = 4096


@pytest.fixture(scope="module")
def source():
    profile = SubjectProfile(
        name="tiny", version="0", description="", target_loc=150,
        bugs={"io": (2, 1), "exception": (2, 0), "socket": (1, 0)}, seed=5,
    )
    return generate_subject(profile).source


@pytest.fixture(scope="module")
def oracle(source):
    return _warnings(Grapple(source, _fsms()).run())


@pytest.fixture()
def tmpdir_env(tmp_path, monkeypatch):
    """An empty directory standing in for ``TMPDIR``."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return tmp


def _fsms():
    return [c.fsm for c in default_checkers()]


def _warnings(run):
    return [
        (w.checker, w.kind, w.site, w.type_name, w.state, w.func, w.line)
        for w in run.report.warnings
    ]


def _run(source, budget=BUDGET, **engine):
    return Grapple(
        source, _fsms(),
        GrappleOptions(engine=EngineOptions(memory_budget=budget, **engine)),
    ).run()


def _cleanup(run):
    for phase in (run.alias_phase, run.dataflow_phase):
        phase.engine_result.cleanup()


def _spy(monkeypatch, owner, name, calls, fail=None):
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        if fail is not None:
            raise fail
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def test_over_budget_throwaway_run_makes_no_durable_write(
        source, oracle, tmpdir_env, monkeypatch):
    writes, replaces, fsyncs = [], [], []
    _spy(monkeypatch, PartitionStore, "_write_once", writes)
    _spy(monkeypatch, os, "replace", replaces,
         fail=AssertionError("os.replace in a scratch store"))
    _spy(monkeypatch, os, "fsync", fsyncs,
         fail=AssertionError("os.fsync in a scratch store"))
    run = _run(source)
    assert _warnings(run) == oracle
    assert run.alias_phase.engine_result.stats.store_spills == 1
    assert writes and not replaces and not fsyncs
    _cleanup(run)
    assert os.listdir(tmpdir_env) == []


def test_explicit_workdir_keeps_durable_writes(source, oracle, tmp_path,
                                               monkeypatch):
    """Every partition write in an explicit workdir is temp + fsync +
    rename, and the directory ends with the same files as before
    scratch stores existed: the manifest and one file per partition.
    (A larger budget than the other tests': every durable write costs
    milliseconds, and the serial engine checkpoints after every pair.)"""
    saves, atomic, replaces, fsyncs, scratch = [], [], [], [], []
    _spy(monkeypatch, PartitionStore, "_save", saves)
    _spy(monkeypatch, serialize, "atomic_write_bytes", atomic)
    _spy(monkeypatch, os, "replace", replaces)
    _spy(monkeypatch, os, "fsync", fsyncs)
    _spy(monkeypatch, PartitionStore, "_write_once", scratch)
    workdir = tmp_path / "wd"
    run = _run(source, budget=16384, workdir=str(workdir))
    assert _warnings(run) == oracle
    part_writes = [
        args for args in atomic
        if os.path.basename(args[0]).startswith("part_")
    ]
    assert saves and len(part_writes) == len(saves)
    assert len(replaces) >= len(saves) and len(fsyncs) >= len(saves)
    assert not scratch
    assert sorted(os.listdir(workdir)) == ["alias", "dataflow"]
    for phase, count in (("alias", 4), ("dataflow", 3)):
        assert sorted(os.listdir(workdir / phase)) == ["checkpoint.json"] + [
            f"part_{2 * i:05d}.bin" for i in range(count)
        ]


def test_scratch_dir_holds_one_file_per_partition(source, oracle,
                                                  tmpdir_env, monkeypatch):
    """After every partition write the spill directory holds only the
    current partition and delta files -- superseded versions are gone
    and no ``.tmp`` is ever left."""
    real_save = PartitionStore._save
    checked = []

    def save_and_check(store, part, cols):
        real_save(store, part, cols)
        names = os.listdir(store.workdir)
        parts = {os.path.basename(p.path) for p in store.partitions}
        deltas = {os.path.basename(p.delta_path) for p in store.partitions}
        assert {n for n in names if n.startswith("part_")} <= parts
        assert {n for n in names if n.startswith("delta_")} <= deltas
        assert not [n for n in names if n.endswith(".tmp")]
        checked.append(len(names))

    monkeypatch.setattr(PartitionStore, "_save", save_and_check)
    run = _run(source)
    assert _warnings(run) == oracle
    assert len(checked) > 20
    _cleanup(run)
    assert os.listdir(tmpdir_env) == []


def test_prefetch_of_superseded_path_is_a_miss(tmpdir_env):
    edges = {
        src: {(src + 100, 0): {(("I", "f", 0, src),)}} for src in range(8)
    }
    stats = EngineStats()
    store = PartitionStore(None, memory_budget=64, stats=stats,
                           prefetch=PrefetchReader())
    store.initialize(edges, num_vertices=200, min_partitions=2)
    assert store.scratch
    part = store.partitions[0]
    cols = store.load(part)
    expected = cols.to_dict()
    store.save(part, cols)
    old = part.path
    store.flush()
    assert part.path != old and not os.path.exists(old)
    # A read scheduled against the old name at the current version can
    # only fail: the file is gone, never rewritten in place.
    store._cache.pop(part.index)
    hits, misses = stats.prefetch_hits, stats.prefetch_misses
    store.prefetch.schedule(part.index, part.version, old, part.delta_path)
    assert store.load(part).to_dict() == expected
    assert (stats.prefetch_hits, stats.prefetch_misses) == (hits, misses + 1)
    store.drop_pipeline()
