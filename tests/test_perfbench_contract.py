"""The benchmark's tracer (``perfbench/spans.py``) patches program functions
and methods by name. Entering and leaving it here makes a renamed or removed
name fail the test suite rather than a traced benchmark run."""

import importlib.util
from pathlib import Path

from brclake import lakeformat, lakehouse, orchestrator, staging
from brclake.orchestrator import DagSpec, Interval, Scheduler, SimClock, TaskSpec, schedule_instants

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _patched():
    return lakeformat.read_file, lakeformat.write_file, lakehouse.LakeTable.commit, staging.StagingStore.read_from


def test_tracer_patches_every_name_and_restores_it():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = _patched()
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(map(lambda now, before: now is not before, _patched(), originals))
        data = lakeformat.write_file([(1,), (2,)], [lakeformat.ColumnSchema("a", lakeformat.INT64)])
        assert lakeformat.read_file(data).rows() == [(1,), (2,)]
    assert _patched() == originals
    payloads = {name: payload for name, _, _, _, _, payload in tracer.spans}
    assert payloads["lakeformat.write_file"] == len(data)
    assert payloads["lakeformat.read_file"] == (len(data), 2)


def test_backfill_and_run_forever_look_up_execute_run_at_each_run(tmp_path, monkeypatch):
    """The late_increments workload times each run by replacing
    orchestrator.execute_run and then calling orchestrator.backfill; an entry
    point that bound execute_run early would bypass it and record nothing."""
    real_execute_run = orchestrator.execute_run
    calls = []

    def counting_execute_run(*args, **kwargs):
        calls.append(args[1])  # the workload reads the logical time positionally
        return real_execute_run(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "execute_run", counting_execute_run)
    minute = 60_000_000
    dag = DagSpec("d", Interval(0, minute), [TaskSpec("a", [], "noop")])
    registry = {"noop": lambda ctx: None}
    orchestrator.backfill(dag, 0, 3 * minute, registry, SimClock(0), tmp_path / "backfill")
    assert calls == schedule_instants(dag.schedule, 0, 3 * minute) == [0, minute, 2 * minute]
    calls.clear()
    with Scheduler(tmp_path / "forever", registry, clock=SimClock(0)) as scheduler:
        scheduler.run_forever({"d": dag}, until_us=3 * minute)
    assert calls == [minute, 2 * minute]


def test_growth_probe_runs_at_a_tiny_size(monkeypatch):
    """``scripts/growth_probe.py`` imports ``perfbench/`` modules by name;
    a tiny run keeps it working, and its warm handle fetches no file for
    dedup, since it wrote or compacted every live file itself. Only every
    tenth instant compacts, and only its compaction time is given. The
    stored bytes per live row come last."""
    monkeypatch.syspath_prepend(str(SPANS.parent))
    spec = importlib.util.spec_from_file_location("growth_probe", SPANS.parent.parent / "scripts" / "growth_probe.py")
    growth_probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(growth_probe)
    runs, stored_bytes_per_row = growth_probe.probe(history=60, instants=12, per_instant=15)
    assert len(runs) == 12
    assert [gets for _, _, _, gets, _, _ in runs] == [0] * 12
    compactions = [k for k, (*_, compact_s, rows) in enumerate(runs) if compact_s is not None or rows]
    assert compactions == [9] and runs[9][4] > 0  # every tenth instant compacts
    assert 50 < stored_bytes_per_row < 1_000
