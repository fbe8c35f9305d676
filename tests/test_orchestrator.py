import heapq
import json
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brclake.errors import (
    ActionNotRegistered,
    ConfigInvalid,
    CorruptRunLog,
    CycleDetected,
    SessionLockHeld,
)
from brclake.etl import ExportParams
from brclake.events import ConnectorConfig
from brclake.fixedpoint import US_PER_DAY, iso_to_us
from brclake.harness import Scenario
from brclake.localfile import config_from_json, record_from_json
from brclake.orchestrator import (
    DagSpec,
    DailyAt,
    Interval,
    RetryPolicy,
    RunLog,
    Scheduler,
    SimClock,
    TaskSpec,
    Transition,
    backfill,
    backoff_delay,
    execute_run,
    load_dags,
    next_run_after,
    recover,
    run_log_path,
    schedule_instants,
    topo_order,
)

MIN = 60_000_000
EVERY_MINUTE = Interval(anchor_us=0, period_us=MIN)


def _dag(tasks, parallel=1, dag_id="d"):
    return DagSpec(dag_id, EVERY_MINUTE, tasks, parallel)


def _read_log(runs_root, dag_id, t):
    return [json.loads(line) for line in
            run_log_path(Path(runs_root), dag_id, t).read_text().splitlines()]


# -- schedule arithmetic -------------------------------------------------------

def test_interval_next_after():
    assert next_run_after(EVERY_MINUTE, 130_000_000) == 180_000_000
    assert next_run_after(EVERY_MINUTE, 60_000_000) == 120_000_000
    assert next_run_after(EVERY_MINUTE, -1) == 0


def test_daily_at_strictly_after():
    schedule = DailyAt(0, 5)
    t = iso_to_us("2021-03-04T00:05:00Z")
    assert next_run_after(schedule, t) == iso_to_us("2021-03-05T00:05:00Z")
    assert next_run_after(schedule, t - 1) == t


@given(st.integers(min_value=0, max_value=10**15), st.integers(min_value=1, max_value=10**9),
       st.integers(min_value=-10**15, max_value=10**15))
@settings(max_examples=100, deadline=None)
def test_next_after_is_aligned_and_strict(anchor, period, t):
    schedule = Interval(anchor, period)
    nxt = next_run_after(schedule, t)
    assert nxt > t
    assert (nxt - anchor) % period == 0
    assert nxt - t <= period or nxt == anchor


# -- topo ----------------------------------------------------------------------------

def test_topo_tie_break_by_id():
    dag = _dag([
        TaskSpec("D", ["B", "C"], "a"), TaskSpec("C", ["A"], "a"),
        TaskSpec("B", ["A"], "a"), TaskSpec("A", [], "a"),
    ])
    assert topo_order(dag) == ["A", "B", "C", "D"]


def test_topo_single_task():
    assert topo_order(_dag([TaskSpec("only", [], "a")])) == ["only"]


def test_cycle_detected_with_listing():
    dag = DagSpec("d", EVERY_MINUTE, [TaskSpec("A", ["B"], "a"), TaskSpec("B", ["A"], "a")])
    with pytest.raises(CycleDetected) as err:
        topo_order(dag)
    assert set(err.value.cycle) >= {"A", "B"}


def _reference_order(dag):
    """Kahn's algorithm with a min-heap of ready ids, the order topo_order
    keeps: the ready task with the smallest id comes next."""
    tasks = dag.task_map()
    indegree = {tid: len(t.depends_on) for tid, t in tasks.items()}
    dependents = {tid: [] for tid in tasks}
    for tid, task in tasks.items():
        for dep in task.depends_on:
            dependents[dep].append(tid)
    ready = [tid for tid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        tid = heapq.heappop(ready)
        order.append(tid)
        for nxt in dependents[tid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    return order


def _random_dag(seed):
    """Up to 12 tasks whose ids are shuffled against their build order; each
    task depends on up to 3 earlier-built tasks, so the DAG is acyclic."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    ids = [f"t{k:02}" for k in range(n)]
    rng.shuffle(ids)
    tasks = [TaskSpec(ids[i], rng.sample(ids[:i], rng.randint(0, min(i, 3))), "a") for i in range(n)]
    rng.shuffle(tasks)
    return _dag(tasks)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_topo_order_matches_the_min_heap_reference(seed):
    dag = _random_dag(seed)
    assert topo_order(dag) == _reference_order(dag)
    assert dag.validate() == topo_order(dag)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_cycle_listing_is_a_closed_walk_along_dependencies(seed):
    dag = _random_dag(seed)
    tasks = dag.task_map()

    def ancestors(tid):  # every task tid depends on, directly or not
        seen, stack = set(), [tid]
        while stack:
            new = set(tasks[stack.pop()].depends_on) - seen
            seen |= new
            stack += new
        return seen

    rng = random.Random(seed)
    late = rng.choice(sorted(tasks))
    early = rng.choice(sorted(ancestors(late)) or [late])  # no ancestor: the back edge is a self-dependency
    tasks[early].depends_on.append(late)
    with pytest.raises(CycleDetected) as err:
        topo_order(dag)
    cycle = err.value.cycle
    assert len(cycle) >= 2 and cycle[0] == cycle[-1]
    assert all(dep in tasks[tid].depends_on for tid, dep in zip(cycle, cycle[1:]))


def test_dependency_violations_respected_in_log(tmp_path):
    ran = []
    dag = _dag([
        TaskSpec("c", ["a", "b"], "track"), TaskSpec("a", [], "track"),
        TaskSpec("b", ["a"], "track"),
    ], parallel=2)
    registry = {"track": lambda ctx: ran.append(1)}
    execute_run(dag, 0, registry, SimClock(0), tmp_path)
    log = _read_log(tmp_path, "d", 0)
    succeeded_at = {}
    for i, tr in enumerate(log):
        if tr["state"] == "Succeeded":
            succeeded_at[tr["task_id"]] = i
        if tr["state"] == "Running":
            for dep in {"a": [], "b": ["a"], "c": ["a", "b"]}[tr["task_id"]]:
                assert dep in succeeded_at and succeeded_at[dep] < i


# -- backoff ---------------------------------------------------------------------------

def test_backoff_formula():
    retry = RetryPolicy(max_attempts=10, base_delay_s=5, cap_delay_s=300)
    assert backoff_delay(retry, 1) == 5
    assert backoff_delay(retry, 3) == 20
    assert backoff_delay(retry, 10) == 300


# -- execute_run -----------------------------------------------------------------------------

def test_all_succeed_single_attempts(tmp_path):
    dag = _dag([TaskSpec("a", [], "ok"), TaskSpec("b", ["a"], "ok")])
    result = execute_run(dag, 60, {"ok": lambda ctx: None}, SimClock(0), tmp_path)
    assert result.succeeded
    assert result.attempts == {"a": 1, "b": 1}


def test_flaky_task_retries_with_backoff_instants(tmp_path):
    calls = {"n": 0}

    def flaky(ctx):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise RuntimeError("scripted")

    dag = _dag([TaskSpec("b", [], "flaky", retry=RetryPolicy(3, 5, 300))])
    clock = SimClock(0)
    result = execute_run(dag, 0, {"flaky": flaky}, clock, tmp_path)
    assert result.succeeded and result.attempts["b"] == 3
    queued = [tr["at_us"] for tr in _read_log(tmp_path, "d", 0) if tr["state"] == "Queued"]
    assert queued == [0, 5_000_000, 15_000_000]  # +5 s, then +10 s


def test_exhausted_attempts_fail_and_propagate(tmp_path):
    def bad(ctx):
        raise RuntimeError("always")

    dag = _dag([
        TaskSpec("a", [], "bad", retry=RetryPolicy(2, 5, 300)),
        TaskSpec("b", ["a"], "ok"), TaskSpec("c", ["b"], "ok"),
    ])
    result = execute_run(dag, 0, {"bad": bad, "ok": lambda ctx: None}, SimClock(0), tmp_path)
    assert not result.succeeded
    assert result.states == {"a": "Failed", "b": "Failed", "c": "Failed"}
    log = _read_log(tmp_path, "d", 0)
    assert not any(tr["task_id"] in ("b", "c") and tr["state"] == "Running" for tr in log)
    assert any(tr["task_id"] == "b" and tr.get("cause") == "upstream" for tr in log)


def test_action_not_registered(tmp_path):
    dag = _dag([TaskSpec("a", [], "ghost")])
    with pytest.raises(ActionNotRegistered):
        execute_run(dag, 0, {}, SimClock(0), tmp_path)


def test_parallelism_bound_in_log(tmp_path):
    dag = _dag([TaskSpec(f"t{i}", [], "ok") for i in range(7)], parallel=3)
    execute_run(dag, 0, {"ok": lambda ctx: None}, SimClock(0), tmp_path)
    running = 0
    peak = 0
    for tr in _read_log(tmp_path, "d", 0):
        if tr["state"] == "Running":
            running += 1
            peak = max(peak, running)
        elif tr["state"] in ("Succeeded", "Failed", "Retrying"):
            running -= 1
    assert peak == 3


def test_determinism_across_repetitions(tmp_path):
    def make_flaky():
        calls = {"n": 0}

        def flaky(ctx):
            calls["n"] += 1
            if calls["n"] % 3 != 0:
                raise RuntimeError(f"scripted {calls['n'] % 3}")

        return flaky

    logs = []
    for rep in range(10):
        root = tmp_path / f"rep{rep}"
        dag = _dag([
            TaskSpec("a", [], "ok"),
            TaskSpec("b", ["a"], "flaky", retry=RetryPolicy(5, 5, 300)),
            TaskSpec("c", ["b"], "ok"),
        ])
        registry = {"ok": lambda ctx: None, "flaky": make_flaky()}
        execute_run(dag, 0, registry, SimClock(777), root)
        logs.append(run_log_path(root, "d", 0).read_bytes())
    assert all(log == logs[0] for log in logs)


# -- recovery ----------------------------------------------------------------------------------

def test_recover_running_becomes_queued_same_attempt(tmp_path):
    """recover folds the log as written; the resumed run logs the requeue of
    the task the log leaves Running, at the same attempt."""
    transitions = [
        Transition(0, "a", 1, "Queued"), Transition(0, "a", 1, "Running"),
        Transition(1, "a", 1, "Succeeded"),
        Transition(1, "b", 2, "Queued"), Transition(1, "b", 2, "Running"),
    ]
    assert recover(transitions) == {"a": ("Succeeded", 1), "b": ("Running", 2)}
    log = RunLog(run_log_path(tmp_path, "d", 0))
    for transition in transitions:
        log.append(transition)
    dag = _dag([TaskSpec("a", [], "ok"), TaskSpec("b", [], "ok", retry=RetryPolicy(3))])
    result = execute_run(dag, 0, {"ok": lambda ctx: None}, SimClock(9), tmp_path)
    assert result.succeeded and result.attempts == {"a": 1, "b": 2}
    assert log.replay()[len(transitions):] == [
        Transition(9, "b", 2, "Queued"), Transition(9, "b", 2, "Running"), Transition(9, "b", 2, "Succeeded")]


def test_run_killed_after_any_log_line_resumes_to_a_log_that_replays(tmp_path):
    """A retrying run's log cut after each of its lines, as a kill leaves it,
    resumes to success twice over, and the log it ends with replays."""
    calls = []

    def flaky(ctx):
        calls.append(ctx)
        if len(calls) <= 2:
            raise RuntimeError("scripted")

    dag = _dag([TaskSpec("a", [], "ok"), TaskSpec("b", ["a"], "flaky", retry=RetryPolicy(3, 5, 300)),
                TaskSpec("c", ["b"], "ok")])
    ok = {"ok": lambda ctx: None}
    execute_run(dag, 0, {**ok, "flaky": flaky}, SimClock(0), tmp_path / "full")
    lines = run_log_path(tmp_path / "full", "d", 0).read_bytes().splitlines(keepends=True)
    assert "Retrying" in {tr["state"] for tr in _read_log(tmp_path / "full", "d", 0)}
    for cut in range(1, len(lines)):
        root = tmp_path / f"cut{cut}"
        log = RunLog(run_log_path(root, "d", 0))
        log.path.parent.mkdir(parents=True)
        log.path.write_bytes(b"".join(lines[:cut]))
        for _ in range(2):  # the resume, then a visit that finds it done
            assert execute_run(dag, 0, {**ok, "flaky": lambda ctx: None}, SimClock(0), root).succeeded
        assert {state for state, _ in recover(log.replay()).values()} == {"Succeeded"}


def test_recover_rejects_illegal_transition():
    with pytest.raises(CorruptRunLog):
        recover([Transition(0, "a", 1, "Running")])  # skipped Queued


def test_recover_all_terminal_no_work():
    state = recover([
        Transition(0, "a", 1, "Queued"), Transition(0, "a", 1, "Running"),
        Transition(0, "a", 1, "Failed"),
    ])
    assert state == {"a": ("Failed", 1)}


def test_resume_never_reruns_succeeded(tmp_path):
    ran = []

    def once(ctx):
        ran.append(ctx.params["name"])

    tasks = [TaskSpec("a", [], "once", params={"name": "a"}),
             TaskSpec("b", ["a"], "once", params={"name": "b"})]
    dag = _dag(tasks)
    execute_run(dag, 0, {"once": once}, SimClock(0), tmp_path)
    assert ran == ["a", "b"]
    result = execute_run(dag, 0, {"once": once}, SimClock(0), tmp_path)
    assert result.succeeded and ran == ["a", "b"]  # resumed as a no-op


def test_torn_trailing_log_line_ignored(tmp_path):
    log = RunLog(run_log_path(tmp_path, "d", 0))
    log.append(Transition(0, "a", 1, "Queued"))
    with open(log.path, "ab") as f:
        f.write(b'{"at_us": 1, "task_id": "a"')  # crash mid-append
    assert [t.state for t in log.replay()] == ["Queued"]
    dag = _dag([TaskSpec("a", [], "ok")])
    for _ in range(2):  # resume, then re-visit: the torn fragment must not corrupt the log
        assert execute_run(dag, 0, {"ok": lambda ctx: None}, SimClock(0), tmp_path).succeeded
    assert [t.state for t in log.replay()] == ["Queued", "Running", "Succeeded"]


def test_transition_line_is_pinned(tmp_path):
    transition = Transition(120_000_000, "export", 2, "Retrying", delay_s=10, error="boom")
    log = RunLog(run_log_path(tmp_path, "d", 0))
    log.append(transition)
    assert log.path.read_bytes() == (b'{"at_us": 120000000, "attempt": 2, "delay_s": 10, "error": "boom", '
                                     b'"state": "Retrying", "task_id": "export"}\n')
    assert log.replay() == [transition]


def test_failed_and_upstream_failed_lines_are_pinned(tmp_path):
    def bad(ctx):
        raise RuntimeError("boom")

    dag = _dag([TaskSpec("a", [], "bad"), TaskSpec("b", ["a"], "ok")])
    execute_run(dag, 0, {"bad": bad, "ok": lambda ctx: None}, SimClock(7), tmp_path)
    log = RunLog(run_log_path(tmp_path, "d", 0))
    assert log.path.read_bytes() == (
        b'{"at_us": 7, "attempt": 1, "state": "Queued", "task_id": "a"}\n'
        b'{"at_us": 7, "attempt": 1, "state": "Running", "task_id": "a"}\n'
        b'{"at_us": 7, "attempt": 1, "error": "boom", "state": "Failed", "task_id": "a"}\n'
        b'{"at_us": 7, "attempt": 1, "cause": "upstream", "state": "Failed", "task_id": "b"}\n')
    assert log.replay()[2:] == [Transition(7, "a", 1, "Failed", error="boom"),
                                Transition(7, "b", 1, "Failed", cause="upstream")]


@pytest.mark.parametrize("line", [
    "[1]",
    '"x"',
    "5",
    '{"at_us": 1, "task_id": "a", "attempt": "1", "state": "Running"}',
    '{"at_us": 1, "task_id": 5, "attempt": 1, "state": "Running"}',
    '{"at_us": 1.5, "task_id": "a", "attempt": 1, "state": "Running"}',
    '{"at_us": 1, "task_id": "a", "attempt": 1, "state": null}',
    '{"at_us": 1, "task_id": "a", "attempt": 1}',
    '{"at_us": 1, "task_id": "a", "attempt": 1, "state": "Retrying", "delay_s": "10"}',
], ids=["array", "string", "number", "string_attempt", "int_task_id", "float_at_us", "null_state", "no_state",
        "string_delay_s"])
def test_ill_typed_run_log_line_is_corrupt_run_log(tmp_path, line):
    log = RunLog(run_log_path(tmp_path, "d", 0))
    log.append(Transition(0, "a", 1, "Queued"))
    with open(log.path, "a") as f:
        f.write(line + "\n")
    with pytest.raises(CorruptRunLog) as err:
        log.replay()
    assert err.value.line_no == 2 and "line 2" in err.value.detail


def test_run_log_that_cannot_be_read_is_corrupt_run_log_at_line_0(tmp_path):
    path = run_log_path(tmp_path, "d", 0)
    path.mkdir(parents=True)  # a directory where the log should be
    with pytest.raises(CorruptRunLog) as err:
        RunLog(path).replay()
    assert err.value.line_no == 0 and str(path) in err.value.detail


# -- backfill ------------------------------------------------------------------------------------

def test_backfill_counts():
    daily = Interval(0, US_PER_DAY)
    assert len(schedule_instants(daily, 0, 3 * US_PER_DAY)) == 3
    assert schedule_instants(daily, 5, 5) == []
    # unaligned window starts at the first instant >= from
    assert schedule_instants(daily, 1, 2 * US_PER_DAY + 1)[0] == US_PER_DAY


def test_backfill_executes_in_order_and_skips_done(tmp_path):
    executed = []

    def act(ctx):
        executed.append(ctx.logical_time_us)

    dag = DagSpec("bf", Interval(0, US_PER_DAY), [TaskSpec("a", [], "act")])
    registry = {"act": act}
    results = backfill(dag, 0, 3 * US_PER_DAY, registry, SimClock(0), tmp_path)
    assert [r.logical_time_us for r in results] == executed == [0, US_PER_DAY, 2 * US_PER_DAY]
    # crash mid-backfill simulation: re-running the window re-executes nothing
    executed.clear()
    backfill(dag, 0, 3 * US_PER_DAY, registry, SimClock(0), tmp_path)
    assert executed == []


def test_backfill_over_a_killed_instant_resumes_then_is_a_no_op(tmp_path):
    """A backfill whose window holds a run killed while its task ran resumes
    that run, and the same backfill run again resumes every run as a no-op."""
    executed = []

    def act(ctx):
        executed.append(ctx.logical_time_us)

    dag = DagSpec("bf", Interval(0, US_PER_DAY), [TaskSpec("a", [], "act")])
    killed = RunLog(run_log_path(tmp_path, "bf", US_PER_DAY))
    killed.append(Transition(0, "a", 1, "Queued"))
    killed.append(Transition(0, "a", 1, "Running"))
    for expected in ([0, US_PER_DAY, 2 * US_PER_DAY], []):
        results = backfill(dag, 0, 3 * US_PER_DAY, {"act": act}, SimClock(0), tmp_path)
        assert all(r.succeeded for r in results) and executed == expected
        executed.clear()
    assert [t.state for t in killed.replay()] == ["Queued", "Running", "Queued", "Running", "Succeeded"]


def test_backfill_empty_window_rejected(tmp_path):
    dag = DagSpec("bf", Interval(0, US_PER_DAY), [TaskSpec("a", [], "act")])
    with pytest.raises(ConfigInvalid):
        backfill(dag, US_PER_DAY, US_PER_DAY, {"act": lambda ctx: None}, SimClock(0), tmp_path)


def test_zero_period_interval_is_config_invalid(tmp_path):
    dag = DagSpec("d", Interval(0, 0), [TaskSpec("a", [], "act")])
    with pytest.raises(ConfigInvalid) as err:
        dag.validate()
    assert err.value.field == "interval.period_us"
    with pytest.raises(ConfigInvalid):
        backfill(dag, 0, US_PER_DAY, {"act": lambda ctx: None}, SimClock(0), tmp_path)
    with Scheduler(tmp_path / "runs", {"act": lambda ctx: None}, clock=SimClock(0)) as scheduler:
        with pytest.raises(ConfigInvalid):
            scheduler.run_forever({"d": dag}, until_us=MIN)


@pytest.mark.parametrize("hour, minute", [(25, 0), (24, 0), (0, 60), (-1, 0)])
def test_daily_at_out_of_range_is_config_invalid(hour, minute):
    with pytest.raises(ConfigInvalid) as err:
        DagSpec("d", DailyAt(hour, minute), []).validate()
    assert err.value.field == "daily_at"


def test_schedule_with_two_kinds_is_config_invalid():
    with pytest.raises(ConfigInvalid) as err:
        DagSpec.from_dict({"dag_id": "d", "schedule": {"interval": {"period_us": MIN},
                                                       "daily_at": {"hour": 1}}})
    assert err.value.field == "schedule"


def test_backfill_after_partial_window(tmp_path):
    """Crash after run 2 of 3: a fresh backfill executes only run 3."""
    executed = []

    def act(ctx):
        executed.append(ctx.logical_time_us)

    dag = DagSpec("bf", Interval(0, US_PER_DAY), [TaskSpec("a", [], "act")])
    registry = {"act": act}
    backfill(dag, 0, 2 * US_PER_DAY, registry, SimClock(0), tmp_path)  # runs 1 and 2
    assert executed == [0, US_PER_DAY]
    executed.clear()
    results = backfill(dag, 0, 3 * US_PER_DAY, registry, SimClock(0), tmp_path)
    assert executed == [2 * US_PER_DAY]
    assert all(r.succeeded for r in results)


# -- dag loading and scheduler lock ------------------------------------------------------------------

def test_dag_json_loading(tmp_path):
    (tmp_path / "pipeline.json").write_text(json.dumps({
        "dag_id": "pipeline",
        "schedule": {"interval": {"anchor_us": 0, "period_us": 300_000_000}},
        "max_parallel_tasks": 2,
        "tasks": [
            {"task_id": "ingest", "action": "ingest.run", "params": {"config_path": "x.json"}},
            {"task_id": "export", "depends_on": ["ingest"], "action": "etl.export",
             "params": {"connector_id": "c", "table_id": "t"},
             "retry": {"max_attempts": 3, "base_delay_s": 5, "cap_delay_s": 300}},
        ],
    }))
    dags = load_dags(tmp_path)
    assert set(dags) == {"pipeline"}
    assert topo_order(dags["pipeline"]) == ["ingest", "export"]
    assert dags["pipeline"].tasks[1].retry.max_attempts == 3


def test_dag_validation_errors(tmp_path):
    with pytest.raises(ConfigInvalid):
        DagSpec.from_dict({"dag_id": "x", "schedule": {}, "tasks": []})
    with pytest.raises(ConfigInvalid):
        DagSpec.from_dict({
            "dag_id": "x", "schedule": {"interval": {"period_us": 1}},
            "tasks": [{"task_id": "a", "action": "n", "depends_on": ["nope"]}],
        })


def _dag_with(**fields) -> dict:
    tasks = [{"task_id": "a", "action": "n"}, {"task_id": "b", "action": "n"},
             {"task_id": "ab", "action": "n", **fields}]
    return {"dag_id": "x", "schedule": {"interval": {"period_us": 1}}, "tasks": tasks}


@pytest.mark.parametrize("build, obj, field", [
    (DagSpec.from_dict, _dag_with(depends_on="ab"), "depends_on"),  # was ['a', 'b']
    (DagSpec.from_dict, _dag_with(retry={"max_attempts": 2.5}), "retry.max_attempts"),  # was 2
    (DagSpec.from_dict, _dag_with(params=[["k", "v"]]), "params"),  # was {'k': 'v'}
    (Scenario.from_dict, {"name": "s", "compact_after": "false"}, "compact_after"),  # was True
], ids=["depends_on_string", "max_attempts_float", "params_pairs", "compact_after_string"])
def test_config_fields_are_not_coerced(build, obj, field):
    with pytest.raises(ConfigInvalid) as info:
        build(obj)
    assert info.value.field == field


_CONNECTOR = {"connector_id": "c", "kind": "synthetic", "source": "syn", "symbols": {"BTCUSDT": "BTC-USDT"},
              "ingest_time_mode": "event_time"}
_INTERVAL = {"interval": {"period_us": 1}}


@pytest.mark.parametrize("cls, obj, field", [
    (DagSpec, _dag_with(max_attempt=3), "max_attempt"),
    (DagSpec, _dag_with(retry={"max_attempt": 3}), "retry.max_attempt"),
    (DagSpec, {**_dag_with(), "max_parallel": 2}, "max_parallel"),
    (DagSpec, {"dag_id": "x", "schedule": {"interval": {"period_us": 1, "anchor": 0}}}, "interval.anchor"),
    (DagSpec, {"dag_id": "x", "schedule": {**_INTERVAL, "every": 5}}, "schedule.every"),
    (ConnectorConfig, {**_CONNECTOR, "sed": 1}, "sed"),
    (ConnectorConfig, {**_CONNECTOR, "rate_limit": {"rate": 1}}, "rate_limit.rate"),
    (Scenario, {"name": "s", "expected": {"row": 5}}, "expected.row"),
    (Scenario, {"name": "s", "connectors": [{**_CONNECTOR, "sed": 1}]}, "sed"),
    (ExportParams, {"connector_id": "c", "table_id": "t", "max_record": 5}, "max_record"),
], ids=["task_key", "retry_key", "dag_key", "union_member_key", "union_key", "connector_key",
        "nested_record_key", "scenario_expected_key", "array_record_key", "action_params_key"])
def test_config_key_that_names_no_field_is_config_invalid(cls, obj, field):
    # An action's params record has no from_dict: its action reads it with config_from_json.
    read = getattr(cls, "from_dict", partial(config_from_json, cls))
    with pytest.raises(ConfigInvalid) as info:
        read(obj)
    assert (info.value.field, info.value.reason) == (field, "names no field")
    record_from_json(cls, obj)  # a stored record's unknown keys are ignored


def test_scheduler_lock_exclusive(tmp_path):
    s1 = Scheduler(tmp_path, {})
    try:
        with pytest.raises(SessionLockHeld):
            Scheduler(tmp_path, {})
    finally:
        s1.close()
    Scheduler(tmp_path, {}).close()


def test_run_forever_until(tmp_path):
    ticks = []
    dag = DagSpec("t", Interval(0, MIN), [TaskSpec("a", [], "tick")])
    with Scheduler(tmp_path, {"tick": lambda ctx: ticks.append(ctx.logical_time_us)},
                   clock=SimClock(0)) as scheduler:
        results = scheduler.run_forever({"t": dag}, until_us=5 * MIN)
    assert ticks == [MIN, 2 * MIN, 3 * MIN, 4 * MIN]
    assert all(r.succeeded for r in results)
