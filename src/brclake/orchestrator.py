"""DAG workflow scheduling: dependency ordering, retries with exponential
backoff, backfill over historical windows, and replay-based crash recovery.

Every state transition is appended to a durable run log before it takes
effect, so a killed scheduler resumes exactly where the log ends: Succeeded
tasks are never re-run, and a resumed run logs a requeue of each task the log
leaves interrupted (Running at the same attempt, Retrying at the next), so
its log replays like any other. Under a simulated clock the whole execution
is deterministic — ready tasks start in task-id order, backoff has no
jitter, and actions run at most ``max_parallel_tasks`` per scheduling
instant.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from functools import partial
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Any, Callable

from .errors import (
    ActionNotRegistered,
    ConfigInvalid,
    CorruptRunLog,
    CycleDetected,
    RunLogUnavailable,
)
from .fixedpoint import US_PER_DAY
from .localfile import (JSON_DEFAULT, acquire_lock, config_from_json, fsync_append, last_line,
                        load_json_config, read_json, read_lines, record_bytes, record_from_json)
from .objectstore import path_segment

PENDING = "Pending"
QUEUED = "Queued"
RUNNING = "Running"
SUCCEEDED = "Succeeded"
FAILED = "Failed"
RETRYING = "Retrying"

_LEGAL = {
    (PENDING, QUEUED),
    (PENDING, FAILED),  # upstream failure, never ran
    (QUEUED, FAILED),
    (QUEUED, RUNNING),
    (RUNNING, SUCCEEDED),
    (RUNNING, FAILED),
    (RUNNING, RETRYING),
    (RUNNING, QUEUED),  # requeued on resume after a kill
    (RETRYING, QUEUED),
}


# -- schedule ------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    anchor_us: int = field(metadata={JSON_DEFAULT: lambda: 0})
    period_us: int


@dataclass(frozen=True)
class DailyAt:
    hour: int = 0
    minute: int = 0


Schedule = Interval | DailyAt


def next_run_after(schedule: Schedule, t_us: int) -> int:
    """First schedule instant strictly after t_us."""
    if isinstance(schedule, Interval):
        if t_us < schedule.anchor_us:
            return schedule.anchor_us
        periods = (t_us - schedule.anchor_us) // schedule.period_us + 1
        return schedule.anchor_us + periods * schedule.period_us
    offset = (schedule.hour * 3600 + schedule.minute * 60) * 1_000_000
    candidate = (t_us // US_PER_DAY) * US_PER_DAY + offset
    return candidate if candidate > t_us else candidate + US_PER_DAY


def schedule_instants(schedule: Schedule, from_us: int, to_us: int) -> list[int]:
    """All schedule instants within [from_us, to_us)."""
    out = []
    t = next_run_after(schedule, from_us - 1)
    while t < to_us:
        out.append(t)
        t = next_run_after(schedule, t)
    return out


# -- DAG definition ---------------------------------------------------------------

@dataclass
class RetryPolicy:
    max_attempts: int = 1
    base_delay_s: int = 5
    cap_delay_s: int = 300


@dataclass
class TaskSpec:
    task_id: str
    depends_on: list[str] = field(metadata={JSON_DEFAULT: list})
    action: str
    params: dict[str, Any] = field(default_factory=dict)
    retry: RetryPolicy = field(default_factory=RetryPolicy)


@dataclass
class DagSpec:
    dag_id: str
    schedule: Schedule
    tasks: list[TaskSpec] = field(default_factory=list)
    max_parallel_tasks: int = 1

    def task_map(self) -> dict[str, TaskSpec]:
        return {t.task_id: t for t in self.tasks}

    def validate(self) -> list[str]:
        """Check the DAG and return its task order (see topo_order)."""
        schedule = self.schedule
        if isinstance(schedule, Interval) and schedule.period_us <= 0:
            raise ConfigInvalid("interval.period_us", "must be > 0")
        if isinstance(schedule, DailyAt) and not (0 <= schedule.hour < 24 and 0 <= schedule.minute < 60):
            raise ConfigInvalid("daily_at", f"bad time {schedule.hour:02}:{schedule.minute:02}")
        if not self.dag_id:
            raise ConfigInvalid("dag_id", "must be non-empty")
        if self.max_parallel_tasks < 1:
            raise ConfigInvalid("max_parallel_tasks", "must be >= 1")
        seen = set()
        for task in self.tasks:
            if task.task_id in seen:
                raise ConfigInvalid("tasks", f"duplicate task id {task.task_id!r}")
            seen.add(task.task_id)
            if task.retry.max_attempts < 1:
                raise ConfigInvalid("retry.max_attempts", "must be >= 1")
        for task in self.tasks:
            for dep in task.depends_on:
                if dep not in seen:
                    raise ConfigInvalid("depends_on", f"{task.task_id!r} depends on unknown {dep!r}")
        return topo_order(self)  # raises CycleDetected

    @classmethod
    def from_dict(cls, obj: dict) -> "DagSpec":
        """Read and validate a DAG from its JSON form; a missing or ill-typed
        field, or a key that names no field, raises ConfigInvalid naming it."""
        dag = config_from_json(cls, obj)
        dag.validate()
        return dag


def load_dags(dags_dir: str | Path) -> dict[str, DagSpec]:
    """The DAGs of the ``*.json`` files in dags_dir, by id; a dags_dir that
    is not a directory raises ConfigInvalid."""
    if not Path(dags_dir).is_dir():
        raise ConfigInvalid("dags_dir", f"{dags_dir} is not a directory")
    dags = {}
    for path in sorted(Path(dags_dir).glob("*.json")):
        dag = load_json_config(path, DagSpec.from_dict)
        dags[dag.dag_id] = dag
    return dags


def topo_order(dag: DagSpec) -> list[str]:
    """Dependency-respecting order, ties broken by ascending task_id. A cycle
    raises CycleDetected listing it with each task before its dependency."""
    sorter = TopologicalSorter({t.task_id: t.depends_on for t in dag.tasks})
    try:
        sorter.prepare()
    except CycleError as exc:
        raise CycleDetected(exc.args[1][::-1]) from None
    ready = sorted(sorter.get_ready())  # a sorted list is a heap
    order = []
    while ready:
        tid = heapq.heappop(ready)
        order.append(tid)
        sorter.done(tid)
        for nxt in sorter.get_ready():
            heapq.heappush(ready, nxt)
    return order


def backoff_delay(retry: RetryPolicy, attempt: int) -> int:
    """Seconds to wait after a failure of the given attempt (1-based)."""
    return min(retry.base_delay_s * 2 ** (attempt - 1), retry.cap_delay_s)


# -- clock ----------------------------------------------------------------------------

class WallClock:
    def now_us(self) -> int:
        return time.time_ns() // 1000

    def sleep_until(self, t_us: int) -> None:
        delta = t_us - self.now_us()
        if delta > 0:
            time.sleep(delta / 1_000_000)


class SimClock:
    """Manual clock: sleeping jumps time forward instantly."""

    def __init__(self, start_us: int = 0):
        self._now = start_us

    def now_us(self) -> int:
        return self._now

    def sleep_until(self, t_us: int) -> None:
        if t_us > self._now:
            self._now = t_us


# -- durable run log ---------------------------------------------------------------------

@dataclass
class Transition:
    """One run-log line: a task entering a state. A Retrying line gives the
    backoff delay, a Retrying or Failed line the error, and a line failing a
    task whose dependency failed the cause."""

    at_us: int
    task_id: str
    attempt: int
    state: str
    cause: str | None = None
    delay_s: int | None = None
    error: str | None = None


class RunLog:
    """Append-only JSONL transition log for one (dag, logical_time) run."""

    def __init__(self, path: Path):
        self.path = path

    def append(self, transition: Transition) -> None:
        """Log transition durably. A full disk raises StorageFull, any other
        I/O error RunLogUnavailable naming the file."""
        try:
            fsync_append(self.path, record_bytes(transition) + b"\n")
        except OSError as exc:
            raise RunLogUnavailable(f"cannot append to {self.path}: {exc}") from None

    def replay(self) -> list[Transition]:
        """Transitions logged so far. A torn trailing line from a crash
        mid-append is truncated first, so the next append starts cleanly. A
        log that cannot be read at all is CorruptRunLog at line 0."""
        if not self.path.exists():
            return []
        try:
            last_line(self.path, repair=True)
            lines = read_lines(self.path)
        except OSError as exc:
            raise CorruptRunLog(0, f"cannot read {self.path}: {exc}") from None
        return [read_json(line, partial(record_from_json, Transition),
                          lambda detail: CorruptRunLog(n, f"line {n}: {detail}"))
                for n, line in enumerate(lines, start=1)]


def recover(transitions: list[Transition]) -> dict[str, tuple[str, int]]:
    """Fold a transition log into per-task (state, attempt) as last logged,
    validating legality; execute_run requeues the work it leaves
    interrupted."""
    states: dict[str, tuple[str, int]] = {}
    for i, tr in enumerate(transitions, start=1):
        prev = states.get(tr.task_id, (PENDING, 1))[0]
        if (prev, tr.state) not in _LEGAL:
            raise CorruptRunLog(i, f"illegal transition {prev} -> {tr.state} for {tr.task_id!r}")
        states[tr.task_id] = (tr.state, tr.attempt)
    return states


# -- execution ------------------------------------------------------------------------------

@dataclass
class ActionContext:
    """Everything a task action gets to see."""

    logical_time_us: int
    params: dict[str, Any]


ActionFn = Callable[[ActionContext], Any]


@dataclass
class RunResult:
    dag_id: str
    logical_time_us: int
    states: dict[str, str]
    attempts: dict[str, int]
    succeeded: bool


def run_log_path(runs_root: Path, dag_id: str, logical_time_us: int) -> Path:
    return Path(runs_root) / path_segment("dag_id", dag_id) / str(logical_time_us) / "events.jsonl"


def execute_run(
    dag: DagSpec,
    logical_time_us: int,
    registry: dict[str, ActionFn],
    clock,
    runs_root: Path,
) -> RunResult:
    """Execute (or resume) one run of a DAG at a logical time."""
    order = dag.validate()
    tasks = dag.task_map()
    for task in dag.tasks:
        if task.action not in registry:
            raise ActionNotRegistered(task.task_id, task.action)

    log = RunLog(run_log_path(runs_root, dag.dag_id, logical_time_us))
    states = {tid: PENDING for tid in order}
    attempts = {tid: 1 for tid in order}
    for tid, (state, attempt) in recover(log.replay()).items():
        states[tid] = state
        attempts[tid] = attempt
    wake: dict[str, int] = {}

    def transition(tid: str, state: str, **details) -> None:
        log.append(Transition(clock.now_us(), tid, attempts[tid], state, **details))
        states[tid] = state

    for tid in order:  # requeue work a killed run left: Running at its attempt, Retrying at the next
        if states[tid] in (RUNNING, RETRYING):
            if states[tid] == RETRYING:  # its backoff deadline died with the process
                attempts[tid] += 1
            transition(tid, QUEUED)

    while True:
        for tid in order:  # propagate upstream failure without running
            if states[tid] in (PENDING, QUEUED) and any(states[d] == FAILED for d in tasks[tid].depends_on):
                transition(tid, FAILED, cause="upstream")
        for tid in order:
            if states[tid] == PENDING and all(states[d] == SUCCEEDED for d in tasks[tid].depends_on):
                transition(tid, QUEUED)

        runnable = [tid for tid in order
                    if states[tid] == QUEUED and all(states[d] == SUCCEEDED for d in tasks[tid].depends_on)]
        batch = sorted(runnable)[: dag.max_parallel_tasks]
        if batch:
            for tid in batch:
                transition(tid, RUNNING)
            for tid in batch:
                task = tasks[tid]
                try:
                    registry[task.action](ActionContext(logical_time_us, task.params))
                except Exception as exc:  # noqa: BLE001 - task failure is data here
                    attempt = attempts[tid]
                    if attempt < task.retry.max_attempts:
                        delay_s = backoff_delay(task.retry, attempt)
                        transition(tid, RETRYING, delay_s=delay_s, error=str(exc))
                        wake[tid] = clock.now_us() + delay_s * 1_000_000
                    else:
                        transition(tid, FAILED, error=str(exc))
                else:
                    transition(tid, SUCCEEDED)
            continue

        retrying = [tid for tid in order if states[tid] == RETRYING]
        if retrying:
            clock.sleep_until(min(wake[tid] for tid in retrying))
            now = clock.now_us()
            for tid in sorted(retrying):
                if wake[tid] <= now:
                    attempts[tid] += 1
                    transition(tid, QUEUED)
            continue

        break  # every task terminal

    return RunResult(
        dag_id=dag.dag_id,
        logical_time_us=logical_time_us,
        states=dict(states),
        attempts=dict(attempts),
        succeeded=all(s == SUCCEEDED for s in states.values()),
    )


def backfill(
    dag: DagSpec,
    from_us: int,
    to_us: int,
    registry: dict[str, ActionFn],
    clock,
    runs_root: Path,
) -> list[RunResult]:
    """One run per schedule instant in [from_us, to_us), ascending, sequential.

    Runs whose log already shows every task Succeeded are resumed as no-ops,
    so an interrupted backfill picks up where it stopped.
    """
    if from_us >= to_us:
        raise ConfigInvalid("backfill", "window must be non-empty")
    dag.validate()
    return [
        execute_run(dag, t, registry, clock, runs_root)
        for t in schedule_instants(dag.schedule, from_us, to_us)
    ]


# -- scheduler process ---------------------------------------------------------------------------

class Scheduler:
    """Owns a runs directory (single process via lock file) and executes DAGs."""

    def __init__(self, runs_root: str | Path, registry: dict[str, ActionFn], clock=None):
        self.runs_root = Path(runs_root)
        self.registry = registry
        self.clock = clock or WallClock()
        self._lock = acquire_lock(self.runs_root / "lock", f"scheduler runs root {self.runs_root}")

    def close(self) -> None:
        self._lock.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run_once(self, dag: DagSpec, logical_time_us: int) -> RunResult:
        return execute_run(dag, logical_time_us, self.registry, self.clock, self.runs_root)

    def backfill(self, dag: DagSpec, from_us: int, to_us: int) -> list[RunResult]:
        return backfill(dag, from_us, to_us, self.registry, self.clock, self.runs_root)

    def run_forever(self, dags: dict[str, DagSpec], until_us: int | None = None) -> list[RunResult]:
        """Execute each DAG at its schedule instants until until_us (or forever)."""
        for dag in dags.values():
            dag.validate()
        results = []
        pending = {dag_id: next_run_after(dag.schedule, self.clock.now_us())
                   for dag_id, dag in dags.items()}
        while pending:
            dag_id = min(pending, key=lambda d: (pending[d], d))
            t = pending[dag_id]
            if until_us is not None and t >= until_us:
                pending.pop(dag_id)
                continue
            self.clock.sleep_until(t)
            results.append(self.run_once(dags[dag_id], t))
            pending[dag_id] = next_run_after(dags[dag_id].schedule, t)
        return results
