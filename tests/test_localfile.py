import dataclasses
import json
import types
import typing
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brclake.errors import ConfigInvalid
from brclake.events import ConnectorConfig, RateLimit
from brclake.harness import Scenario
from brclake.ingest import ConnectorState, SyntheticState
from brclake.lakeformat import ColumnChunk, ColumnSchema, Encoding, FileFooter
from brclake.lakehouse import AddFile, LogEntry, PartitionKey, RemoveFile, SetSchema
from brclake.localfile import record_from_json, record_to_json
from brclake.orchestrator import DagSpec, DailyAt, Interval, RetryPolicy, TaskSpec, Transition

RECORDS = [LogEntry, AddFile, PartitionKey, RemoveFile, SetSchema, ColumnSchema, FileFooter, ColumnChunk,
           ConnectorConfig, RateLimit, DagSpec, TaskSpec, RetryPolicy, Interval, DailyAt,
           Scenario, Transition, ConnectorState, SyntheticState]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


def _values(tp: Any) -> st.SearchStrategy:
    """Values of the annotated type tp, records built field by field."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return st.builds(tp, **{f.name: _field_values(hints[f.name]) for f in dataclasses.fields(tp)})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return st.one_of([_values(arg) for arg in args])
    if origin in (list, tuple):
        return st.lists(_values(args[0]), max_size=3).map(origin)
    if tp is dict or origin is dict:
        return st.dictionaries(st.text(), _values(args[1]) if args else JSON_VALUES, max_size=3)
    if tp is Any:
        return JSON_VALUES
    if tp is type(None):
        return st.none()
    return st.from_type(tp)


def _field_values(tp: Any) -> st.SearchStrategy:
    """Values of a field annotated tp. A field holding None is written as an
    absent key, so an Any field, which has no default, never holds it."""
    return JSON_VALUES.filter(lambda v: v is not None) if tp is Any else _values(tp)


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_record_json_round_trip(cls, data):
    record = data.draw(_values(cls))
    assert record_from_json(cls, json.loads(json.dumps(record_to_json(record)))) == record


_ADD = {"path": "p", "partition": {"symbol": "A-B", "date": "2021-03-01"}, "rows": 1, "bytes": 1,
        "min_event_time_us": 0, "max_event_time_us": 0}


_CHUNK = {"encoding": "DICT", "value_count": 1, "byte_offset": 4, "byte_length": 1, "crc32c": 0,
          "min": 1, "max": 1}


@pytest.mark.parametrize("cls, obj, field", [
    (LogEntry, 5, "log_entry"),
    (LogEntry, {"version": 1, "parent": 0, "committed_at_us": 0, "committer": "w",
                "actions": [{"add_file": {**_ADD, "partition": {"symbol": "A-B", "date": 1}}}]},
     "add_file.partition.date"),
    (LogEntry, {"version": 1, "parent": 0, "committed_at_us": 0, "committer": "w",
                "actions": [{"add_file": _ADD, "remove_file": {"path": "p"}}]}, "actions"),
    (TaskSpec, {"task_id": "a", "action": "n", "depends_on": ["b", 1]}, "depends_on"),
    (TaskSpec, {"task_id": "a"}, "action"),
    (DagSpec, {"dag_id": "d", "schedule": {"daily_at": {"minute": "5"}}}, "daily_at.minute"),
    (DagSpec, {"dag_id": "d", "schedule": {"interval": {"period_us": 1}}, "tasks": [{"task_id": 1}]},
     "task_id"),
    (ConnectorState, {"seq_counters": {"k": "1"}}, "seq_counters"),
    (ConnectorState, {"synthetic": {"next_index": 0, "prng_state": 0, "price_e8": 0}},
     "synthetic.last_event_time_us"),
    (ConnectorState, {"replay_line": None}, "replay_line"),
    (ColumnChunk, {**_CHUNK, "encoding": "ZSTD"}, "encoding"),
    (ColumnChunk, {**_CHUNK, "encoding": "__class__"}, "encoding"),
    (ColumnChunk, {**_CHUNK, "encoding": 2}, "encoding"),
    (ColumnChunk, {k: v for k, v in _CHUNK.items() if k != "min"}, "min"),
], ids=["not_object", "nested_prefix", "two_union_tags", "array_element", "required",
        "union_member_prefix", "array_record_prefix", "dict_value", "optional_record_field",
        "null_optional", "unknown_enum_name", "enum_attribute_name", "enum_by_value", "missing_any"])
def test_ill_typed_field_is_config_invalid_naming_it(cls, obj, field):
    with pytest.raises(ConfigInvalid) as err:
        record_from_json(cls, obj)
    assert err.value.field == field


def test_enum_field_is_coded_by_member_name():
    chunk = record_from_json(ColumnChunk, _CHUNK)
    assert chunk.encoding is Encoding.DICT
    assert record_to_json(chunk) == _CHUNK


@pytest.mark.parametrize("value", [True, False, 0, -1, "x", "", [1, None, False], {"a": True}, None],
                         ids=["true", "false", "zero", "negative", "text", "empty_text", "array",
                              "object", "null"])
def test_any_field_passes_any_json_value(value):
    chunk = record_from_json(ColumnChunk, {**_CHUNK, "min": value})
    assert chunk.min == value and type(chunk.min) is type(value)
