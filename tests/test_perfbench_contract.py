"""The benchmark's tracer (``perfbench/spans.py``) patches program functions
and methods by name. Entering and leaving it here makes a renamed or removed
name fail the test suite rather than a traced benchmark run."""

import importlib.util
from pathlib import Path

from brclake import lakeformat, lakehouse, staging

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
