import json

import pytest

from brclake.errors import AssertionFailed, ConfigInvalid
from brclake.harness import Expected, Scenario, main, oracle_events, run_scenario


def _scenario_dict(crash_points=None, count=800, compact=False):
    return {
        "name": "t",
        "connectors": [
            {"connector_id": "h1", "kind": "synthetic", "source": "syn1",
             "symbols": {"BTCUSDT": "BTC-USDT", "ETHUSDT": "ETH-USDT"},
             "seed": 21, "count": count, "dup_prob_bp": 300,
             "ingest_time_mode": "event_time", "batch_size": 50},
        ],
        "export_max_records": 200,
        "compact_after": compact,
        "crash_points": crash_points or [],
        "expected": {"rows": count},
    }


def test_oracle_counts_distinct_identities():
    scenario = Scenario.from_dict(_scenario_dict(count=300))
    events = oracle_events(scenario.connectors)
    assert len(events) == 300
    assert len({e.identity for e in events}) == 300
    assert events == sorted(events, key=lambda e: e.sort_key())


def test_expected_is_a_record():
    assert Scenario.from_dict(_scenario_dict(count=5)).expected == Expected(rows=5)
    assert Scenario.from_dict({**_scenario_dict(), "expected": {}}).expected == Expected()


@pytest.mark.parametrize("expected", [{"rows": "100"}, {"rows": True}, {"rows": None}, []],
                         ids=["string_rows", "bool_rows", "null_rows", "not_object"])
def test_ill_typed_expected_is_config_invalid(expected):
    with pytest.raises(ConfigInvalid) as err:
        Scenario.from_dict({**_scenario_dict(), "expected": expected})
    assert err.value.field == ("expected" if expected == [] else "expected.rows")


def test_scenario_requires_deterministic_ingest_time():
    bad = _scenario_dict()
    bad["connectors"][0]["ingest_time_mode"] = "wall"
    with pytest.raises(AssertionFailed):
        Scenario.from_dict(bad)


def test_scenario_rejects_unknown_crash_site():
    with pytest.raises(AssertionFailed):
        Scenario.from_dict(_scenario_dict(crash_points=["not.a.site"]))


def test_run_scenario_clean(tmp_path):
    report = run_scenario(Scenario.from_dict(_scenario_dict(count=400)), tmp_path / "run")
    assert report["passed"], report
    assert report["row_counts"]["oracle"] == 400
    assert report["row_counts"]["query"] == 400


def test_run_scenario_requires_clean_root(tmp_path):
    root = tmp_path / "dirty"
    root.mkdir()
    (root / "junk").write_text("x")
    with pytest.raises(AssertionFailed):
        run_scenario(Scenario.from_dict(_scenario_dict()), root)


def test_unreached_crash_point_is_an_error(tmp_path):
    scenario = Scenario.from_dict(_scenario_dict(crash_points=["ingest.append:99999"]))
    with pytest.raises(AssertionFailed):
        run_scenario(scenario, tmp_path / "run")


def test_crash_run_matches_no_crash_run(tmp_path):
    crash = Scenario.from_dict(_scenario_dict(
        crash_points=["ingest.append:3", "etl.post_commit_pre_checkpoint", "etl.mid_compaction"],
        compact=True,
    ))
    clean = Scenario.from_dict(_scenario_dict(compact=True))
    crash_report = run_scenario(crash, tmp_path / "crash")
    clean_report = run_scenario(clean, tmp_path / "clean")
    assert crash_report["passed"] and clean_report["passed"]
    crashed_csv = (tmp_path / "crash" / "query.csv").read_bytes()
    clean_csv = (tmp_path / "clean" / "query.csv").read_bytes()
    assert crashed_csv == clean_csv


def test_report_determinism(tmp_path):
    scenario = _scenario_dict(count=200)
    r1 = run_scenario(Scenario.from_dict(scenario), tmp_path / "a")
    r2 = run_scenario(Scenario.from_dict(scenario), tmp_path / "b")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_harness_cli(tmp_path):
    import subprocess
    import sys
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(_scenario_dict(count=150)))
    result = subprocess.run(
        [sys.executable, "-m", "brclake.harness", "run", str(scenario_path),
         "--data-root", str(tmp_path / "run")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["passed"] and report["row_counts"]["oracle"] == 150


def test_scenario_with_replay_connector(tmp_path):
    replay_path = tmp_path / "feed.jsonl"
    lines = []
    for i in range(40):
        lines.append(json.dumps({
            "source": "filefeed", "stream": "trade", "raw_symbol": "BTCUSDT",
            "event_time_us": 1_600_000_000_000_000 + i * 1000,
            "payload": {"price": "101.5", "qty": "2", "side": "buy", "id": f"r-{i}"},
        }))
    replay_path.write_text("\n".join(lines) + "\n")
    scenario = Scenario.from_dict({
        "name": "replay",
        "connectors": [
            {"connector_id": "r1", "kind": "replay", "source": "filefeed",
             "symbols": {"BTCUSDT": "BTC-USDT"}, "replay_path": str(replay_path),
             "ingest_time_mode": "event_time"},
        ],
        "expected": {"rows": 40},
    })
    report = run_scenario(scenario, tmp_path / "run")
    assert report["passed"], report
    assert report["row_counts"]["query"] == 40


def test_main_reports_bad_scenario_file_as_typed_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text("{")
    assert main(["run", str(path), "--data-root", str(tmp_path / "run")]) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "ConfigInvalid"
