"""Tests for the ``repro obs`` family and the CLI's run-ledger recording.

The ledger store is isolated per test by the autouse ``_isolated_ledger``
fixture in ``tests/conftest.py`` (it points ``REPRO_LEDGER_DIR`` at a tmp
dir), so ``default_ledger()`` here reads exactly what the command under
test wrote.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.ledger import default_ledger
from repro.obs.monitors import Band, ClaimMonitor


def _bench_envelope(speedup=800.0):
    return {
        "schema": "repro-bench/1",
        "benchmark": "sweep",
        "params": {"seed": 7, "n_a9": 32},
        "timings_s": {"batched_warm": 0.5},
        "speedup": {"batched_warm": speedup},
    }


@pytest.fixture()
def fake_monitor(monkeypatch):
    """Replace the (seconds-long) real monitors with one instant fake."""

    def install(value=1.0):
        fake = ClaimMonitor(
            name="fake",
            claim="fake claim",
            derive=lambda seed: {"metric": value},
            bands={"metric": Band(0.5, 1.5)},
        )
        monkeypatch.setattr("repro.obs.monitors.MONITORS", {"fake": fake})
        return fake

    return install


class TestCliRecording:
    def test_every_subcommand_appends_a_record(self, capsys):
        assert main(["table", "7"]) == 0
        (rec,) = default_ledger().records()
        assert rec.name == "cli/table"
        assert rec.kind == "cli"
        assert rec.exit_code == 0
        assert rec.params["number"] == 7
        assert rec.wall_s > 0

    def test_no_ledger_flag_skips_recording(self, capsys):
        assert main(["--no-ledger", "table", "7"]) == 0
        assert len(default_ledger()) == 0

    def test_env_disable_skips_recording(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert main(["table", "7"]) == 0
        assert len(default_ledger()) == 0

    def test_ledger_dir_flag_overrides_env(self, capsys, tmp_path):
        target = tmp_path / "explicit"
        assert main(["--ledger-dir", str(target), "table", "7"]) == 0
        assert len(default_ledger()) == 0  # env-pointed store untouched
        assert (target / "runs.jsonl").exists()

    def test_obs_family_never_appends_cli_records(self, capsys):
        assert main(["obs", "report"]) == 0
        assert len(default_ledger()) == 0

    def test_same_seed_and_config_reproduce_scalars(self, capsys):
        args = ["schedule", "--intervals", "4", "--seed", "42"]
        assert main(args) == 0
        assert main(args) == 0
        first, second = default_ledger().records(name="cli/schedule")
        assert first.config_digest == second.config_digest
        assert first.scalars == second.scalars
        assert first.scalars  # non-empty: the replay exported its results


class TestObsRecord:
    def test_manual_record(self, capsys):
        rc = main(
            ["obs", "record", "--name", "exp/custom", "--scalar", "x=1.5",
             "--scalar", "y=2", "--seed", "9"]
        )
        assert rc == 0
        (rec,) = default_ledger().records()
        assert rec.name == "exp/custom"
        assert rec.kind == "experiment"
        assert rec.scalars == {"x": 1.5, "y": 2.0}
        assert rec.seed == 9
        assert "recorded exp/custom" in capsys.readouterr().out

    def test_bench_ingestion(self, capsys, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        path.write_text(json.dumps(_bench_envelope()), encoding="utf-8")
        assert main(["obs", "record", "--bench", str(path)]) == 0
        (rec,) = default_ledger().records()
        assert rec.name == "bench/sweep"
        assert rec.scalars["speedup.batched_warm"] == 800.0
        assert rec.seed == 7

    def test_needs_bench_or_name(self, capsys):
        assert main(["obs", "record"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_scalar_pair(self, capsys):
        assert main(["obs", "record", "--name", "x", "--scalar", "oops"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unreadable_envelope(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["obs", "record", "--bench", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


class TestObsReport:
    def test_empty_ledger_hint(self, capsys):
        assert main(["obs", "report"]) == 0
        assert "run ledger is empty" in capsys.readouterr().out

    def test_dashboard_over_recorded_runs(self, capsys):
        main(["obs", "record", "--name", "exp/a", "--scalar", "v=1"])
        main(["obs", "record", "--name", "exp/a", "--scalar", "v=2"])
        capsys.readouterr()
        assert main(["obs", "report"]) == 0
        out = capsys.readouterr().out
        assert "Run ledger dashboard" in out
        assert "exp/a" in out

    def test_non_object_ledger_line_is_skipped(self, capsys):
        main(["obs", "record", "--name", "exp/a", "--scalar", "v=1"])
        with open(default_ledger().path, "a", encoding="utf-8") as fh:
            fh.write("[1]\n")
        capsys.readouterr()
        assert main(["obs", "report"]) == 0
        assert "exp/a" in capsys.readouterr().out


class TestObsDiff:
    def test_injected_regression_exits_nonzero(self, capsys, tmp_path):
        # The acceptance scenario: record a benchmark run, then ingest a
        # copy with a >= 25% slower floor metric; the diff must flag it
        # and exit 1.
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_bench_envelope(800.0)), encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_bench_envelope(480.0)), encoding="utf-8")
        main(["obs", "record", "--bench", str(good)])
        main(["obs", "record", "--bench", str(bad)])
        capsys.readouterr()
        assert main(["obs", "diff", "--names", "bench/sweep"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "-40.0%" in out

    def test_stable_history_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(_bench_envelope()), encoding="utf-8")
        main(["obs", "record", "--bench", str(path)])
        main(["obs", "record", "--bench", str(path)])
        capsys.readouterr()
        assert main(["obs", "diff"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_improvement_exits_zero(self, capsys, tmp_path):
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(_bench_envelope(400.0)), encoding="utf-8")
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(_bench_envelope(800.0)), encoding="utf-8")
        main(["obs", "record", "--bench", str(slow)])
        main(["obs", "record", "--bench", str(fast)])
        capsys.readouterr()
        assert main(["obs", "diff", "--scalars", "speedup.batched_warm"]) == 0
        assert "improved" in capsys.readouterr().out

    def test_empty_ledger_is_clean(self, capsys):
        assert main(["obs", "diff"]) == 0
        assert "nothing to diff" in capsys.readouterr().out


class TestObsCheck:
    def test_green_monitors_exit_zero_and_record(self, capsys, fake_monitor):
        fake_monitor(1.0)
        assert main(["obs", "check"]) == 0
        out = capsys.readouterr().out
        assert "all green" in out
        (rec,) = default_ledger().records()
        assert rec.name == "monitor/fake"
        assert rec.exit_code == 0

    def test_red_monitor_exits_one(self, capsys, fake_monitor):
        fake_monitor(9.0)
        assert main(["obs", "check"]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert default_ledger().records()[0].exit_code == 1

    def test_no_record_flag(self, capsys, fake_monitor):
        fake_monitor(1.0)
        assert main(["obs", "check", "--no-record"]) == 0
        assert len(default_ledger()) == 0

    def test_unknown_monitor_is_an_error(self, capsys):
        assert main(["obs", "check", "--monitors", "nope"]) == 1
        assert "unknown monitors" in capsys.readouterr().err


class TestObsWatchAndCompact:
    def test_watch_bounded_iterations(self, capsys):
        main(["obs", "record", "--name", "exp/a", "--scalar", "v=1"])
        capsys.readouterr()
        assert main(["obs", "watch", "--iterations", "2", "--interval", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("Run ledger dashboard") == 2

    def test_watch_validates_arguments(self, capsys):
        assert main(["obs", "watch", "--interval", "-1"]) == 1
        assert main(["obs", "watch", "--iterations", "0"]) == 1

    def test_compact_moves_surplus_to_archive(self, capsys):
        for v in ("1", "2", "3"):
            main(["obs", "record", "--name", "exp/a", "--scalar", f"v={v}"])
        capsys.readouterr()
        assert main(["obs", "compact", "--keep", "1"]) == 0
        assert "archived 2 record(s)" in capsys.readouterr().out
        ledger = default_ledger()
        assert len(ledger.records(name="exp/a")) == 1
        assert len(ledger.records(name="exp/a", include_archive=True)) == 3


def _write_flight_dump(directory):
    """One real dump via the recorder, returned as its JSON path."""
    from time import perf_counter

    from repro.obs.request import FlightRecorder, RequestContext

    ctx = RequestContext("lg-test-000001", "/recommend", origin_s=perf_counter())
    with ctx.stage("cache") as st:
        st.set(hit=False)
    ctx.finish(200, 0.02)
    flight = FlightRecorder(8, directory=directory)
    flight.record(ctx)
    return flight.dump("slo-burn")


class TestObsFlight:
    def test_empty_directory_lists_nothing(self, capsys, tmp_path):
        assert main(["obs", "flight", "--dir", str(tmp_path)]) == 0
        assert "no flight dumps" in capsys.readouterr().out

    def test_last_with_no_dumps_exits_one(self, capsys, tmp_path):
        assert main(["obs", "flight", "--dir", str(tmp_path), "--last"]) == 1

    def test_list_and_detail_views(self, capsys, tmp_path):
        path = _write_flight_dump(tmp_path)
        assert main(["obs", "flight", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert path.name in out and "[slo-burn]" in out

        assert main(["obs", "flight", "--dir", str(tmp_path), "--last"]) == 0
        out = capsys.readouterr().out
        assert "lg-test-000001" in out
        assert "stage tree" in out and "cache" in out

    def test_json_emits_the_document_verbatim(self, capsys, tmp_path):
        path = _write_flight_dump(tmp_path)
        assert main(["obs", "flight", "--dump", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-flight/1"
        assert doc["requests"][0]["request_id"] == "lg-test-000001"

    @pytest.mark.parametrize(
        "content",
        [
            "[1, 2]",
            '{"schema": "repro-flight/1", "requests": 3}',
            '{"schema": "repro-flight/1", "requests": [1]}',
            '{"schema": "repro-flight/1", "requests": [], "slowest": 5}',
        ],
    )
    def test_malformed_dump_is_listed_unreadable(self, capsys, tmp_path, content):
        good = _write_flight_dump(tmp_path)
        bad = tmp_path / "flight-zzz.json"  # sorts last, so --last picks it
        bad.write_text(content, encoding="utf-8")
        assert main(["obs", "flight", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{bad.name}  UNREADABLE" in out and good.name in out
        assert main(["obs", "flight", "--dir", str(tmp_path), "--last"]) == 1
        assert "cannot read flight dump" in capsys.readouterr().err
        assert main(["obs", "flight", "--dump", str(bad)]) == 1

    def test_unreadable_dump_is_an_error(self, capsys, tmp_path):
        bogus = tmp_path / "flight-x.json"
        bogus.write_text("{}", encoding="utf-8")
        assert main(["obs", "flight", "--dump", str(bogus)]) == 1


class TestObsWatchServe:
    def test_polls_stats_and_renders_the_live_view(self, capsys, monkeypatch):
        stats = {
            "service": {"uptime_s": 12.0, "total": 40, "statuses": {"200": 40}},
            "slo": {
                "slo_p95_s": 0.25,
                "fast_burn": 3.5,
                "slow_burn": 2.1,
                "threshold": 2.0,
                "alert_active": True,
                "alerts": 1,
                "good": 30,
                "bad": 10,
            },
            "tracing": {
                "sampler": {"decided": 40, "kept_by_reason": {"slow": 2}},
                "flight": {"entries": 2, "capacity": 64, "dumps": 1},
                "stages": {
                    "cache": {"count": 40, "total_s": 0.4, "mean_s": 0.01}
                },
            },
            "admission": {"shed": 0, "depth_limit": 9},
            "cache": {"hit_fraction": 0.95},
            "batching": {},
        }
        monkeypatch.setattr(
            "repro.cli._fetch_serve_stats", lambda url: stats
        )
        assert (
            main(
                [
                    "obs",
                    "watch",
                    "--serve",
                    "http://127.0.0.1:1",
                    "--iterations",
                    "2",
                    "--interval",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("Serve watch") == 2
        assert "[ALERT]" in out
        assert "cache" in out

    def test_unreachable_service_is_an_error(self, capsys):
        assert (
            main(
                [
                    "obs",
                    "watch",
                    "--serve",
                    "http://127.0.0.1:1",
                    "--iterations",
                    "1",
                ]
            )
            == 1
        )
        assert "cannot fetch" in capsys.readouterr().err


class TestArtifactParentDirs:
    def test_trace_out_creates_parents(self, capsys, tmp_path):
        out = tmp_path / "deep" / "traces" / "t.json"
        assert main(["table", "7", "--trace-out", str(out)]) == 0
        assert "traceEvents" in json.loads(out.read_text(encoding="utf-8"))

    def test_metrics_out_creates_parents(self, capsys, tmp_path):
        out = tmp_path / "deep" / "metrics" / "m.json"
        assert main(["table", "7", "--metrics-out", str(out)]) == 0
        json.loads(out.read_text(encoding="utf-8"))  # valid JSON snapshot

    def test_existing_artifact_is_overwritten(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        out.write_text("stale", encoding="utf-8")
        assert main(["table", "7", "--trace-out", str(out)]) == 0
        assert "traceEvents" in out.read_text(encoding="utf-8")
