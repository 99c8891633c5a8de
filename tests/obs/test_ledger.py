"""Tests for the run ledger: schema, append-only store, index, retention."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ReproError
from repro.obs.ledger import (
    DEFAULT_LEDGER_DIR,
    RUN_SCHEMA,
    Ledger,
    RunRecord,
    config_digest,
    default_ledger,
    ledger_enabled,
    new_record,
    record_bench_result,
)


@pytest.fixture()
def ledger(tmp_path):
    return Ledger(tmp_path / "runs")


def _rec(name="cli/table", **kw):
    kw.setdefault("kind", "cli")
    kind = kw.pop("kind")
    return new_record(kind, name, **kw)


class TestRunRecord:
    def test_roundtrips_through_json(self):
        rec = _rec(
            params={"policy": "ppr-greedy", "n": 3},
            scalars={"p95_s": 1.5},
            seed=42,
            wall_s=0.25,
        )
        again = RunRecord.from_json(rec.to_json())
        assert again == rec

    def test_json_line_is_single_line(self):
        rec = _rec(params={"note": "a\nb"})
        assert "\n" not in rec.to_json()

    def test_from_json_rejects_foreign_schema(self):
        doc = json.loads(_rec().to_json())
        doc["schema"] = "other/1"
        with pytest.raises(ReproError):
            RunRecord.from_json(json.dumps(doc))

    def test_from_json_drops_unknown_fields(self):
        doc = json.loads(_rec().to_json())
        doc["future_field"] = 123
        rec = RunRecord.from_json(json.dumps(doc))
        assert rec.schema == RUN_SCHEMA

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            new_record("job", "x")

    def test_empty_name_rejected(self):
        with pytest.raises(ReproError):
            new_record("cli", "")

    def test_run_ids_are_unique(self):
        assert _rec().run_id != _rec().run_id


class TestConfigDigest:
    def test_order_insensitive(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_record_digest_matches_params(self):
        rec = _rec(params={"x": 1})
        assert rec.config_digest == config_digest({"x": 1})


class TestAppendOnly:
    def test_append_never_rewrites_existing_bytes(self, ledger):
        ledger.append(_rec("cli/a"))
        before = ledger.path.read_bytes()
        ledger.append(_rec("cli/b"))
        after = ledger.path.read_bytes()
        assert after[: len(before)] == before
        assert len(after) > len(before)

    def test_records_read_back_oldest_first(self, ledger):
        first = ledger.append(_rec("cli/a"))
        second = ledger.append(_rec("cli/b"))
        assert [r.run_id for r in ledger.records()] == [
            first.run_id,
            second.run_id,
        ]

    def test_torn_line_does_not_poison_history(self, ledger):
        ledger.append(_rec("cli/a"))
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro-run/1", "trunc')  # no newline: torn
        ledger.append(_rec("cli/b"))
        # Torn line is skipped; the append after it still lands.
        names = [r.name for r in ledger.records()]
        assert names.count("cli/a") == 1
        assert names.count("cli/b") == 1

    @pytest.mark.parametrize("line", ["[1]", "3", '"text"', "null"])
    def test_non_object_line_does_not_poison_history(self, ledger, line):
        ledger.append(_rec("cli/a"))
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        ledger.append(_rec("cli/b"))
        assert [r.name for r in ledger.records()] == ["cli/a", "cli/b"]
        with pytest.raises(ReproError):
            RunRecord.from_json(line)

    def test_filters_and_limit(self, ledger):
        ledger.append(_rec("cli/a"))
        ledger.append(_rec("bench/x", kind="benchmark"))
        ledger.append(_rec("cli/a"))
        assert len(ledger.records(name="cli/a")) == 2
        assert len(ledger.records(kind="benchmark")) == 1
        assert len(ledger.records(limit=1)) == 1
        assert ledger.records(limit=1)[0].name == "cli/a"

    def test_latest_names_history(self, ledger):
        ledger.append(_rec("cli/a", scalars={"v": 1.0}))
        newest = ledger.append(_rec("cli/a", scalars={"v": 2.0}))
        assert ledger.latest("cli/a").run_id == newest.run_id
        assert ledger.latest("cli/missing") is None
        assert ledger.names() == ["cli/a"]
        assert [v for _, v in ledger.history("cli/a", "v")] == [1.0, 2.0]
        # Records lacking the scalar are skipped, not zero-filled.
        ledger.append(_rec("cli/a"))
        assert len(ledger.history("cli/a", "v")) == 2


def _hammer_worker(root: str, proc: int, n_appends: int) -> None:
    """Child-process body of the concurrency hammer: append ``n_appends``
    records into the shared store (top-level so it pickles under spawn)."""
    ledger = Ledger(root)
    for i in range(n_appends):
        ledger.append(
            new_record(
                "experiment",
                "obs/hammer",
                scalars={"proc": float(proc), "i": float(i)},
            )
        )


class TestConcurrentAppends:
    def test_multiprocess_hammer_loses_and_tears_nothing(self, ledger):
        """N processes x M appends into one store: every record must read
        back intact — the single O_APPEND write(2) per record is what
        prevents interleaving."""
        import multiprocessing

        n_procs, n_appends = 4, 25
        procs = [
            multiprocessing.Process(
                target=_hammer_worker, args=(str(ledger.root), p, n_appends)
            )
            for p in range(n_procs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        records = ledger.records(name="obs/hammer")
        assert len(records) == n_procs * n_appends
        # Every (proc, i) pair lands exactly once — nothing torn, merged
        # into a neighbour's line, or silently dropped by the parser.
        seen = {(r.scalars["proc"], r.scalars["i"]) for r in records}
        assert len(seen) == n_procs * n_appends
        # The raw store parses line-for-line: no torn fragments at all.
        lines = [
            line
            for line in ledger.path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert len(lines) == n_procs * n_appends
        for line in lines:
            json.loads(line)


class TestIndex:
    def test_index_written_on_append(self, ledger):
        rec = ledger.append(_rec("cli/a"))
        doc = json.loads(ledger.index_path.read_text(encoding="utf-8"))
        assert doc["schema"] == Ledger.INDEX_SCHEMA
        assert doc["total"] == 1
        assert doc["names"]["cli/a"]["last_run_id"] == rec.run_id

    def test_index_rebuilt_when_missing(self, ledger):
        ledger.append(_rec("cli/a"))
        os.remove(ledger.index_path)
        assert ledger.index()["total"] == 1

    def test_empty_ledger_index(self, ledger):
        assert ledger.index() == {
            "schema": Ledger.INDEX_SCHEMA,
            "total": 0,
            "names": {},
        }


class TestCompaction:
    def test_moves_oldest_surplus_to_archive(self, ledger):
        for i in range(5):
            ledger.append(_rec("cli/a", scalars={"v": float(i)}))
        archived = ledger.compact(keep=2)
        assert archived == 3
        live = [r.scalars["v"] for r in ledger.records()]
        assert live == [3.0, 4.0]  # the newest two survive
        # No record was lost: archive + live = everything.
        everything = ledger.records(include_archive=True)
        assert [r.scalars["v"] for r in everything] == [0, 1, 2, 3, 4]

    def test_per_name_retention(self, ledger):
        for _ in range(3):
            ledger.append(_rec("cli/a"))
        ledger.append(_rec("cli/b"))
        assert ledger.compact(keep=2) == 1
        names = [r.name for r in ledger.records()]
        assert names.count("cli/a") == 2
        assert names.count("cli/b") == 1

    def test_noop_below_retention(self, ledger):
        ledger.append(_rec("cli/a"))
        assert ledger.compact(keep=10) == 0

    def test_invalid_keep(self, ledger):
        with pytest.raises(ReproError):
            ledger.compact(keep=0)


class TestDefaults:
    def test_env_var_relocates_default_ledger(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "elsewhere"))
        assert default_ledger().root == tmp_path / "elsewhere"

    def test_explicit_root_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "elsewhere"))
        assert default_ledger(tmp_path / "here").root == tmp_path / "here"

    def test_fallback_is_dot_repro(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        assert default_ledger().root == DEFAULT_LEDGER_DIR

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", "OFF"])
    def test_disable_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_LEDGER", value)
        assert not ledger_enabled()

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert ledger_enabled()


class TestRecordBenchResult:
    ENVELOPE = {
        "schema": "repro-bench/1",
        "benchmark": "sweep",
        "params": {"seed": 7, "n_a9": 32, "grid": [1, 2]},
        "timings_s": {"batched_warm": 0.5, "batched_cold": 1.5},
        "speedup": {"batched_warm": 800.0},
    }

    def test_records_floor_metrics_and_timings(self, ledger):
        rec = record_bench_result(self.ENVELOPE, ledger=ledger)
        assert rec is not None
        assert rec.name == "bench/sweep"
        assert rec.kind == "benchmark"
        assert rec.seed == 7
        assert rec.scalars["speedup.batched_warm"] == 800.0
        assert rec.scalars["timings_s.batched_warm"] == 0.5
        # Non-scalar params are dropped from the recorded config.
        assert "grid" not in rec.params

    def test_wall_falls_back_to_summed_timings(self, ledger):
        rec = record_bench_result(self.ENVELOPE, ledger=ledger)
        assert rec.wall_s == pytest.approx(2.0)
        explicit = record_bench_result(self.ENVELOPE, ledger=ledger, wall_s=9.0)
        assert explicit.wall_s == 9.0

    def test_respects_disable_switch(self, ledger, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert record_bench_result(self.ENVELOPE, ledger=ledger) is None
        assert len(ledger) == 0
