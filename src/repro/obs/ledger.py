"""The run ledger: an append-only longitudinal store of ``repro-run/1`` records.

PR 4's telemetry (counters, spans, bench envelopes) is point-in-time:
every CLI invocation and benchmark run is an island, and the numbers the
reproduction is judged on are only re-checked when a test happens to
exercise them.  The ledger is the memory layer underneath: every CLI
subcommand, benchmark driver and claim monitor appends one structured
record — git SHA, seed, configuration digest, key result scalars,
wall/CPU time — to a JSONL store under ``.repro/runs/``, so drift
detection (:mod:`repro.obs.drift`), the claim monitors
(:mod:`repro.obs.monitors`) and the dashboard
(:mod:`repro.obs.dashboard`) can compare *this* run against the whole
recorded history.

Store layout (all under the ledger root, default ``.repro/runs/``):

* ``runs.jsonl`` — the live store, strictly append-only: one JSON
  document per line, oldest first.  Appends never rewrite existing
  bytes (pinned by ``tests/obs/test_ledger.py``).
* ``archive.jsonl`` — where :meth:`Ledger.compact` moves records beyond
  the per-name retention window.  Also append-only; compaction moves
  records, it never destroys them.
* ``index.json`` — a small derived summary (per-name counts, last run
  ids) rewritten on each append so dashboards can enumerate names
  without scanning the JSONL.  It is a cache: the JSONL files are the
  source of truth and the index is rebuilt whenever it is stale.

Reproducibility contract: a record's ``scalars`` are the run's key
*result* numbers (energy gaps, p95s, agreement fractions — never raw
timings unless the run is a benchmark), so two runs with the same git
SHA, seed and ``config_digest`` must report identical scalars.  Wall and
CPU time live outside ``scalars`` because they are honest measurements,
not results.

Environment knobs: ``REPRO_LEDGER_DIR`` relocates the default store
(the test suite points it at a tmp dir); ``REPRO_LEDGER=0`` disables
recording entirely (:func:`ledger_enabled`).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from itertools import count
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "RUN_SCHEMA",
    "DEFAULT_LEDGER_DIR",
    "DEFAULT_RETENTION",
    "RunRecord",
    "Ledger",
    "config_digest",
    "current_git_sha",
    "default_ledger",
    "ledger_enabled",
    "new_record",
    "record_bench_result",
]

#: Version tag of the run-record envelope.
RUN_SCHEMA = "repro-run/1"

#: Where the ledger lives relative to the working directory (override with
#: the ``REPRO_LEDGER_DIR`` environment variable).
DEFAULT_LEDGER_DIR = Path(".repro") / "runs"

#: Records kept per run name by :meth:`Ledger.compact`; older records move
#: to the archive.  Generous: one record is a few hundred bytes.
DEFAULT_RETENTION = 200

#: Process-wide monotonic counter folded into run ids so records appended
#: within one timestamp tick stay distinct.
_RUN_COUNTER = count()


@dataclass(frozen=True)
class RunRecord:
    """One ``repro-run/1`` ledger entry."""

    run_id: str
    #: ``cli`` (a CLI subcommand), ``benchmark`` (a BENCH driver),
    #: ``monitor`` (a claim-monitor evaluation) or ``experiment``.
    kind: str
    #: Namespaced run name, e.g. ``cli/schedule`` or ``bench/sweep``.
    name: str
    timestamp_utc: str
    git_sha: str
    #: Root seed of the run, when the run is seeded.
    seed: Optional[int]
    #: The run's configuration (argv values, benchmark params).
    params: Dict[str, object]
    #: Digest of ``params`` — two runs with equal digests ran the same
    #: configuration.
    config_digest: str
    #: Key result scalars; deterministic given (git_sha, seed, digest).
    scalars: Dict[str, float]
    wall_s: float
    cpu_s: float
    exit_code: int = 0
    schema: str = RUN_SCHEMA
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """The record as one compact JSON line (no embedded newlines)."""
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        """Parse one JSONL line back into a record."""
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise ReproError(
                f"run record must be a JSON object, got {type(doc).__name__}"
            )
        if doc.get("schema") != RUN_SCHEMA:
            raise ReproError(
                f"unsupported run-record schema {doc.get('schema')!r}"
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})


def config_digest(params: Mapping[str, object]) -> str:
    """A stable SHA-256 digest of one canonicalised parameter mapping.

    Canonical JSON (sorted keys, no whitespace) makes the digest
    insensitive to dict ordering; non-JSON values must be stringified by
    the caller first.
    """
    blob = json.dumps(dict(params), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


_GIT_SHA_CACHE: Dict[str, str] = {}


def current_git_sha(repo_root: Optional[Path] = None) -> str:
    """The current ``HEAD`` commit, or ``"unknown"`` outside a git repo.

    Cached per directory for the life of the process — the SHA cannot
    change under a running command, and ledger appends must stay cheap.
    """
    key = str(repo_root) if repo_root is not None else "."
    cached = _GIT_SHA_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            cwd=repo_root,
            timeout=5,
        )
        sha = proc.stdout.decode("utf-8", "replace").strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    _GIT_SHA_CACHE[key] = sha
    return sha


def new_record(
    kind: str,
    name: str,
    *,
    params: Optional[Mapping[str, object]] = None,
    scalars: Optional[Mapping[str, float]] = None,
    seed: Optional[int] = None,
    wall_s: float = 0.0,
    cpu_s: float = 0.0,
    exit_code: int = 0,
    git_sha: Optional[str] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` with the ambient metadata filled in."""
    if kind not in ("cli", "benchmark", "monitor", "experiment"):
        raise ReproError(f"unknown run kind {kind!r}")
    if not name:
        raise ReproError("run name must be non-empty")
    p = {k: params[k] for k in sorted(params)} if params else {}
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")
    digest = config_digest(p)
    raw = f"{name}|{digest}|{seed}|{stamp}|{os.getpid()}|{next(_RUN_COUNTER)}"
    run_id = hashlib.blake2s(raw.encode("utf-8"), digest_size=6).hexdigest()
    return RunRecord(
        run_id=run_id,
        kind=kind,
        name=name,
        timestamp_utc=stamp,
        git_sha=git_sha if git_sha is not None else current_git_sha(),
        seed=int(seed) if seed is not None else None,
        params=p,
        config_digest=digest,
        scalars={k: float(v) for k, v in (scalars or {}).items()},
        wall_s=float(wall_s),
        cpu_s=float(cpu_s),
        exit_code=int(exit_code),
        extra=dict(extra or {}),
    )


class Ledger:
    """The append-only run store rooted at one directory."""

    INDEX_SCHEMA = "repro-run-index/1"

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.path = self.root / "runs.jsonl"
        self.archive_path = self.root / "archive.jsonl"
        self.index_path = self.root / "index.json"

    # -- write side -------------------------------------------------------
    def append(self, record: RunRecord) -> RunRecord:
        """Append one record to the live store and refresh the index.

        Strictly append-only: the existing content of ``runs.jsonl`` is
        never rewritten or reordered by an append.  If the store ends in
        a torn line (a crash mid-write left no trailing newline), the
        append starts a fresh line first so the torn fragment poisons at
        most itself.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        payload = (record.to_json() + "\n").encode("utf-8")
        # One O_APPEND write per record: POSIX guarantees the kernel
        # performs the seek-to-end and the write atomically, so records
        # appended concurrently from several processes never interleave
        # (pinned by the multiprocess hammer in tests/obs/test_ledger.py).
        # The buffered text-mode append this replaces could flush a record
        # in several write(2) calls, letting another process's record land
        # mid-line.
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            try:
                size = os.fstat(fd).st_size
                if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                    # A crash mid-write left a torn line: start a fresh one
                    # so the fragment poisons at most itself.
                    payload = b"\n" + payload
            except OSError:
                pass
            os.write(fd, payload)
        finally:
            os.close(fd)
        self._write_index()
        return record

    def compact(self, *, keep: int = DEFAULT_RETENTION) -> int:
        """Retention: move records beyond the newest ``keep`` per name to
        the archive.

        Returns the number of records archived.  The live store is
        rewritten atomically (tmp file + rename); archived records are
        *appended* to ``archive.jsonl``, so no record is ever lost —
        compaction trades live-store size for archive size.
        """
        if keep < 1:
            raise ReproError(f"retention must keep >= 1 record, got {keep}")
        records = self.records()
        per_name: Dict[str, int] = {}
        for rec in reversed(records):  # newest first
            per_name[rec.name] = per_name.get(rec.name, 0) + 1
        surplus = {n: c - keep for n, c in per_name.items() if c > keep}
        if not surplus:
            return 0
        archived: List[RunRecord] = []
        kept: List[RunRecord] = []
        for rec in records:  # oldest first: archive the leading surplus
            if surplus.get(rec.name, 0) > 0:
                surplus[rec.name] -= 1
                archived.append(rec)
            else:
                kept.append(rec)
        with open(self.archive_path, "a", encoding="utf-8") as fh:
            for rec in archived:
                fh.write(rec.to_json())
                fh.write("\n")
        tmp = self.path.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in kept:
                fh.write(rec.to_json())
                fh.write("\n")
        tmp.replace(self.path)
        self._write_index()
        return len(archived)

    # -- read side --------------------------------------------------------
    def _read_file(self, path: Path) -> List[RunRecord]:
        if not path.exists():
            return []
        out: List[RunRecord] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(RunRecord.from_json(line))
                except (json.JSONDecodeError, TypeError, ReproError):
                    # A torn or foreign line must not poison the history.
                    continue
        return out

    def records(
        self,
        *,
        name: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
        include_archive: bool = False,
    ) -> List[RunRecord]:
        """Records oldest-first, optionally filtered; ``limit`` keeps the
        newest ``limit`` entries after filtering."""
        records: List[RunRecord] = []
        if include_archive:
            records.extend(self._read_file(self.archive_path))
        records.extend(self._read_file(self.path))
        if name is not None:
            records = [r for r in records if r.name == name]
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        if limit is not None and limit >= 0:
            records = records[len(records) - limit :] if limit else []
        return records

    def latest(self, name: str) -> Optional[RunRecord]:
        """The newest record of one run name, or None."""
        matching = self.records(name=name)
        return matching[-1] if matching else None

    def names(self) -> List[str]:
        """Every distinct run name in the live store, sorted."""
        return sorted({r.name for r in self.records()})

    def history(self, name: str, scalar: str) -> List[Tuple[str, float]]:
        """``(run_id, value)`` pairs of one scalar across a name's records,
        oldest first; records lacking the scalar are skipped."""
        return [
            (r.run_id, float(r.scalars[scalar]))
            for r in self.records(name=name)
            if scalar in r.scalars
        ]

    def __len__(self) -> int:
        return len(self.records())

    # -- index ------------------------------------------------------------
    def _write_index(self) -> None:
        records = self.records()
        names: Dict[str, Dict[str, object]] = {}
        for rec in records:
            entry = names.setdefault(
                rec.name, {"count": 0, "kind": rec.kind}
            )
            entry["count"] = int(entry["count"]) + 1
            entry["last_run_id"] = rec.run_id
            entry["last_timestamp_utc"] = rec.timestamp_utc
            entry["last_git_sha"] = rec.git_sha
        doc = {
            "schema": self.INDEX_SCHEMA,
            "total": len(records),
            "names": names,
        }
        # The index is a derived cache, but concurrent appenders rewriting
        # it in place could expose a half-written document to a reader.
        # Write-to-temp + rename keeps every observable index complete
        # (per-pid temp name so two writers never share a temp file).
        tmp = self.index_path.with_name(f".index.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.index_path)

    def index(self) -> Dict[str, object]:
        """The index document (rebuilt from the store when missing)."""
        if not self.index_path.exists():
            if not self.path.exists():
                return {"schema": self.INDEX_SCHEMA, "total": 0, "names": {}}
            self._write_index()
        with open(self.index_path, "r", encoding="utf-8") as fh:
            return json.load(fh)


def default_ledger(root: Optional[Path] = None) -> Ledger:
    """The ledger at ``root``, ``$REPRO_LEDGER_DIR``, or ``.repro/runs``."""
    if root is not None:
        return Ledger(root)
    env = os.environ.get("REPRO_LEDGER_DIR")
    return Ledger(Path(env) if env else DEFAULT_LEDGER_DIR)


def ledger_enabled() -> bool:
    """Whether run recording is globally enabled (``REPRO_LEDGER=0`` to
    switch it off)."""
    return os.environ.get("REPRO_LEDGER", "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def record_bench_result(
    result: Mapping[str, object],
    *,
    ledger: Optional[Ledger] = None,
    wall_s: float = 0.0,
    cpu_s: float = 0.0,
) -> Optional[RunRecord]:
    """Append one ``repro-bench/1`` envelope to the ledger as ``bench/<name>``.

    The record's scalars are the envelope's floor-bearing metrics plus its
    timings (see :func:`repro.obs.drift.bench_scalars`); respects
    :func:`ledger_enabled` and never raises on store IO problems — a broken
    ledger must not fail a benchmark run.  When no ``wall_s`` is passed,
    the envelope's own top-level timings stand in for it.
    """
    from repro.obs.drift import bench_scalars

    if not ledger_enabled():
        return None
    benchmark = str(result.get("benchmark", "")) or "unknown"
    params = {
        k: v
        for k, v in dict(result.get("params", {})).items()
        if isinstance(v, (str, int, float, bool)) or v is None
    }
    seed = params.get("seed")
    if not wall_s:
        timings = result.get("timings_s")
        if isinstance(timings, Mapping):
            wall_s = sum(
                v for v in timings.values() if isinstance(v, (int, float))
            )
    record = new_record(
        "benchmark",
        f"bench/{benchmark}",
        params=params,
        scalars=bench_scalars(benchmark, result),
        seed=int(seed) if isinstance(seed, int) else None,
        wall_s=wall_s,
        cpu_s=cpu_s,
    )
    target = ledger if ledger is not None else default_ledger()
    try:
        return target.append(record)
    except OSError:
        return None
