"""BENCH trajectory loading, normalisation, and migration.

The five ``BENCH_*.json`` files benchmarks append to
(:func:`benchmarks.record.record_bench`) are the repo's perf source of
truth: every entry is a timestamped measurement with a ``machine``
context, free-form ``meta``, measurement ``rows``, and (since the
telemetry tier landed) a ``telemetry`` digest.  This module gives the
comparator (:mod:`repro.telemetry.compare`) a uniform view over that
history:

* :func:`load_bench` / :func:`discover_benches` — read trajectories
  with every entry passed through :func:`normalize_entry`, so schema
  drift (early entries predate the ``machine``/``cpus`` annotations)
  never surfaces as a ``KeyError`` downstream;
* :func:`migrate_file` — the ``repro bench migrate`` backend: rewrite
  a trajectory in place with the same normalisation, idempotently;
* :func:`row_key` — the identity of one measurement row (every
  parameter column, none of the measured ones), the unit of pairing
  across entries;
* :func:`canonical_digest` — sorted keys + stable float rounding, so
  identical runs produce byte-identical telemetry blocks that diff
  exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "HEADLINE_KEYS",
    "MEASURE_KEYS",
    "Bench",
    "BenchEntry",
    "canonical_digest",
    "discover_benches",
    "load_bench",
    "migrate_file",
    "normalize_entry",
    "row_key",
]

#: Row columns that are *measurements* (outputs).  Every other column
#: is a parameter and participates in :func:`row_key`.
MEASURE_KEYS = (
    "seconds",
    "seconds_per_round",
    "speedup_vs_batch",
    "speedup_vs_numpy",
    "mean_cover",
    "cover_rounds",
    "seconds_q1",
    "seconds_q3",
    "peak_rss_mb",
)

#: Row columns holding headline latencies, in diff priority order.
HEADLINE_KEYS = ("seconds", "seconds_per_round")


def canonical_digest(obj, *, float_digits: int = 6):
    """Canonicalise a JSON-able digest: sorted keys, rounded floats.

    Dict keys are emitted in sorted order (Python dicts preserve
    insertion order through ``json.dump``), floats are rounded to
    ``float_digits`` significant digits, and non-finite floats become
    None (JSON has no representation for them).  Two identical runs
    therefore serialise to byte-identical telemetry blocks — the
    property the comparator's digest diff relies on.
    """
    if isinstance(obj, dict):
        return {
            str(key): canonical_digest(obj[key], float_digits=float_digits)
            for key in sorted(obj, key=str)
        }
    if isinstance(obj, (list, tuple)):
        return [canonical_digest(item, float_digits=float_digits) for item in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.{float_digits}g}")
    return obj


def row_key(row: dict) -> tuple:
    """The identity of a measurement row: its sorted parameter columns.

    Two rows with equal keys measured the same configuration (same
    bench mode, n, runs, workers, backend, machine cpus, ...) and are
    comparable across entries; the measured columns
    (:data:`MEASURE_KEYS`) are excluded.
    """
    items = []
    for key in sorted(row):
        if key in MEASURE_KEYS:
            continue
        value = row[key]
        if isinstance(value, list):
            value = tuple(value)
        items.append((key, value))
    return tuple(items)


@dataclass(frozen=True)
class BenchEntry:
    """One normalised BENCH entry: when, where, what, and how fast."""

    timestamp: str
    machine: dict
    meta: dict
    rows: tuple
    telemetry: dict | None

    @property
    def cpus(self) -> int | None:
        """The recording machine's CPU count (None when never recorded)."""
        return self.machine.get("cpus")

    def row_map(self) -> dict:
        """Rows indexed by :func:`row_key` (last write wins on duplicates)."""
        return {row_key(row): row for row in self.rows}


@dataclass(frozen=True)
class Bench:
    """One loaded trajectory: the bench name plus its entries, oldest first."""

    name: str
    path: Path
    entries: tuple

    @property
    def latest(self) -> BenchEntry | None:
        """The most recent entry (None for an empty trajectory)."""
        return self.entries[-1] if self.entries else None


def normalize_entry(raw: dict) -> tuple[dict, bool]:
    """Normalise one raw entry dict; returns ``(entry, changed)``.

    Guarantees the comparator's invariants: ``machine`` is a dict with
    ``cpus``/``python`` keys (None when unknown), ``meta`` and ``rows``
    exist, and every row carries a ``cpus`` column (backfilled from the
    machine context) so row identities pair machine-for-machine across
    schema generations.
    """
    entry = dict(raw)
    changed = False
    machine = dict(entry.get("machine") or {})
    for key in ("cpus", "python"):
        if key not in machine:
            machine[key] = None
            changed = True
    if machine != entry.get("machine"):
        changed = True
    entry["machine"] = machine
    if "timestamp" not in entry:
        entry["timestamp"] = "unknown"
        changed = True
    if not isinstance(entry.get("meta"), dict):
        entry["meta"] = {}
        changed = True
    rows = []
    for row in entry.get("rows") or []:
        row = dict(row)
        if "cpus" not in row and machine["cpus"] is not None:
            row["cpus"] = machine["cpus"]
            changed = True
        rows.append(row)
    if rows != entry.get("rows"):
        changed = True
    entry["rows"] = rows
    return entry, changed


def _entry_from_dict(entry: dict) -> BenchEntry:
    return BenchEntry(
        timestamp=str(entry["timestamp"]),
        machine=entry["machine"],
        meta=entry["meta"],
        rows=tuple(entry["rows"]),
        telemetry=entry.get("telemetry"),
    )


def load_bench(path) -> Bench:
    """Load one ``BENCH_*.json`` trajectory, normalising every entry.

    Normalisation happens in memory only — use :func:`migrate_file` (or
    ``repro bench migrate``) to persist it.  Raises ``OSError`` for a
    missing file and ``ValueError`` for a malformed payload.
    """
    path = Path(path)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError(f"{path}: not a BENCH trajectory (no 'entries' key)")
    name = str(payload.get("bench") or path.stem.removeprefix("BENCH_"))
    entries = tuple(
        _entry_from_dict(normalize_entry(raw)[0]) for raw in payload["entries"]
    )
    return Bench(name=name, path=path, entries=entries)


def discover_benches(root=".") -> list[Path]:
    """All ``BENCH_*.json`` paths directly under ``root``, sorted by name."""
    return sorted(Path(root).glob("BENCH_*.json"))


def migrate_file(path) -> int:
    """Rewrite one trajectory in place with normalised entries.

    Returns the number of entries that changed (0 means the file was
    already normal — the call is idempotent).  The file is rewritten
    only when something changed.
    """
    path = Path(path)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError(f"{path}: not a BENCH trajectory (no 'entries' key)")
    migrated = []
    changed_count = 0
    for raw in payload["entries"]:
        entry, changed = normalize_entry(raw)
        if "telemetry" in entry and entry["telemetry"] is not None:
            digest = canonical_digest(entry["telemetry"])
            if digest != entry["telemetry"]:
                entry["telemetry"] = digest
                changed = True
        migrated.append(entry)
        changed_count += int(changed)
    if changed_count:
        payload["entries"] = migrated
        # Same serialisation as benchmarks.record.record_bench, so a
        # migration and a fresh recording produce one consistent format.
        path.write_text(json.dumps(payload, indent=2) + "\n")
    return changed_count
