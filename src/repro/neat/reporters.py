"""Run reporters: observability for long evolution runs.

A reporter receives a callback after every completed generation.  The
platform attaches whichever reporters the deployment wants — a console
line per generation for interactive runs, a CSV log for later analysis
(the Fig 2/4 trace machinery uses the same records).
"""

from __future__ import annotations

import csv
import os
import warnings
from typing import Protocol

from repro.neat.population import GenerationStats

__all__ = ["Reporter", "ConsoleReporter", "CSVReporter", "ReporterSet"]


class Reporter(Protocol):
    """Anything that wants per-generation notifications."""

    def on_generation(self, stats: GenerationStats) -> None: ...


class ConsoleReporter:
    """One status line per generation, neat-python style."""

    def __init__(self, stream=None, every: int = 1):
        if every < 1:
            raise ValueError("every must be >= 1")
        self._stream = stream
        self._every = every

    def on_generation(self, stats: GenerationStats) -> None:
        if stats.generation % self._every:
            return
        line = (
            f"gen {stats.generation:4d}  "
            f"best {stats.best_fitness:10.2f}  "
            f"mean {stats.mean_fitness:10.2f}  "
            f"species {stats.num_species:3d}  "
            f"size {stats.mean_nodes:5.1f}n/{stats.mean_connections:5.1f}c"
        )
        for key in sorted(stats.extras):
            line += f"  {key} {stats.extras[key]:g}"
        print(line, file=self._stream)


class CSVReporter:
    """Appends one CSV row per generation to a stream or path."""

    FIELDS = (
        "generation",
        "best_fitness",
        "mean_fitness",
        "num_species",
        "mean_nodes",
        "mean_connections",
        "population_size",
    )

    def __init__(self, target, append: bool = False):
        """``target`` is a file path (str/Path) or a text stream.

        With ``append`` the file is opened in append mode and the
        header row is skipped when the target already has content —
        the resume flow uses this so continuing a checkpointed run
        extends its CSV history instead of truncating it.  The existing
        file's *own* header defines the column order appended rows
        follow, so a resumed run can never misalign columns; when the
        resumed run contributes columns the original header lacks (a
        backend now reporting ``fallback_waves``, new packing columns,
        ...), the file is migrated in place — header extended, old rows
        padded with 0 — instead of silently dropping the new data.
        """
        has_content = False
        existing_fields: tuple[str, ...] | None = None
        self._path: str | None = None
        if isinstance(target, (str,)) or hasattr(target, "__fspath__"):
            self._path = os.fspath(target)
            if append:
                try:
                    has_content = os.path.getsize(target) > 0
                except OSError:
                    has_content = False
                if has_content:
                    existing_fields = self._read_header(self._path)
            self._stream = open(target, "a" if append else "w", newline="")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
            if append:
                try:
                    has_content = self._stream.tell() > 0
                except (OSError, ValueError):
                    has_content = False
        # the header is written lazily at the first row so backend
        # extras (sorted, after the fixed fields) can extend it
        self._has_content = has_content
        self._fieldnames = existing_fields
        self._writer: csv.DictWriter | None = None
        self._warned_columns: set[str] = set()

    @staticmethod
    def _read_header(path: str) -> tuple[str, ...] | None:
        """The existing file's column order (None if unreadable)."""
        try:
            with open(path, newline="") as handle:
                header = next(csv.reader(handle), None)
        except OSError:
            return None
        return tuple(header) if header else None

    def _ensure_columns(self, desired: tuple[str, ...]) -> None:
        """Make every ``desired`` column land in the output.

        Columns missing from the committed header are added by
        rewriting the file in place when this reporter owns a path
        (old rows get ``0`` for the new columns); for a caller-owned
        stream the header cannot be rewritten, so a loud warning names
        each dropped column once instead of losing it silently.
        """
        assert self._fieldnames is not None
        missing = [f for f in desired if f not in self._fieldnames]
        if not missing:
            return
        if self._path is not None:
            self._migrate(missing)
            return
        new = [f for f in missing if f not in self._warned_columns]
        if new:
            self._warned_columns.update(new)
            warnings.warn(
                "CSVReporter: column(s) "
                + ", ".join(repr(f) for f in new)
                + " appeared after the CSV header was fixed and will be "
                "dropped (stream targets cannot be migrated; write to a "
                "file path to keep them)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _migrate(self, missing: list[str]) -> None:
        """Extend an owned file's header in place (old rows pad to 0)."""
        assert self._path is not None
        self._stream.close()
        with open(self._path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        self._fieldnames = tuple(self._fieldnames or ()) + tuple(missing)
        with open(self._path, "w", newline="") as handle:
            writer = csv.DictWriter(
                handle,
                fieldnames=self._fieldnames,
                restval=0,
                extrasaction="ignore",
            )
            writer.writeheader()
            writer.writerows(rows)
        self._stream = open(self._path, "a", newline="")
        self._has_content = True
        self._writer = None

    def on_generation(self, stats: GenerationStats) -> None:
        desired = self.FIELDS + tuple(sorted(stats.extras))
        if self._fieldnames is None:
            self._fieldnames = desired
        self._ensure_columns(desired)
        if self._writer is None:
            self._writer = csv.DictWriter(
                self._stream,
                fieldnames=self._fieldnames,
                restval=0,
                extrasaction="ignore",
            )
            if not self._has_content:
                self._writer.writeheader()
                self._has_content = True
        row = {field: getattr(stats, field) for field in self.FIELDS}
        row.update(stats.extras)
        self._writer.writerow(row)
        self._stream.flush()

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "CSVReporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ReporterSet:
    """Fans one generation event out to many reporters."""

    def __init__(self, reporters: list[Reporter] | None = None):
        self._reporters: list[Reporter] = list(reporters or [])

    def add(self, reporter: Reporter) -> None:
        """Register a reporter; re-adding the same object is a no-op
        (a re-attached monitor must not receive every event twice)."""
        if not any(existing is reporter for existing in self._reporters):
            self._reporters.append(reporter)

    def remove(self, reporter: Reporter) -> None:
        self._reporters.remove(reporter)

    def on_generation(self, stats: GenerationStats) -> None:
        for reporter in self._reporters:
            reporter.on_generation(stats)

    def __len__(self) -> int:
        return len(self._reporters)
