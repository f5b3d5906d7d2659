"""Run manifest: the "what produced this trace" record.

A trace or metrics file without its run configuration is a puzzle, not
an artifact.  The manifest captures the command, environment, backend,
worker count, seed, and the software platform (Python/NumPy/OS
versions) at run start, and is emitted as the first row of every JSONL
trace and embedded in every metrics JSON file.
"""

from __future__ import annotations

import platform as _platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any

__all__ = ["RunManifest", "git_revision"]


def _numpy_version() -> str:
    try:
        import numpy

        return numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        return "unavailable"


def git_revision(cwd: str | None = None) -> tuple[str, bool]:
    """The checkout's ``(commit_sha, dirty)``, or ``("", False)``.

    Attribution only — never load-bearing: outside a git checkout (or
    without the git binary) runs proceed with an empty commit field.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
            check=True,
        ).stdout
        return commit, bool(status.strip())
    except Exception:
        return "", False


@dataclass
class RunManifest:
    """Everything needed to attribute and reproduce a telemetry file."""

    command: str = ""
    env: str = ""
    backend: str = ""
    workers: int = 0
    population: int = 0
    generations: int = 0
    episodes_per_genome: int = 1
    seed: int = 0
    #: generation-pipelining config (wave schedule, DMA/decode
    #: prefetch) — the paper-baseline defaults
    schedule: str = "arrival"
    prefetch: bool = False
    #: fabric farm topology (single-device runs keep the defaults)
    devices: int = 1
    islands: int = 1
    migration_interval: int = 0
    migration_size: int = 0
    #: the shared supervisor recovery policy (shard + fabric), as a
    #: plain dict so chaos runs are attributable from the trace alone
    supervisor: dict[str, Any] = field(default_factory=dict)
    #: free-form extras (checkpoint path, sweep axis, ...)
    extra: dict[str, Any] = field(default_factory=dict)
    # -- captured automatically at collection time --
    python_version: str = ""
    platform: str = ""
    numpy_version: str = ""
    created_unix: float = 0.0
    #: exact code state (health.json / bench-trajectory attribution);
    #: empty commit = not a git checkout
    git_commit: str = ""
    git_dirty: bool = False

    @classmethod
    def collect(cls, **fields: Any) -> "RunManifest":
        """Build a manifest, filling platform + git state automatically."""
        commit, dirty = git_revision()
        return cls(
            python_version=sys.version.split()[0],
            platform=_platform.platform(),
            numpy_version=_numpy_version(),
            created_unix=time.time(),
            git_commit=commit,
            git_dirty=dirty,
            **fields,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSONL row for this manifest (the ``type: "manifest"`` schema)."""
        row: dict[str, Any] = {"type": "manifest"}
        row.update(asdict(self))
        return row

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in row.items() if k in known})
