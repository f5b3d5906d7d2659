"""Rule engine: module loading, rule registry, suppressions, fingerprints.

The engine is deliberately small and dependency-free: it parses each
Python file once with :mod:`ast`, hands the parsed
:class:`ModuleInfo` to every registered :class:`Rule`, and turns the
raw ``(line, col, message)`` hits into :class:`Finding` records with
stable fingerprints.  Everything policy-like lives elsewhere — the
rule pack in :mod:`repro.lint.rules`, legacy-finding management in
:mod:`repro.lint.baseline`, rendering in :mod:`repro.lint.report`.

Suppressions
------------

A finding on a line that carries a ``# repro: noqa[RULE-ID]`` comment
(or a bare ``# repro: noqa``, which suppresses every rule) is recorded
as *suppressed* instead of failing the run.  Suppressions are the
reviewed, in-source allowlist — e.g. a deliberately bit-exact float
comparison — while the baseline file exists only to absorb legacy
findings when a new rule lands.

Fingerprints
------------

A finding's fingerprint hashes the file path, rule id, the stripped
source line, and the occurrence index of that (path, rule, line-text)
triple — *not* the line number — so baselined findings survive
unrelated edits that shift code up or down.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "RawFinding",
    "register",
    "default_rules",
    "lint_paths",
    "LintResult",
    "PARSE_ERROR_RULE",
]

#: pseudo-rule id attached to findings for files that fail to parse
PARSE_ERROR_RULE = "PARSE"

#: one raw rule hit before the engine attaches file context
RawFinding = tuple[int, int, str]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\])?",
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: stable identity used by the baseline (survives line shifts)
    fingerprint: str

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ModuleInfo:
    """One parsed source file, as every rule sees it."""

    path: Path
    #: forward-slash path as reported in findings (relative when possible)
    relpath: str
    #: dotted module name (``repro.neat.genome``) or ``None`` when the
    #: file is not under a ``repro`` package root (e.g. test fixtures)
    module: str | None
    source: str
    lines: list[str] = field(default_factory=list)
    tree: ast.Module = field(default_factory=lambda: ast.Module(body=[], type_ignores=[]))
    #: line -> suppressed rule ids; ``{"*"}`` means all rules
    noqa: dict[int, set[str]] = field(default_factory=dict)
    _aliases: dict[str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    # ------------------------------------------------------ import names
    def import_aliases(self) -> dict[str, str]:
        """Local name -> fully dotted origin, from this module's imports.

        ``import numpy as np`` maps ``np -> numpy``; ``from datetime
        import datetime`` maps ``datetime -> datetime.datetime``.  Used
        by rules to resolve attribute chains like ``np.random.rand``
        back to canonical names.  Cached per module.
        """
        if self._aliases is not None:
            return self._aliases
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.asname:
                        aliases[name.asname] = name.name
                    else:
                        root = name.name.split(".")[0]
                        aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports resolve within the repo
                for name in node.names:
                    local = name.asname or name.name
                    aliases[local] = f"{node.module}.{name.name}"
        self._aliases = aliases
        return aliases

    def dotted_name(self, node: ast.expr) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or ``None``.

        Resolves the chain root through :meth:`import_aliases`, so
        ``np.random.default_rng`` becomes ``numpy.random.default_rng``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.import_aliases().get(node.id, node.id))
        return ".".join(reversed(parts))


class Rule:
    """Base class for one statically-checkable contract.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding ``(line, col, message)`` triples.  ``excluded_packages``
    scopes a rule out of modules where the pattern is the module's
    job (wall-clock reads inside ``repro.telemetry``, say); files that
    are not under a ``repro`` package — fixtures, scratch scripts —
    always get every rule.
    """

    id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    #: one line on which platform guarantee this rule protects
    contract: ClassVar[str] = ""
    severity: ClassVar[str] = "error"
    excluded_packages: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, module: ModuleInfo) -> bool:
        name = module.module
        if name is None:
            return True
        return not any(
            name == pkg or name.startswith(pkg + ".")
            for pkg in self.excluded_packages
        )

    def check(self, module: ModuleInfo) -> Iterator[RawFinding]:
        raise NotImplementedError


# ------------------------------------------------------------------ registry
_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def default_rules() -> list[Rule]:
    """Fresh instances of the full rule pack, sorted by id."""
    import repro.lint.rules  # noqa: F401  (populates the registry)

    return [cls() for _, cls in sorted(_REGISTRY.items())]


# ------------------------------------------------------------- file loading
def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths``, sorted, skipping caches."""
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates: Iterable[Path] = [root] if root.suffix == ".py" else []
        else:
            candidates = sorted(root.rglob("*.py"))
        for path in candidates:
            if "__pycache__" in path.parts:
                continue
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path


def module_name_for(path: Path) -> str | None:
    """Dotted module name for files under a ``repro`` package root."""
    parts = list(path.resolve().parts)
    if "repro" not in parts:
        return None
    start = len(parts) - 1 - parts[::-1].index("repro")
    dotted = parts[start:]
    dotted[-1] = dotted[-1][:-3] if dotted[-1].endswith(".py") else dotted[-1]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def _relpath(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def _noqa_map(lines: list[str]) -> dict[int, set[str]]:
    noqa: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "noqa" not in text:
            continue
        match = _NOQA_RE.search(text)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            noqa[lineno] = {"*"}
        else:
            noqa[lineno] = {r.strip() for r in rules.split(",")}
    return noqa


def load_module(path: Path) -> ModuleInfo:
    """Parse one file; raises ``SyntaxError`` when the file won't parse."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    return ModuleInfo(
        path=path,
        relpath=_relpath(path),
        module=module_name_for(path),
        source=source,
        lines=lines,
        tree=tree,
        noqa=_noqa_map(lines),
    )


# ------------------------------------------------------------------ running
@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: actionable findings (not suppressed, not baselined)
    findings: list[Finding] = field(default_factory=list)
    #: findings silenced by an in-source ``# repro: noqa`` comment
    suppressed: list[Finding] = field(default_factory=list)
    #: findings matched (and absorbed) by the baseline file
    baselined: list[Finding] = field(default_factory=list)
    #: baseline fingerprints that no longer match anything (expired)
    stale_baseline: list[str] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def all_raw(self) -> list[Finding]:
        """Findings before baseline filtering (for --update-baseline)."""
        return sorted(
            self.findings + self.baselined,
            key=lambda f: (f.path, f.line, f.col, f.rule),
        )


def _fingerprint(relpath: str, rule: str, line_text: str, index: int) -> str:
    payload = f"{relpath}|{rule}|{line_text.strip()}|{index}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def lint_module(
    module: ModuleInfo, rules: Iterable[Rule]
) -> tuple[list[Finding], list[Finding]]:
    """Run ``rules`` over one module; returns (findings, suppressed)."""
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    occurrence: dict[tuple[str, str], int] = {}
    for rule in rules:
        if not rule.applies_to(module):
            continue
        for line, col, message in sorted(rule.check(module)):
            text = module.line_text(line)
            key = (rule.id, text.strip())
            index = occurrence.get(key, 0)
            occurrence[key] = index + 1
            finding = Finding(
                rule=rule.id,
                severity=rule.severity,
                path=module.relpath,
                line=line,
                col=col,
                message=message,
                fingerprint=_fingerprint(module.relpath, rule.id, text, index),
            )
            marks = module.noqa.get(line, ())
            if "*" in marks or rule.id in marks:
                suppressed.append(finding)
            else:
                findings.append(finding)
    return findings, suppressed


def lint_paths(
    paths: Iterable[str | Path],
    rules: Iterable[Rule] | None = None,
    on_file: Callable[[Path], None] | None = None,
) -> LintResult:
    """Lint every Python file under ``paths`` with the rule pack.

    Unparsable files produce a ``PARSE`` finding instead of aborting
    the run, so one bad file can't hide the rest of the report.
    Baseline filtering is the caller's job (see
    :meth:`repro.lint.baseline.Baseline.apply`).
    """
    active = list(rules) if rules is not None else default_rules()
    result = LintResult()
    for path in iter_python_files(paths):
        if on_file is not None:
            on_file(path)
        result.files_checked += 1
        try:
            module = load_module(path)
        except SyntaxError as error:
            relpath = _relpath(path)
            line = error.lineno or 1
            result.findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    severity="error",
                    path=relpath,
                    line=line,
                    col=error.offset or 0,
                    message=f"file does not parse: {error.msg}",
                    fingerprint=_fingerprint(relpath, PARSE_ERROR_RULE, "", 0),
                )
            )
            continue
        findings, suppressed = lint_module(module, active)
        result.findings.extend(findings)
        result.suppressed.extend(suppressed)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    result.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
