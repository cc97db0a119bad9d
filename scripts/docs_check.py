#!/usr/bin/env python
"""Docs health check: docstrings everywhere, README/docs present + valid.

CI runs this so the project documentation cannot rot silently:

1. every module under ``src/repro`` (packages included) carries a module
   docstring, so ``pydoc repro.<anything>`` is usable;
2. the package docstrings of the documented subsystems mention the
   invariant their docs promise;
3. ``README.md`` and ``docs/architecture.md`` exist and are non-trivial;
4. every ``python`` code block in those documents *compiles* — examples
   may drift semantically, but they may not stop parsing;
5. every ``--flag`` and ``TRIPS_*`` name those documents mention still
   occurs in the source it belongs to (the ``trips`` CLI under
   ``src/repro``, or a bench, example or ``scripts/`` script the
   documents invoke), so
   a removed switch cannot live on in the docs; likewise every
   ``--backend NAME`` / ``backend="NAME"`` in those documents or in
   ``examples/*.py`` names a backend registered in ``engine/backends.py``
   (read with ``ast``, without importing the package);
6. nothing under ``src/repro`` reads a ``TRIPS_*`` environment variable:
   behaviour is selected by arguments, never by the process environment;
7. every ``tests/…py`` / ``benchmarks/…py`` path and every backticked
   ``test_*`` / ``Test*`` name those documents cite still exists, so a
   retired bench or renamed test cannot live on in a "Proved by" column;
8. every backticked ``EngineConfig.<name>`` / ``LiveConfig.<name>`` in
   ``README.md``, ``docs/*.md`` or anywhere under ``src/repro`` names a
   field or ClassVar of that dataclass (read with ``ast``), so a deleted
   option cannot live on in a docstring.

Exits non-zero listing every problem found (not just the first).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOCUMENTS = ("README.md", "docs/architecture.md")

#: Subsystem packages whose docstrings must state their invariants.
INVARIANT_PACKAGES = {
    "repro.core.complementing": "bit-for-bit",
    "repro.engine": "identical",
    "repro.knowledge": "bit-for-bit",
    "repro.live": "exact",
    "repro.distributed": "bit-for-bit",
    "repro.durability": "bit-for-bit",
    "repro.columnar": "bit-for-bit",
    "repro.telemetry": "bit-for-bit",
}

CODE_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]+")
ENV_NAME = re.compile(r"\bTRIPS_[A-Z_]+\b")
ENV_READ = re.compile(r"(?:environ|getenv)[^\"']{0,40}[\"'](TRIPS_[A-Z_]+)")
BACKEND_NAME = re.compile(
    r"(?<![\w-])--backend[ =]+([a-z]\w*)|\bbackend=[\"'](\w+)[\"']"
)

#: Python sources a documented flag or variable may belong to: the
#: package first, then the scripts the documents tell readers to run.
SWITCH_SOURCES = ("src/repro", "benchmarks", "examples", "scripts")
#: Flags of third-party tools the documents invoke.
FOREIGN_FLAGS = {"--benchmark-disable"}  # pytest-benchmark

#: A cited suite path, or a bare ``bench_*.py`` name (under benchmarks/).
CITED_PATH = re.compile(
    r"\b(?:tests|benchmarks)/[\w/.-]*?\.py\b|(?<![\w/])bench_\w+\.py\b"
)
CITED_NAME = re.compile(r"(?:`|::)((?:test_|Test)\w+)`")
DEFINITION = re.compile(r"^\s*(?:def|class)\s+(\w+)", re.MULTILINE)
#: Where a cited test (or bench) name must be defined.
CITATION_SOURCES = ("tests", "benchmarks")

#: Config dataclasses whose backticked ``Name.field`` mentions must name a
#: field, and the module that defines each.
CONFIG_CLASSES = {
    "EngineConfig": "engine/engine.py",
    "LiveConfig": "live/service.py",
}
CONFIG_FIELD = re.compile(
    r"`(" + "|".join(CONFIG_CLASSES) + r")\.(\w+)"
)


def module_name(path: Path) -> str:
    relative = path.relative_to(SRC.parent).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def check_docstrings(problems: list[str]) -> None:
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstring = ast.get_docstring(tree)
        name = module_name(path)
        if not docstring or not docstring.strip():
            problems.append(f"{name}: missing module docstring ({path})")
            continue
        needle = INVARIANT_PACKAGES.get(name)
        if needle and needle not in docstring:
            problems.append(
                f"{name}: package docstring no longer states its "
                f"{needle!r} invariant"
            )


def check_documents(problems: list[str]) -> None:
    for relative in DOCUMENTS:
        path = ROOT / relative
        if not path.exists():
            problems.append(f"{relative}: missing")
            continue
        text = path.read_text(encoding="utf-8")
        if len(text.strip()) < 500:
            problems.append(f"{relative}: suspiciously empty")
        for index, block in enumerate(CODE_BLOCK.findall(text)):
            try:
                compile(block, f"{relative}[python block {index}]", "exec")
            except SyntaxError as exc:
                problems.append(
                    f"{relative}: python block {index} does not compile: "
                    f"{exc}"
                )


def registered_backends() -> set[str]:
    """The keys of ``engine/backends.py``'s ``BACKENDS``: each is a
    backend class's ``name`` attribute, resolved from the syntax tree."""
    tree = ast.parse(
        (SRC / "engine" / "backends.py").read_text(encoding="utf-8")
    )
    class_names: dict[str, str] = {}
    registry: ast.Dict | None = None
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for statement in node.body:
                if (
                    isinstance(statement, ast.Assign)
                    and any(
                        isinstance(target, ast.Name) and target.id == "name"
                        for target in statement.targets
                    )
                    and isinstance(statement.value, ast.Constant)
                ):
                    class_names[node.name] = statement.value.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "BACKENDS"
        ):
            registry = node.value
    if registry is None:
        return set()
    return {class_names[key.value.id] for key in registry.keys}


def check_backend_names(problems: list[str]) -> None:
    known = registered_backends()
    if not known:
        problems.append("engine/backends.py: no BACKENDS registry found")
        return
    paths = [ROOT / relative for relative in DOCUMENTS]
    paths += sorted((ROOT / "examples").glob("*.py"))
    for path in paths:
        if not path.exists():
            continue  # reported by check_documents
        text = path.read_text(encoding="utf-8")
        for match in BACKEND_NAME.finditer(text):
            name = match.group(1) or match.group(2)
            if name not in known:
                problems.append(
                    f"{path.relative_to(ROOT)}: names backend {name!r}, "
                    f"which is not registered "
                    f"(known: {', '.join(sorted(known))})"
                )


def check_switches(problems: list[str]) -> None:
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for root in SWITCH_SOURCES
        for path in sorted((ROOT / root).rglob("*.py"))
    )
    for relative in DOCUMENTS:
        path = ROOT / relative
        if not path.exists():
            continue  # reported by check_documents
        text = path.read_text(encoding="utf-8")
        names = set(FLAG.findall(text)) - FOREIGN_FLAGS
        names |= set(ENV_NAME.findall(text))
        for name in sorted(names):
            if f'"{name}"' not in sources:
                problems.append(
                    f"{relative}: mentions {name}, which no source defines"
                )
    for path in sorted(SRC.rglob("*.py")):
        for name in ENV_READ.findall(path.read_text(encoding="utf-8")):
            problems.append(
                f"{module_name(path)}: reads the {name} environment variable"
            )


def check_citations(problems: list[str]) -> None:
    defined = {
        name
        for root in CITATION_SOURCES
        for path in sorted((ROOT / root).rglob("*.py"))
        for name in DEFINITION.findall(path.read_text(encoding="utf-8"))
    }
    for relative in DOCUMENTS:
        path = ROOT / relative
        if not path.exists():
            continue  # reported by check_documents
        text = path.read_text(encoding="utf-8")
        cited_paths = {
            cited if "/" in cited else f"benchmarks/{cited}"
            for cited in CITED_PATH.findall(text)
        }
        for cited in sorted(cited_paths):
            if not (ROOT / cited).is_file():
                problems.append(f"{relative}: cites {cited}, which is gone")
        for name in sorted(set(CITED_NAME.findall(text)) - defined):
            problems.append(
                f"{relative}: cites {name}, which no test or bench defines"
            )


def config_fields(name: str) -> set[str]:
    """The annotated class-body names (fields and ClassVars) of config
    dataclass ``name``, resolved from the syntax tree."""
    tree = ast.parse(
        (SRC / CONFIG_CLASSES[name]).read_text(encoding="utf-8")
    )
    return {
        statement.target.id
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == name
        for statement in node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
    }


def check_config_fields(problems: list[str]) -> None:
    fields = {name: config_fields(name) for name in CONFIG_CLASSES}
    paths = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    paths += sorted(SRC.rglob("*.py"))
    for path in paths:
        if not path.exists():
            continue  # reported by check_documents
        text = path.read_text(encoding="utf-8")
        for match in CONFIG_FIELD.finditer(text):
            name, field = match.groups()
            if field not in fields[name]:
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{path.relative_to(ROOT)}:{line}: names "
                    f"{name}.{field}, which is not a field of {name}"
                )


def main() -> int:
    problems: list[str] = []
    check_docstrings(problems)
    check_documents(problems)
    check_switches(problems)
    check_backend_names(problems)
    check_citations(problems)
    check_config_fields(problems)
    if problems:
        print("docs check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    modules = len(list(SRC.rglob("*.py")))
    print(
        f"docs check OK: {modules} modules documented, "
        f"{len(DOCUMENTS)} documents present and compiling"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
