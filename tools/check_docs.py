#!/usr/bin/env python
"""docs-check: execute every fenced ``python`` block in the given docs,
and resolve every ``*.md`` name the code and docs cite.

Keeps README code honest — each block runs in its own namespace, in a
temporary working directory, with ``src/`` on the path. Fails loudly on
the first block that raises.  Then every name ending in ``.md`` that the
shipped files (:data:`CITING`) mention must name a file, relative to
the repo root or to the citing file's directory: a pointer to a
document that does not exist fails the check like a block that does
not run.

Usage::

    python tools/check_docs.py README.md docs/ARCHITECTURE.md
"""

from __future__ import annotations

import pathlib
import re
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_MD_NAME_RE = re.compile(r"[\w./-]*\w\.md\b")

#: what ships and cites documents: code, tests, tools, examples, the
#: docs and the build (the change logs are history and may name
#: documents since retired).
CITING = ("src", "benchmarks", "tools", "tests", "examples", "docs",
          "README.md", "Makefile", ".github")
_CITING_SUFFIXES = {".py", ".md", ".yml", ".json", ""}


def python_blocks(markdown: str):
    """The contents of every ```python fenced block, in order."""
    return [match.group(1) for match in _BLOCK_RE.finditer(markdown)]


def run_file(path: pathlib.Path) -> int:
    blocks = python_blocks(path.read_text())
    if not blocks:
        print(f"{path}: no python blocks")
        return 0
    failures = 0
    for i, block in enumerate(blocks, 1):
        label = f"{path}: block {i}/{len(blocks)}"
        try:
            code = compile(block, f"<{label}>", "exec")
            exec(code, {"__name__": f"__docs_block_{i}__"})
        except Exception as exc:  # noqa: BLE001 - report and continue
            print(f"FAIL {label}: {type(exc).__name__}: {exc}")
            failures += 1
        else:
            print(f"ok   {label}")
    return failures


def _citing_files(root: pathlib.Path):
    for name in CITING:
        path = root / name
        if path.is_file():
            yield path
        elif path.is_dir():
            yield from (f for f in sorted(path.rglob("*"))
                        if f.is_file() and f.suffix in _CITING_SUFFIXES
                        and "out" not in f.relative_to(root).parts
                        and "golden" not in f.relative_to(root).parts)


def dangling_md_names(root: pathlib.Path = REPO_ROOT):
    """``(file, line, name)`` for every ``*.md`` name in the shipped
    files that resolves neither from the repo root nor from the citing
    file's directory."""
    found = []
    for path in _citing_files(root):
        try:
            text = path.read_text()
        except UnicodeDecodeError:
            continue
        for number, line in enumerate(text.splitlines(), 1):
            for name in _MD_NAME_RE.findall(line):
                if not ((root / name).is_file()
                        or (path.parent / name).is_file()):
                    found.append((path.relative_to(root), number, name))
    return found


def main(argv) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    targets = [pathlib.Path(arg) for arg in argv] or [REPO_ROOT / "README.md"]
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        import os

        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for target in targets:
                failures += run_file(target if target.is_absolute()
                                     else pathlib.Path(cwd) / target)
        finally:
            os.chdir(cwd)
    dangling = dangling_md_names()
    for path, number, name in dangling:
        print(f"FAIL {path}:{number}: {name} names no file")
    if failures or dangling:
        print(f"{failures} doc block(s) failed, "
              f"{len(dangling)} dangling document name(s)")
        return 1
    print("all doc blocks ran clean; every document name resolves")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
