"""tools/check_docs.py: every document the shipped files cite exists."""

import importlib.util
import pathlib

_SPEC = importlib.util.spec_from_file_location(
    "check_docs",
    pathlib.Path(__file__).resolve().parent.parent / "tools"
    / "check_docs.py")
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


def test_every_cited_document_exists():
    assert check_docs.dangling_md_names() == []


def test_a_name_resolves_from_the_root_or_the_citing_directory(tmp_path):
    # names built at run time, so this file cites no missing document
    gone, old = "docs/GONE" + ".md", "EXPERIMENTS" + ".md"
    readme = "README" + ".md"
    (tmp_path / readme).write_text("# root\n")
    notes = tmp_path / "benchmarks" / "e2e"
    notes.mkdir(parents=True)
    (notes / readme).write_text("# e2e\n")
    (notes / "run.py").write_text(
        f'"""See {readme}, {gone} and ../../{readme}."""\n')
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(f"# cf. {old}\n")
    found = check_docs.dangling_md_names(tmp_path)
    assert sorted((str(path), line, name) for path, line, name in found) == [
        ("benchmarks/e2e/run.py", 1, gone),
        ("src/mod.py", 1, old),
    ]
