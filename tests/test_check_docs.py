"""tools/check_docs.py: every document and module path the shipped files
cite exists, and README holds the claims table."""

import importlib.util
import pathlib

_SPEC = importlib.util.spec_from_file_location(
    "check_docs",
    pathlib.Path(__file__).resolve().parent.parent / "tools"
    / "check_docs.py")
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


def test_every_cited_document_exists():
    assert check_docs.dangling_names() == []


def test_readme_holds_the_claims_table():
    assert check_docs.claims_table_drift() is None


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
    mod = "src/" + "mod.py"
    (tmp_path / "src").mkdir()
    (tmp_path / mod).write_text(f"# cf. {old}\n")
    found = check_docs.dangling_names(tmp_path)
    assert sorted((str(path), line, name) for path, line, name in found) == [
        ("benchmarks/e2e/run.py", 1, gone),
        (mod, 1, old),
    ]


def test_a_module_path_resolves_from_the_root_or_as_a_paths_tail(tmp_path):
    # names built at run time, so this file cites no missing module
    tail, whole = "pkg/" + "codec.py", "src/pkg/" + "codec.py"
    gone, bare = "benchmarks/" + "bench_gone.py", "bench_gone" + ".py"
    cite = "tools/" + "cite.py"
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / whole).write_text("")
    (tmp_path / "tools").mkdir()
    (tmp_path / cite).write_text(
        f'"""{tail}, {whole}, {bare} and\n{gone}::test_x."""\n')
    found = check_docs.dangling_names(tmp_path)
    assert [(str(path), line, name) for path, line, name in found] == [
        (cite, 2, gone)]
