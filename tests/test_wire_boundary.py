"""The wire record has two homes, and this scan keeps it there.

``fountain/packets.py`` owns the layout (where each header field sits)
and ``transfer/codec.py`` the size rule (which header a stream carries,
and the manifest's ``block_header`` flag).  Any other module of
``src/`` that names a header size or the flag has started deciding the
format a second time; the change that adds a stream kind would then
have to find it.  The header fields are written and read in one module
only — ``stamp_headers`` and ``record_ids``, a packet being a record of
one — so no other module names the field dtype (``">u4"``) either.  And
no other module reads the codec's ``block_aware`` flag: a sender picks
its header kind by stamping at the codec's ``header_size``.  Only the
receive path (``api.py``) reads headers back: a sender draws its ids
before it stamps them, so no send path names ``record_ids``.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: the modules allowed to name the format (``fountain/__init__.py``
#: only re-exports the sizes).
HOMES = {"fountain/packets.py", "fountain/__init__.py", "transfer/codec.py"}

NAMES = {"HEADER_SIZE", "BLOCK_HEADER_SIZE"}
KEYS = {"block_header"}

#: the one module that writes and reads the header fields, and the
#: dtype they are written in.
FIELD_HOME = "fountain/packets.py"
FIELD_DTYPE = ">u4"

#: the codec's header-kind flag, and the modules that may read it.
FLAG = "block_aware"
FLAG_HOMES = {"fountain/packets.py", "transfer/codec.py"}


def format_mentions(tree: ast.AST):
    """Line and spelling of every node of ``tree`` that names a header
    size or the ``block_header`` key."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias) and node.name in NAMES:
            yield getattr(node, "lineno", 0), node.name
        elif isinstance(node, ast.Constant) and node.value in KEYS:
            yield node.lineno, repr(node.value)


def test_scan_finds_every_spelling():
    tree = ast.parse("from repro.fountain import HEADER_SIZE as H\n"
                     "x = packets.BLOCK_HEADER_SIZE + HEADER_SIZE\n"
                     "flag = manifest.get('block_header')\n")
    assert [name for _, name in format_mentions(tree)] == [
        "HEADER_SIZE", "BLOCK_HEADER_SIZE", "HEADER_SIZE", "'block_header'"]


def test_only_the_two_homes_name_the_wire_format():
    leaks = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() not in HOMES
             for line, name in format_mentions(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not leaks, ("the wire format leaked out of fountain/packets.py "
                       "and transfer/codec.py:\n" + "\n".join(leaks))


def field_dtype_mentions(tree: ast.AST):
    """Line of every string constant of ``tree`` that is the header
    field dtype."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value == FIELD_DTYPE:
            yield node.lineno


def test_scan_finds_the_field_dtype():
    tree = ast.parse("fields = rows.view('>u4')\n"
                     "wide = np.dtype(\">u4\")\n"
                     "other = rows.view('<u4')\n")
    assert list(field_dtype_mentions(tree)) == [1, 2]


def test_one_writer_and_one_reader_of_the_header_fields():
    leaks = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() != FIELD_HOME
             for line in field_dtype_mentions(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not leaks, (f"header fields ({FIELD_DTYPE!r}) handled outside "
                       f"{FIELD_HOME}:\n" + "\n".join(leaks))


def flag_reads(tree: ast.AST):
    """Line of every attribute read of the header-kind flag in
    ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == FLAG:
            yield node.lineno


def test_scan_finds_the_flag_read():
    tree = ast.parse("block = spec.block if codec.block_aware else None\n"
                     "packet = EncodingPacket.from_bytes(data, "
                     "block_aware=True)\n"
                     "aware = getattr(self, 'codec').block_aware\n")
    assert sorted(flag_reads(tree)) == [1, 3]


def test_only_the_two_homes_read_the_header_kind():
    leaks = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() not in FLAG_HOMES
             for line in flag_reads(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not leaks, (f"the header kind ({FLAG}) read outside "
                       f"{' and '.join(sorted(FLAG_HOMES))}:\n"
                       + "\n".join(leaks))


#: the header reader, and the modules that may name it: its home and
#: the receive path.  A sender knows the ids it stamped.
READER = "record_ids"
READER_HOMES = {"fountain/packets.py", "api.py"}


def reader_mentions(tree: ast.AST):
    """Line of every node of ``tree`` that names the header reader."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == READER:
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == READER:
            yield node.lineno
        elif isinstance(node, ast.alias) and node.name == READER:
            yield getattr(node, "lineno", 0)


def test_scan_finds_the_reader():
    tree = ast.parse("from repro.fountain.packets import record_ids\n"
                     "ids = packets.record_ids(records, 16)\n"
                     "more = record_ids(records, 12)\n"
                     "name = 'record_ids'\n")
    assert sorted(reader_mentions(tree)) == [1, 2, 3]


def test_the_send_side_never_reads_a_header():
    leaks = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() not in READER_HOMES
             for line in reader_mentions(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not leaks, (f"{READER} named outside "
                       f"{' and '.join(sorted(READER_HOMES))}:\n"
                       + "\n".join(leaks))
