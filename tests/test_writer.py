"""Every output file goes through `graph.write_chunks`: an existing regular
file is overwritten in place and cut to the written length, anything else is
opened "wb".  Whatever was on disk before, the file ends up holding exactly
the fresh bytes, and a refusal leaves it as it was."""

import os

import pytest

from psqcayley import cli, graph
from psqcayley.graph import write_chunks

OUTPUTS = {
    "params": ["params", "--primes", "2,3,5", "--seed", "7"],
    "edges": ["export", "--primes", "2,3,5", "--format", "edges"],
    "dot": ["export", "--primes", "2,3,5", "--format", "dot"],
    "walk": ["export", "--primes", "2,3,5", "--format", "walk"],
    "independent-set": ["export", "--primes", "2,3,5", "--format", "independent-set"],
}


def _write(argv, out) -> bytes:
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("output", OUTPUTS)
def test_each_output_over_a_longer_or_shorter_file_holds_the_fresh_bytes(output, tmp_path):
    argv = OUTPUTS[output]
    fresh = _write(argv, tmp_path / "fresh")
    assert fresh
    for name, old in [("longer", b"x" * (2 * len(fresh) + 7)), ("shorter", b"y" * (len(fresh) // 3)), ("empty", b"")]:
        out = tmp_path / name
        out.write_bytes(old)
        assert _write(argv, out) == fresh, name
        assert _write(argv, out) == fresh, name  # and over its own earlier output


@pytest.mark.parametrize("output", OUTPUTS)
def test_an_overwritten_file_keeps_its_inode(output, tmp_path):
    # as under truncation on open, a hard link to the file sees the new bytes
    out, link = tmp_path / "out", tmp_path / "link"
    out.write_bytes(b"z" * 1_000_000)
    os.link(out, link)
    inode = out.stat().st_ino
    fresh = _write(OUTPUTS[output], out)
    assert out.stat().st_ino == inode
    assert link.read_bytes() == fresh


@pytest.mark.skipif(not os.access(os.devnull, os.W_OK), reason="no writable null device")
@pytest.mark.parametrize("output", OUTPUTS)
def test_out_to_the_null_device_exits_0(output, capsys):
    # not a regular file: opened "wb", and never cut to length
    assert cli.main([*OUTPUTS[output], "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["export", "--primes", "3,5,11", "--format", "edges"], "exceed cap"),
        (["export", "--primes", "2,3,5", "--format", "gml"], "--format must be"),
        (["export", "--primes", "2,3,5", "--format", "walk", "--config", "{cfg}"], "unknown key"),
        (["export", "--primes", "2,3,5", "--format", "dot", "--config", "{cfg}"], "unknown key"),
    ],
    ids=["cap", "format", "config-walk", "config-dot"],
)
def test_a_refusal_leaves_an_existing_file_untouched(argv, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    out = tmp_path / "out"
    out.write_bytes(b"earlier output\n")
    assert cli.main([a.format(cfg=cfg) for a in argv] + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert out.read_bytes() == b"earlier output\n"


def _failing(chunks):
    yield from chunks
    raise RuntimeError("chunk failed")


@pytest.mark.parametrize("old", [None, b"", b"q" * 5, b"q" * 100_000], ids=["missing", "empty", "shorter", "longer"])
def test_a_chunk_that_raises_leaves_exactly_the_written_prefix(old, tmp_path):
    out = tmp_path / "out"
    if old is not None:
        out.write_bytes(old)
    chunks = [b"head\n", b"1 2\n" * 3000, b"tail\n"]
    with pytest.raises(RuntimeError, match="chunk failed"):
        write_chunks(out, _failing(chunks))
    assert out.read_bytes() == b"".join(chunks)


def test_a_file_that_cannot_be_read_is_opened_for_writing_only(tmp_path, monkeypatch):
    # "r+b" needs read access; without it the writer opens "wb", truncating
    opened = []

    def write_only(file, mode="r", *args, **kwargs):
        opened.append(mode)
        if "+" in mode:
            raise PermissionError(13, "Permission denied", str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(graph, "open", write_only, raising=False)
    out = tmp_path / "out"
    out.write_bytes(b"w" * 1000)
    write_chunks(out, [b"new\n"])
    assert out.read_bytes() == b"new\n"
    assert opened == ["r+b", "wb"]

