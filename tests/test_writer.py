"""Every output file goes through `graph.write_chunks`: the target is opened
once, with os.open and no O_TRUNC, and overwritten in place; a regular file
is then cut to the written length, while a device or a pipe is written
without a cut.  Whatever was on disk before, the file ends up holding
exactly the fresh bytes, and a refusal leaves it as it was."""

import os
import threading

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
    # not a regular file: written without a cut
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


@pytest.mark.parametrize("output", OUTPUTS)
def test_each_target_is_opened_once_without_truncation(output, tmp_path, monkeypatch):
    # one os.open per target, never O_TRUNC; the built-in open only wraps its descriptor
    opened, wrapped = [], []
    os_open = os.open

    def spy_os_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return os_open(path, flags, *args, **kwargs)

    def spy_open(file, *args, **kwargs):
        wrapped.append(file)
        return open(file, *args, **kwargs)

    argv = OUTPUTS[output]
    fresh = _write(argv, tmp_path / "fresh")
    longer = tmp_path / "longer"
    longer.write_bytes(b"x" * (2 * len(fresh) + 7))
    longer.chmod(0o200)  # write-only: overwritten in place all the same
    targets = [tmp_path / "missing", longer]
    if os.access(os.devnull, os.W_OK):
        targets.append(os.devnull)
    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(graph, "open", spy_open, raising=False)
    for target in targets:
        opened.clear()
        wrapped.clear()
        assert cli.main([*argv, "--out", str(target)]) == 0
        assert [path for path, _ in opened] == [str(target)], target
        flags = opened[0][1]
        assert flags & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT, target
        assert not flags & os.O_TRUNC, target
        assert all(isinstance(f, int) for f in wrapped), target
        if target != os.devnull:
            target.chmod(0o600)
            assert target.read_bytes() == fresh, target


def _drain(fifo, received):
    with open(fifo, "rb") as f:
        received.append(f.read())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("output", ["walk", "params"])
def test_a_named_pipe_receives_exactly_the_fresh_bytes(output, tmp_path):
    # a pipe is not regular: written without a cut, and read to its end
    argv = OUTPUTS[output]
    fresh = _write(argv, tmp_path / "fresh")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=_drain, args=(fifo, received), daemon=True)
    reader.start()
    try:
        assert cli.main([*argv, "--out", str(fifo)]) == 0
        reader.join(timeout=30)
    finally:
        if reader.is_alive():  # the writer never opened the pipe: release the reader
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
    assert received == [fresh]


@pytest.mark.parametrize("output", OUTPUTS)
def test_a_directory_as_out_exits_2_and_is_left_as_it_was(output, tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    (target / "inside").write_bytes(b"kept\n")
    before = os.stat(target)
    assert cli.main([*OUTPUTS[output], "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert sorted(p.name for p in target.iterdir()) == ["inside"]
    assert (target / "inside").read_bytes() == b"kept\n"
    after = os.stat(target)
    assert (after.st_ino, after.st_mode, after.st_mtime_ns) == (before.st_ino, before.st_mode, before.st_mtime_ns)
