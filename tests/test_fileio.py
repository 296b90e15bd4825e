"""The run's file helpers: one binary open each, and the text, bytes and
lengths that text-mode ``Path.read_text``/``write_text`` gave."""

import pytest
from hypothesis import given, settings, strategies as st

from schemreview.fileio import read_bytes, read_text, write_text

SETTINGS = settings(max_examples=150, deadline=None, database=None)
# newline characters text mode translates or keeps, and non-ASCII text
CHARS = st.sampled_from(["a", "\r", "\n", "\r\n", "\x85", " ", "\f", "é", "﻿"])
TEXTS = st.lists(CHARS, max_size=12).map("".join)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fileio")


@SETTINGS
@given(raw=st.binary(max_size=24) | TEXTS.map(str.encode))
def test_a_read_is_what_text_mode_read(workdir, raw):
    path = workdir / "read.txt"
    path.write_bytes(raw)
    try:
        expected = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        with pytest.raises(UnicodeDecodeError):
            read_text(path)
    else:
        assert read_text(path) == expected
    assert read_bytes(path) == raw


@SETTINGS
@given(text=TEXTS)
def test_a_write_is_what_text_mode_wrote(workdir, text):
    ours, theirs = workdir / "ours.txt", workdir / "theirs.txt"
    write_text(ours, text)
    theirs.write_text(text, encoding="utf-8")
    assert ours.read_bytes() == theirs.read_bytes() == text.encode()


def test_crlf_text_reads_as_text_mode_does(tmp_path):
    path = tmp_path / "crlf.resp"
    path.write_bytes(b'{"pages":\r\n [1]}\r\r\n')
    assert read_text(path) == '{"pages":\n [1]}\n\n'


def test_text_that_cannot_be_encoded_leaves_no_file(tmp_path):
    path = tmp_path / "out.md"
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "lone \ud800 surrogate")
    assert not path.exists()


def test_a_missing_file_and_a_directory_fail_at_the_open(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_text(tmp_path / "absent.txt")
    with pytest.raises(IsADirectoryError):
        read_text(tmp_path)
    with pytest.raises(NotADirectoryError):
        (tmp_path / "file").write_text("")
        read_text(tmp_path / "file" / "child.txt")
