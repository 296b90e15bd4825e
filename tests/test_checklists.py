"""Checklists: the directory is listed once per run, a file named after
the group wins over default.txt, each file present is read at most once,
and an unreadable or non-UTF-8 file is one typed error."""

import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schemreview import review
from schemreview.errors import BadChecklist, ConfigError, SchemReviewError
from schemreview.review import checklist_loader

BUNDLED = resources.files("schemreview.checklists")


def counted_reads(monkeypatch) -> list:
    reads = []
    read_text = review.read_text

    def counted(path):
        reads.append(path)
        return read_text(path)

    monkeypatch.setattr(review, "read_text", counted)
    return reads


def test_a_group_checklist_wins_over_the_default_in_the_bundled_set():
    # the package's own checklists directory, listed as a custom one is
    load = checklist_loader()
    power = BUNDLED.joinpath("power_stage.txt").read_text(encoding="utf-8")
    default = BUNDLED.joinpath("default.txt").read_text(encoding="utf-8")
    assert power != default
    assert load("Power Stage") == power
    assert load("anything else") == default


def test_a_group_checklist_wins_over_the_default_in_a_custom_directory(tmp_path):
    (tmp_path / "default.txt").write_text("fallback", encoding="utf-8")
    (tmp_path / "power_stage.txt").write_text("power", encoding="utf-8")
    load = checklist_loader(str(tmp_path))
    assert load("power stage") == "power"
    assert load("io") == "fallback"


def test_each_file_present_is_read_once_and_no_absent_name_is_opened(tmp_path,
                                                                     monkeypatch):
    (tmp_path / "default.txt").write_text("fallback", encoding="utf-8")
    (tmp_path / "power_stage.txt").write_text("power", encoding="utf-8")
    (tmp_path / "io_group.txt").mkdir()  # a directory is not a checklist
    reads = counted_reads(monkeypatch)
    load = checklist_loader(str(tmp_path))
    for name in ("power stage", "io group", "other", "power stage", "another"):
        load(name)
    assert sorted(reads) == [str(tmp_path / "default.txt"),
                             str(tmp_path / "power_stage.txt")]


def test_the_directory_is_listed_when_the_loader_is_made(tmp_path):
    load = checklist_loader(str(tmp_path))
    (tmp_path / "default.txt").write_text("too late", encoding="utf-8")
    assert load("any group") == ""
    assert checklist_loader(str(tmp_path))("any group") == "too late"


@pytest.mark.parametrize("missing", ["absent", "a-file/below"])
def test_a_missing_directory_gives_empty_checklists(tmp_path, missing):
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    assert checklist_loader(str(tmp_path / missing))("power stage") == ""


def test_a_directory_that_cannot_be_listed_is_a_typed_error(tmp_path):
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    with pytest.raises(BadChecklist, match=f"cannot list checklist directory {loop}: "):
        checklist_loader(str(loop))


def test_a_checklist_keeps_text_modes_newlines(tmp_path):
    (tmp_path / "default.txt").write_bytes(b"- one\r\n- two\r- three\n")
    assert checklist_loader(str(tmp_path))("g") == "- one\n- two\n- three\n"


def test_a_checklist_that_is_not_utf8_is_a_typed_error_naming_the_file(tmp_path):
    (tmp_path / "default.txt").write_bytes(b"\xff\xfe")
    with pytest.raises(BadChecklist) as exc:
        checklist_loader(str(tmp_path))("any group")
    assert isinstance(exc.value, ConfigError)
    assert str(exc.value).startswith(f"checklist {tmp_path / 'default.txt'}: ")


# group names and file names that map to one another, and any other names
NAMES = st.sampled_from(["default", "power_stage", "io", "Power Stage", "IO", "io_",
                         "ünï", "a.b", "-", " "]) | st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="/\0"),
    min_size=1, max_size=6).filter(lambda name: name not in (".", ".."))
SETTINGS = settings(max_examples=150, deadline=None, database=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("checklists")


@SETTINGS
@given(files=st.dictionaries(NAMES.map(lambda name: f"{name}.txt") | NAMES,
                             st.binary(max_size=12), max_size=4),
       groups=st.lists(NAMES, min_size=1, max_size=4))
def test_a_checklist_directory_gives_text_or_a_typed_error(workdir, files, groups):
    directory = Path(tempfile.mkdtemp(dir=workdir))
    for name, raw in files.items():
        (directory / name).write_bytes(raw)
    load = checklist_loader(str(directory))
    for group in groups:
        try:
            text = load(group)
        except SchemReviewError as exc:
            assert isinstance(exc, BadChecklist)
            continue
        slug = "".join(ch if ch.isalnum() else "_" for ch in group.lower())
        name = next((n for n in (f"{slug}.txt", "default.txt") if n in files), None)
        expected = "" if name is None else (directory / name).read_text(encoding="utf-8")
        assert text == expected
