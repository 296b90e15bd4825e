"""How a run reads and writes its files: one binary open each, with no
``stat`` before it.

A read decodes strict UTF-8 with text mode's universal newlines
(``\\r\\n`` and ``\\r`` become ``\\n``), so it returns what
``Path.read_text(encoding="utf-8")`` did; a write encodes strict UTF-8
with no newline translation, which is what text mode writes on POSIX.
A missing file is the ``FileNotFoundError`` of the open itself, and a
directory the ``IsADirectoryError``.
"""


def read_bytes(path) -> bytes:
    with open(path, "rb", buffering=0) as fh:
        return fh.readall()


def decode(raw: bytes) -> str:
    """Strict UTF-8, newlines translated as text mode does."""
    text = raw.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_text(path) -> str:
    return decode(read_bytes(path))


def write_text(path, text: str) -> None:
    """``text`` as UTF-8; encoded before the file is opened, so text that
    cannot be encoded leaves no file behind."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
