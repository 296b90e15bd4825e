"""Exception types shared across the pipeline."""

from __future__ import annotations


class SchemReviewError(Exception):
    """Base class for all errors raised by this package."""


# --- schematic front end ---------------------------------------------------

class MalformedInput(SchemReviewError):
    """Input bytes could not be decoded into a schematic.

    ``offset`` is the byte offset of the problem when known, else None.
    """

    def __init__(self, message: str, offset: int | None = None):
        loc = f" (byte {offset})" if offset is not None else ""
        super().__init__(f"{message}{loc}")
        self.offset = offset

    @classmethod
    def at(cls, message: str, text: str, pos: int) -> "MalformedInput":
        """The problem at character ``pos`` of ``text``, reported at its
        UTF-8 byte offset."""
        return cls(message, len(text[:pos].encode()))

class UnknownFormat(SchemReviewError):
    """No format signature matched the input's content."""

class MalformedNetBlock(SchemReviewError):
    """A pstxnet net block violates the subset grammar."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line

class DuplicateNetName(SchemReviewError):
    """Two pstxnet blocks declare the same net name."""

class MissingSidecar(SchemReviewError):
    """A DE-HDL schematic has no pstxnet sidecar to augment from."""

class InferenceFailed(SchemReviewError):
    """Wire tracing found dangling endpoints it cannot resolve."""

    def __init__(self, page_id: str, points: list[tuple[float, float]]):
        coords = ", ".join(f"({x}, {y})" for x, y in points)
        super().__init__(f"page {page_id}: dangling wire endpoints at {coords}")
        self.page_id = page_id
        self.points = points


# --- llm gateway -----------------------------------------------------------

class BackendUnavailable(SchemReviewError):
    """The completion backend cannot serve the request."""

class BackendTimeout(SchemReviewError):
    """The completion backend did not answer within the configured timeout."""

class SchemaViolationAfterRetries(SchemReviewError):
    """Backend output still failed schema validation after all repair attempts."""

    def __init__(self, message: str, last_raw: str):
        super().__init__(message)
        self.last_raw = last_raw


# --- datasheet retrieval ---------------------------------------------------

class NoCandidates(SchemReviewError):
    """No library produced a candidate datasheet URL for the part."""

class FetchFailed(SchemReviewError):
    """A datasheet download failed (HTTP status or IO detail in message)."""

class NotADatasheet(SchemReviewError):
    """The fetched payload could not be decoded as a datasheet document."""

class AllAttemptsFailed(SchemReviewError):
    """Every retrieval attempt errored; per-attempt causes are preserved."""

    def __init__(self, causes: list[tuple[str, Exception]]):
        detail = "; ".join(f"{url}: {exc}" for url, exc in causes)
        super().__init__(f"all attempts failed: {detail}")
        self.causes = causes

class StoreIo(SchemReviewError):
    """A file store (the datasheet cache, the file sink, the trace file)
    hit an IO error."""


# --- review engine ---------------------------------------------------------

class AllRunsFailed(SchemReviewError):
    """Every fan-out review run failed; no result to combine."""


# --- reporting / orchestrator ----------------------------------------------

class SinkUnreachable(SchemReviewError):
    """The review sink rejected every delivery even after retries."""

class ConfigError(SchemReviewError):
    """The run configuration is invalid."""

class BadChecklist(ConfigError):
    """A checklist file, or its directory, cannot be read or is not UTF-8."""

class InputError(SchemReviewError):
    """A run input (schematic path, page override, ...) is invalid."""
