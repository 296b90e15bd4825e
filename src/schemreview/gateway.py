"""Uniform, tiered, schema-validated access to chat-completion backends.

Two backends share one contract: a live HTTP backend speaking the common
chat-completions wire format, and a fixture-driven mock that makes every
pipeline run reproducible. Responses must validate against their agent
kind's JSON schema, ``schemas/<kind>.json``; malformed output is
re-prompted with the validation error appended, at most ``MAX_REPAIRS``
times.

A request may ask for n completions of one payload (``AgentRequest.n``,
the chat-completions ``n``): the k runs of a group review are the k
choices of one request, sampled at ``REVIEW_TEMPERATURE``. Each choice
is validated alone and returned unrepaired; the caller remakes a choice
that is missing or fails its schema as a one-completion call.

Mock fixtures live under ``<fixture_path>/<agent_kind>/<digest>-<seed>.resp``
where ``digest`` is the first 16 hex chars of the SHA-256 of the user
payload; choice i of a request seeded s is the fixture of seed s + i.
The mock is thus a pure function of (agent kind, payload, seed).

Every call, failed or not, records one span named after its agent kind;
``usage_by_kind`` sums those spans into the run's usage.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os
import time
from typing import NamedTuple

from . import httpreq
from .errors import (
    BackendTimeout,
    BackendUnavailable,
    ConfigError,
    SchemaViolationAfterRetries,
)
from .fileio import read_text, write_text
from .records import Settings
from .schemacheck import error_path, shipped
from .tracing import UNTRACED, TraceContext, TraceEvent
from .workfirst import before_wait

MAX_REPAIRS = 2

REVIEW_TEMPERATURE = 0.7
"""The live backend's sampling temperature for ``group_review``, whose k
choices must differ for the multi-run consensus to compare independent
reviews; every other agent kind is sent at 0.0. How diverse the choices
are at this temperature on a hosted model cannot be measured offline."""

class AgentKind(enum.Enum):
    SELECTION = "selection"
    HEAD_ANALYSIS = "head_analysis"
    EXTRACTION = "extraction"
    CRITIC = "critic"
    GROUP_REVIEW = "group_review"
    CONSENSUS = "consensus"


# reviewing and combining agents get the strong model; mechanical ones the weak
_STRONG_KINDS = frozenset({AgentKind.SELECTION, AgentKind.GROUP_REVIEW, AgentKind.CONSENSUS})


class TokenUsage(NamedTuple):
    tokens_in: int = 0
    tokens_out: int = 0

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(self.tokens_in + other.tokens_in,
                          self.tokens_out + other.tokens_out)


class AgentRequest(NamedTuple):
    """``n`` None asks for one completion, repaired until it validates;
    ``n`` = k asks for k choices, choice i standing in for seed
    ``seed + i``, each validated alone (``AgentResponse.choices``)."""
    agent_kind: AgentKind
    system_prompt: str
    user_payload: str
    seed: int = 0
    n: int | None = None


class Choice(NamedTuple):
    """One choice of an n-choice response: its validated value, or why
    it failed its schema (``failure``)."""
    value: object = None
    failure: str | None = None


class AgentResponse(NamedTuple):
    value: object
    usage: TokenUsage
    attempts: int = 1
    # an n-choice request's choices in index order; None where missing
    choices: tuple[Choice | None, ...] = ()


class BackendConfig(Settings):
    """Which backend serves the agents, its models, and how calls are bounded."""

    _defaults = {"kind": "mock",  # "mock" | "live-http"
                 "endpoint": None, "strong_model": "strong-default",
                 "weak_model": "weak-default", "consensus_model": None, "fixture_path": None,
                 "api_key_env": "SCHEMREVIEW_API_KEY", "timeout_s": 60.0,
                 "max_in_flight": 8, "mock_delay_s": 0.0}
    _fields = tuple(_defaults)

    def validate(self) -> None:
        if self.kind not in ("mock", "live-http"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.kind == "live-http" and not self.endpoint:
            raise ConfigError("live-http backend requires an endpoint")
        if self.kind == "mock" and not self.fixture_path:
            raise ConfigError("mock backend requires a fixture_path")
        if self.max_in_flight < 1:
            raise ConfigError(f"max_in_flight must be >= 1, got {self.max_in_flight!r}")
        if not 0 < self.timeout_s < math.inf:
            raise ConfigError(f"timeout_s must be finite and positive, got {self.timeout_s!r}")
        if not 0 <= self.mock_delay_s < math.inf:
            raise ConfigError("mock_delay_s must be finite and nonnegative, "
                              f"got {self.mock_delay_s!r}")


def resolve_model(cfg: BackendConfig, agent_kind: AgentKind) -> str:
    """Model name for an agent; the consensus agent may use a dedicated one."""
    if agent_kind is AgentKind.CONSENSUS and cfg.consensus_model:
        return cfg.consensus_model
    if agent_kind in _STRONG_KINDS:
        return cfg.strong_model
    return cfg.weak_model


# --- response schemas ----------------------------------------------------------

class SchemaRegistry:
    """An agent kind's response schema is ``schemas/<kind>.json``. A
    rejected value's error is worded by jsonschema: the first of its
    errors by text."""

    def validate(self, agent_kind: AgentKind, value) -> None:
        schema = shipped(f"{agent_kind.value}.json")
        if schema.check(value):
            return
        err = min(schema.errors(value), key=str)
        raise ValueError(f"{error_path(err)}: {err.message}")


# --- payload identity and repair ---------------------------------------------

def payload_digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def repair_payload(payload: str, error: str) -> str:
    """The re-prompt sent after a schema failure (error appended verbatim)."""
    return f"{payload}\n\n[schema-error]\n{error}"


def fixture_relpaths(req: AgentRequest, payload: str) -> list[str]:
    """The fixture of each choice ``req`` asks for, when sent ``payload``;
    the payload is hashed once for all of them."""
    stem = f"{req.agent_kind.value}/{payload_digest(payload)}-"
    return [f"{stem}{req.seed + i}.resp" for i in range(req.n or 1)]


# --- backends -----------------------------------------------------------------

class MockBackend:
    """Reads canned responses from the fixture directory; contention-free.

    Choice i is read from the fixture of seed ``req.seed + i``. A missing
    fixture (no file, a directory in its place, or no directory for its
    agent kind) leaves its choice out (None) and drops the offending
    payload next to it as ``<digest>-<seed>.req``, so a fixture author can
    script the response without re-deriving the payload; a request none
    of whose choices exists raises BackendUnavailable naming the missing
    keys. A fixture that is not UTF-8 fails the whole request with
    BackendUnavailable naming it, as ``LiveHttpBackend`` fails a reply it
    cannot decode. A request is one round trip: it waits ``mock_delay_s``
    once, however many choices it asks for.
    """

    def __init__(self, cfg: BackendConfig):
        self.root = os.path.join(cfg.fixture_path, "")  # ends in a separator
        self.delay_s = cfg.mock_delay_s

    def _read(self, rel: str, payload: str) -> str | None:
        path = self.root + rel
        try:
            return read_text(path)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            pass
        except UnicodeDecodeError as exc:  # as a live reply that cannot be decoded
            raise BackendUnavailable(f"mock fixture {path} is not UTF-8: {exc}") from exc
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_text(path.removesuffix(".resp") + ".req", payload)
        except OSError:
            pass
        return None

    def complete(self, req: AgentRequest, payload: str
                 ) -> tuple[list[str | None], TokenUsage]:
        rels = fixture_relpaths(req, payload)
        choices = [self._read(rel, payload) for rel in rels]
        if all(raw is None for raw in choices):
            raise BackendUnavailable(f"no mock fixture for key {', '.join(rels)}")
        if self.delay_s:
            before_wait()
            time.sleep(self.delay_s)
        # deterministic, length-proportional token accounting: the payload
        # is sent once, whatever the number of choices
        return choices, TokenUsage(len(payload) // 4, sum(
            len(raw) // 4 for raw in choices if raw is not None))


class LiveHttpBackend:
    """Chat-completions wire format:

    request  {"model", "messages": [{"role","content"}...], "temperature",
              "seed", "n" (only when the request asks for choices)}
    response {"choices": [{"index": int, "message": {"content": str}}],
              "usage": {"prompt_tokens": int, "completion_tokens": int}}

    ``group_review`` is sent at ``REVIEW_TEMPERATURE``, every other kind
    at 0.0. Choices are placed by ``index`` (by position when it is
    absent); one that is absent, out of range or without string content
    is missing. A reply with no choice at all is malformed.
    """

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg

    def complete(self, req: AgentRequest, payload: str
                 ) -> tuple[list[str | None], TokenUsage]:
        body = {
            "model": resolve_model(self.cfg, req.agent_kind),
            "messages": [
                {"role": "system", "content": req.system_prompt},
                {"role": "user", "content": payload},
            ],
            "temperature": (REVIEW_TEMPERATURE if req.agent_kind is AgentKind.GROUP_REVIEW
                            else 0.0),
            "seed": req.seed,
        }
        if req.n is not None:
            body["n"] = req.n
        try:
            resp = httpreq.send("POST", self.cfg.endpoint, json=body,
                                timeout_s=self.cfg.timeout_s, token_env=self.cfg.api_key_env)
        except httpreq.RequestTimedOut as exc:
            raise BackendTimeout(f"backend timed out after {self.cfg.timeout_s}s") from exc
        except httpreq.RequestFailed as exc:
            raise BackendUnavailable(str(exc)) from exc
        if resp.status_code != 200:
            raise BackendUnavailable(f"backend returned HTTP {resp.status_code}")
        try:
            doc = resp.json()
            choices: list[str | None] = [None] * (req.n or 1)
            for position, choice in enumerate(doc["choices"]):
                index = choice.get("index", position)
                text = (choice.get("message") or {}).get("content")
                if (type(index) is int and 0 <= index < len(choices)  # not a boolean
                        and choices[index] is None and isinstance(text, str)):
                    choices[index] = text
            if all(text is None for text in choices):
                raise LookupError("no choice has string message content")
            usage = doc.get("usage", {})
            return choices, TokenUsage(int(usage.get("prompt_tokens", 0)),
                                       int(usage.get("completion_tokens", 0)))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            # ValueError covers a body that is not JSON and a token count
            # that is not a number; AttributeError a non-object "usage",
            # choice or message
            raise BackendUnavailable(f"malformed backend response: {exc}") from exc


# --- gateway -------------------------------------------------------------------

class Gateway:
    """Shareable across concurrent agent invocations.

    The gateway does not throttle: the pipeline bounds concurrent calls,
    on every backend, by running them on its pool of ``max_in_flight``
    workers. Every invocation, failed or not, records exactly one span
    under ``trace`` with its ``tokens_in``, ``tokens_out``, ``attempt``
    and ``seed``, plus ``choices`` (n) for an n-choice request. A failed
    call's span also carries the ``error`` that ``TraceContext.span``
    records: ``SchemaViolationAfterRetries``, ``BackendUnavailable`` or
    ``BackendTimeout``.
    """

    def __init__(self, cfg: BackendConfig):
        cfg.validate()
        self.cfg = cfg
        self.registry = SchemaRegistry()
        self._backend = MockBackend(cfg) if cfg.kind == "mock" else LiveHttpBackend(cfg)

    def _check(self, agent_kind: AgentKind, raw: str, post_validate):
        """(value, None) for an answer that validates, else (None, why)."""
        try:
            value = json.loads(raw)
        except json.JSONDecodeError as exc:
            return None, f"invalid JSON: {exc.msg} at char {exc.pos}"
        try:
            self.registry.validate(agent_kind, value)
            if post_validate is not None:
                post_validate(value)
        except ValueError as exc:
            return None, str(exc)
        return value, None

    def complete(self, req: AgentRequest, post_validate=None,
                 trace: TraceContext = UNTRACED, failure: str | None = None
                 ) -> AgentResponse:
        """One call of ``req``. With ``req.n`` set: one request for n
        choices, each validated alone and none repaired. Otherwise one
        completion, re-prompted with the validation error appended at
        most ``MAX_REPAIRS`` times; ``failure`` says that the payload's
        first answer, got elsewhere (a choice of an n-choice call), failed
        its schema so, and the call starts with that answer's repair."""
        payload = req.user_payload
        usage = TokenUsage()
        attempts = 0 if failure is None else 1
        last_raw = ""
        with trace.span(req.agent_kind.value, seed=req.seed) as span:
            if req.n is not None:
                span.attrs["choices"] = req.n
            try:
                if req.n is not None:
                    attempts = 1
                    texts, usage = self._backend.complete(req, payload)
                    return AgentResponse(None, usage, attempts, tuple(
                        None if raw is None else Choice(*self._check(
                            req.agent_kind, raw, post_validate))
                        for raw in texts))
                while attempts <= MAX_REPAIRS:
                    if failure is not None:
                        payload = repair_payload(payload, failure)
                    attempts += 1
                    [raw], attempt_usage = self._backend.complete(req, payload)
                    usage += attempt_usage
                    last_raw = raw
                    value, failure = self._check(req.agent_kind, raw, post_validate)
                    if failure is None:
                        return AgentResponse(value, usage, attempts)
                raise SchemaViolationAfterRetries(
                    f"{req.agent_kind.value}: output failed schema "
                    f"{req.agent_kind.value!r} after {attempts} attempts: {failure}",
                    last_raw=last_raw)
            finally:
                # the spent tokens count even when the call failed
                span.attrs.update(tokens_in=usage.tokens_in,
                                  tokens_out=usage.tokens_out, attempt=attempts)


def usage_by_kind(events: list[TraceEvent]) -> dict:
    """Per-agent-kind sums over the agent spans among ``events``: tokens
    in and out, span durations as ``latency_s``, and the call count;
    kinds sorted by name."""
    kinds = {kind.value for kind in AgentKind}
    out: dict[str, dict] = {}
    for e in events:
        if e.span_name in kinds:
            entry = out.setdefault(e.span_name, {
                "tokens_in": 0, "tokens_out": 0, "latency_s": 0.0, "calls": 0})
            entry["tokens_in"] += e.attributes["tokens_in"]
            entry["tokens_out"] += e.attributes["tokens_out"]
            entry["latency_s"] += e.duration
            entry["calls"] += 1
    return dict(sorted(out.items()))
