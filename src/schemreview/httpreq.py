"""The one path for every HTTP request the program makes: ``send``."""

from __future__ import annotations

import os

from .errors import SchemReviewError
from .workfirst import before_wait


class RequestFailed(SchemReviewError):
    """An HTTP request got no response (connection error, timeout, ...)."""

class RequestTimedOut(RequestFailed):
    """An HTTP request got no response within its timeout."""


def send(method: str, url: str, *, timeout_s: float, token_env: str | None = None, json=None):
    """The response, of any status, to ``method url`` with body ``json``,
    sent with ``Authorization: Bearer $<token_env>`` when that variable is
    set and non-empty, once the run's queued work has spilled (it blocks).
    No response within ``timeout_s`` raises ``RequestTimedOut``, any other
    failure to get one ``RequestFailed``: each caller maps these, and
    judges the status, its own way."""
    import requests  # here: it pulls http.client and ssl into start-up

    token = os.environ.get(token_env, "") if token_env else ""
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    before_wait()
    try:
        return requests.request(method, url, json=json, headers=headers, timeout=timeout_s)
    except requests.Timeout as exc:
        raise RequestTimedOut(str(exc)) from exc
    except requests.RequestException as exc:
        raise RequestFailed(str(exc)) from exc
