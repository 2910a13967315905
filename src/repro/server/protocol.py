"""Wire protocol of the evaluation server.

One request shape, two response shapes — the whole contract:

Request (HTTP ``POST /`` with a JSON body)::

    {"action": "evaluate", "params": {...}}

Success envelope (HTTP 200)::

    {"status": "ok", "action": "evaluate", "result": {...}}

Error envelope (HTTP 4xx/5xx, matching :data:`HTTP_STATUS`)::

    {"status": "error", "code": "invalid_params", "message": "...",
     "action": "evaluate"}

Error codes are stable strings clients may switch on; the human-readable
``message`` is not part of the contract.  The envelope — not the HTTP
status line — is the source of truth: clients read the body first and use
the status code only as a transport-level hint.
"""
from __future__ import annotations

import json
import math
from typing import Dict, NoReturn, Optional, Tuple

#: The request body (or its JSON) is not a valid request document.
ERROR_BAD_REQUEST = "bad_request"
#: The request named an action the dispatcher does not know.
ERROR_UNKNOWN_ACTION = "unknown_action"
#: The action exists but its parameters failed validation.
ERROR_INVALID_PARAMS = "invalid_params"
#: The handler raised something unexpected; the server stays up.
ERROR_INTERNAL = "internal_error"
#: The server is shedding load: no worker slot freed within the request
#: deadline.  The envelope carries ``retry_after_s`` and the transport
#: adds a ``Retry-After`` header; well-behaved clients back off at least
#: that long before retrying.
ERROR_OVERLOADED = "overloaded"

#: HTTP status used when transporting each error code (200 for ``ok``).
HTTP_STATUS: Dict[str, int] = {
    ERROR_BAD_REQUEST: 400,
    ERROR_INVALID_PARAMS: 400,
    ERROR_UNKNOWN_ACTION: 404,
    ERROR_INTERNAL: 500,
    ERROR_OVERLOADED: 503,
}


class ProtocolError(Exception):
    """A request that violates the protocol, carrying its stable code.

    ``extra`` fields are merged into the error envelope — how the
    ``overloaded`` code carries ``retry_after_s`` to the client.
    """

    def __init__(self, code: str, message: str,
                 extra: Optional[Dict[str, object]] = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.extra = dict(extra) if extra else {}

    def envelope(self, action: Optional[str] = None) -> Dict[str, object]:
        document = error_envelope(self.code, self.message, action=action)
        document.update(self.extra)
        return document


def ok_envelope(action: str, result: Dict[str, object]) -> Dict[str, object]:
    """Success envelope for one handled action."""
    return {"status": "ok", "action": action, "result": result}


def error_envelope(code: str, message: str,
                   action: Optional[str] = None) -> Dict[str, object]:
    """Error envelope with a stable ``code`` (see the module constants)."""
    envelope: Dict[str, object] = {"status": "error", "code": code,
                                   "message": message}
    if action is not None:
        envelope["action"] = action
    return envelope


def http_status(envelope: Dict[str, object]) -> int:
    """Transport status code matching an envelope (200 for ``ok``)."""
    if envelope.get("status") == "ok":
        return 200
    return HTTP_STATUS.get(str(envelope.get("code")), 500)


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows a double")
    return value


def parse_request(body: bytes) -> Tuple[str, Dict[str, object]]:
    """Decode a request body into ``(action, params)``.

    Raises :class:`ProtocolError` with :data:`ERROR_BAD_REQUEST` on
    malformed JSON (including the non-standard ``NaN``/``Infinity``
    constants and numbers too large for a double), a non-object document,
    a missing/non-string ``action`` or a non-object ``params``.
    """
    try:
        document = json.loads(body.decode("utf-8"),
                              parse_constant=_reject_constant,
                              parse_float=_finite_float)
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(ERROR_BAD_REQUEST,
                            f"request body is not valid JSON: {error}") \
            from None
    if not isinstance(document, dict):
        raise ProtocolError(ERROR_BAD_REQUEST,
                            "request document must be a JSON object")
    action = document.get("action")
    if not isinstance(action, str) or not action:
        raise ProtocolError(ERROR_BAD_REQUEST,
                            "request document needs a non-empty string "
                            "'action'")
    params = document.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(ERROR_BAD_REQUEST,
                            "'params' must be a JSON object when present")
    return action, params
