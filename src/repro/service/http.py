"""A minimal HTTP/1.1 layer over asyncio streams.

Just enough protocol for the job server's JSON API — no routing
framework, no keep-alive, no chunked encoding.  Every exchange is one
request, one JSON response, ``Connection: close``; the parser enforces
small hard limits on header and body sizes, and read deadlines on both,
so a misbehaving client can neither balloon server memory nor hold a
handler open.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

#: Hard limits keeping one request bounded: 16 KiB of headers, 32 MiB of
#: body (a large superblock serialises to well under 1 MiB).
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Read deadlines in seconds: a client that has not sent its complete
#: request head, or then its complete body, within these gets a 408 and
#: the connection is closed, so an idle or half-open socket cannot pin a
#: handler.  They bound reading the request only, never a long poll.
HEADER_TIMEOUT_S = 10.0
BODY_TIMEOUT_S = 30.0

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A protocol-level failure mapped to an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """The decoded JSON body (:class:`HttpError` 400 on garbage)."""
        if not self.body:
            raise HttpError(400, "expected a JSON body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None

    def query_float(self, name: str) -> Optional[float]:
        raw = self.query.get(name)
        if raw is None or not raw.strip():
            return None
        try:
            return float(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name}={raw!r} is not a number") from None


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF."""
    try:
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), HEADER_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise HttpError(408, f"request head not received within {HEADER_TIMEOUT_S}s") from None
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    split = urlsplit(target)
    query = {
        key: values[-1] for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise HttpError(400, f"malformed header line {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"invalid Content-Length {length_text!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(400, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
    if length:
        try:
            body = await asyncio.wait_for(reader.readexactly(length), BODY_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise HttpError(408, f"request body not received within {BODY_TIMEOUT_S}s") from None
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body") from None

    return Request(
        method=method, path=unquote(split.path), query=query, headers=headers, body=body
    )


def encode_response(status: int, payload: object) -> bytes:
    """One complete JSON response, ready to write."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def split_path(path: str) -> Tuple[str, ...]:
    """The non-empty segments of a URL path."""
    return tuple(segment for segment in path.split("/") if segment)
