"""In-process chat-completion endpoint for offline runs of the `llm_http` backend.

The server answers `POST` requests in the chat-completion shape after a fixed
injected latency. What it answers is decided by a responder callable, which
receives the parsed request together with how many times the same prompt has
been seen before. The server counts requests and accepted TCP connections, so
a client that reuses connections shows up as fewer connections than requests.

    with ChatStub(sequence_responder(), latency_s=0.02) as stub:
        ...  # point an llm_http config at stub.endpoint

`serve_forever` polls for shutdown every 10 ms (the standard library default
is 0.5 s), so closing the stub costs milliseconds.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

# an unambiguous prose reply: no digit, sign or dot a decoder could read as a number
PROSE_REPLY = "I am unable to continue this sequence"
REPLY_CYCLE = 10  # every 10th reply for a prompt is prose
REPLY_STEP = 0.01  # offset added per count within a cycle
POLL_INTERVAL_S = 0.01  # serve_forever's shutdown poll; the library default is 0.5 s

_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)")


@dataclass(frozen=True)
class StubRequest:
    """One received request; `seen` counts earlier requests with the same prompt."""

    body: dict
    authorization: str
    prompt: str
    seen: int


Responder = Callable[[StubRequest], "tuple[int, object]"]


def completion(content: str) -> dict:
    """A chat-completion response body whose first choice carries `content`."""
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def sequence_responder(length: int = 64) -> Responder:
    """Replies that depend only on the prompt and on `seen`.

    The reply repeats the prompt sequence's last value `length` times, shifted
    by REPLY_STEP * (seen % REPLY_CYCLE). Every REPLY_CYCLE-th reply for a
    prompt is prose, which a decoder rejects. Within any REPLY_CYCLE
    consecutive requests for one prompt the set of replies is therefore fixed,
    whatever order they arrive in.
    """

    def respond(request: StubRequest) -> tuple[int, object]:
        k = request.seen % REPLY_CYCLE
        if k == REPLY_CYCLE - 1:
            return 200, completion(PROSE_REPLY)
        numbers = _NUMBER_RE.findall(request.prompt.rsplit(":", 1)[-1])
        last = float(numbers[-1]) if numbers else 0.0
        value = f"{last + REPLY_STEP * k:.2f}"
        return 200, completion(",".join([value] * length))

    return respond


def _prompt_of(body: dict) -> str:
    try:
        return str(body["messages"][-1]["content"])
    except (KeyError, IndexError, TypeError):
        return ""


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 keeps connections open, so a client that reuses them is visible
    protocol_version = "HTTP/1.1"
    timeout = 5.0  # drop idle keep-alive connections so server_close() cannot hang

    def do_POST(self):
        stub: ChatStub = self.server.stub
        length = int(self.headers.get("Content-Length", 0))
        try:
            body = json.loads(self.rfile.read(length)) if length else {}
        except json.JSONDecodeError:
            body = {}
        request = stub._admit(body, self.headers.get("Authorization", ""))
        if stub.latency_s:
            time.sleep(stub.latency_s)
        status, payload = stub.respond(request)
        data = payload.encode() if isinstance(payload, str) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep request logging off stderr
        pass


class _Server(ThreadingHTTPServer):
    def process_request(self, request, client_address):
        self.stub._count_connection()
        super().process_request(request, client_address)


class ChatStub:
    """Chat-completion endpoint on 127.0.0.1 with a fixed injected latency.

    Use as a context manager, or call `start()` and `close()`. `close()` stops
    the serving thread and waits for every connection thread to end.
    """

    def __init__(self, respond: Responder, latency_s: float = 0.0):
        if latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        self.respond = respond
        self.latency_s = latency_s
        self.requests = 0
        self.connections = 0
        self._seen: dict[str, int] = {}
        self._lock = threading.Lock()
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
        )

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {"requests": self.requests, "connections": self.connections}

    def _admit(self, body: dict, authorization: str) -> StubRequest:
        prompt = _prompt_of(body)
        with self._lock:
            self.requests += 1
            seen = self._seen.get(prompt, 0)
            self._seen[prompt] = seen + 1
        return StubRequest(body, authorization, prompt, seen)

    def _count_connection(self) -> None:
        with self._lock:
            self.connections += 1

    def start(self) -> "ChatStub":
        self._thread.start()
        return self

    def close(self) -> None:
        if self._thread.is_alive():
            self._server.shutdown()
            self._thread.join()
        self._server.server_close()

    def __enter__(self) -> "ChatStub":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
