"""Wire format for the coordinator/worker transport: JSON lines.

Everything that crosses a host boundary is a single line of JSON — no
pickle, so a worker never executes anything a coordinator (or a
man-in-the-middle on a trusted LAN) chooses beyond the registered spec
dataclasses, and either side can be debugged with ``nc`` and eyeballs.

Three layers:

* **framing** — :func:`send_message` / :func:`recv_message` move one
  JSON object per ``\\n``-terminated line over a socket file;
* **codec** — :func:`to_wire` / :func:`from_wire` turn the registered
  frozen dataclasses (:class:`ChunkTask`, the sim specs it carries and
  :class:`MsedTally`) into tagged JSON objects and back.  Tuples are
  tagged too, so a decoded spec is *structurally equal* to the one
  encoded — which is what keeps the per-worker runner cache
  (:func:`repro.orchestrate.worker.runner_for`) hitting across tasks;
* **protocol** (version 2) — after a ``hello``/``welcome`` exchange the
  worker sends ``next`` and the coordinator answers ``idle``,
  ``shutdown`` or one batch lease, ``tasks``: consecutive chunks of
  one group, spec and stream key, which :func:`tasks_frame` names once
  and :func:`read_tasks` expands back into :class:`ChunkTask` values.
  The worker answers a batch with one ``results`` frame, a list of
  per-chunk ``{"id", "tally", "seconds"}`` or ``{"id", "error"}``
  entries, sent in the same write as its next ``next``; one-way
  ``telemetry`` frames carry its counter deltas.

The registry is open: :func:`register_wire_type` admits new spec
dataclasses (e.g. an erasure-study spec) without touching the
transport.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any, BinaryIO

from repro.orchestrate.plan import Chunk
from repro.orchestrate.worker import ChunkTask, CodeRef, MuseSimSpec, RsSimSpec
from repro.reliability.metrics import MsedTally

#: Protocol version; both ends refuse a mismatch instead of
#: mis-decoding each other.  Version 2 leases chunks in batches
#: (``tasks``/``results`` frames).
PROTOCOL_VERSION = 2

_TYPE_TAG = "__type__"
_TUPLE_TAG = "__tuple__"

#: name -> dataclass for every object allowed on the wire.
_WIRE_TYPES: dict[str, type] = {}


def register_wire_type(cls: type) -> type:
    """Admit a (frozen) dataclass to the wire codec.  Returns ``cls``
    so it can be used as a decorator by extension spec types."""
    if not is_dataclass(cls):
        raise TypeError(f"wire types must be dataclasses, got {cls!r}")
    _WIRE_TYPES[cls.__name__] = cls
    return cls


for _cls in (Chunk, CodeRef, MuseSimSpec, RsSimSpec, ChunkTask, MsedTally):
    register_wire_type(_cls)

#: Frozen, value-hashable spec fragments whose encoded tree is worth
#: memoising: a big run dispatches thousands of leases whose ``spec``
#: is one of ~10 values, so re-walking the same dataclass tree per
#: lease is pure overhead on the coordinator's hot path.  ``ChunkTask``
#: / ``Chunk`` / ``MsedTally`` stay out — they differ per message.
_MEMO_TYPES: tuple[type, ...] = (CodeRef, MuseSimSpec, RsSimSpec)

#: value -> encoded tree.  Entries are shared between messages and
#: must be treated as read-only by callers (``send_message`` only
#: serialises them).  Bounded so a pathological caller churning specs
#: cannot grow it without limit.
_ENCODED_MEMO: dict[Any, Any] = {}
_ENCODED_MEMO_LIMIT = 512


def _encode_dataclass(obj: Any) -> dict:
    name = type(obj).__name__
    if name not in _WIRE_TYPES:
        raise TypeError(
            f"{name} is not wire-registered; call register_wire_type "
            f"before shipping it to workers"
        )
    payload = {_TYPE_TAG: name}
    for field in fields(obj):
        payload[field.name] = to_wire(getattr(obj, field.name))
    return payload


def to_wire(obj: Any) -> Any:
    """A JSON-ready tree for ``obj`` (registered dataclasses, tuples,
    and JSON scalars/containers, recursively).

    Spec fragments (:data:`_MEMO_TYPES`) are encoded once and the tree
    reused across messages — the returned subtree is shared, so wire
    trees are read-only by contract.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        if isinstance(obj, _MEMO_TYPES):
            try:
                held = _ENCODED_MEMO.get(obj)
            except TypeError:  # unhashable field snuck in: encode fresh
                return _encode_dataclass(obj)
            if held is None:
                held = _encode_dataclass(obj)
                if len(_ENCODED_MEMO) >= _ENCODED_MEMO_LIMIT:
                    _ENCODED_MEMO.clear()
                _ENCODED_MEMO[obj] = held
            return held
        return _encode_dataclass(obj)
    if isinstance(obj, tuple):
        return {_TUPLE_TAG: [to_wire(item) for item in obj]}
    if isinstance(obj, list):
        return [to_wire(item) for item in obj]
    if isinstance(obj, dict):
        return {key: to_wire(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__} for the wire: {obj!r}")


def from_wire(payload: Any) -> Any:
    """Inverse of :func:`to_wire` (structural equality round-trip)."""
    if isinstance(payload, dict):
        if _TUPLE_TAG in payload:
            return tuple(from_wire(item) for item in payload[_TUPLE_TAG])
        if _TYPE_TAG in payload:
            name = payload[_TYPE_TAG]
            cls = _WIRE_TYPES.get(name)
            if cls is None:
                raise ValueError(
                    f"unknown wire type {name!r}; both ends must register "
                    f"the same spec dataclasses"
                )
            kwargs = {
                key: from_wire(value)
                for key, value in payload.items()
                if key != _TYPE_TAG
            }
            return cls(**kwargs)
        return {key: from_wire(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [from_wire(item) for item in payload]
    return payload


def tasks_frame(leased: list[tuple[int, ChunkTask]]) -> dict:
    """The ``tasks`` frame of one batch lease: ``(task id, task)``
    pairs whose tasks share group, spec and key, which go on the wire
    once, with one ``[id, start, size]`` triple per chunk."""
    first = leased[0][1]
    return {
        "op": "tasks",
        "group": to_wire(first.group),
        "spec": to_wire(first.spec),
        "key": first.key,
        "chunks": [
            [task_id, task.chunk.start, task.chunk.size]
            for task_id, task in leased
        ],
    }


def read_tasks(frame: dict) -> list[tuple[int, ChunkTask]]:
    """Inverse of :func:`tasks_frame`."""
    group = from_wire(frame["group"])
    spec = from_wire(frame["spec"])
    key = frame["key"]
    return [
        (task_id, ChunkTask(group, spec, Chunk(start, size), key))
        for task_id, start, size in frame["chunks"]
    ]


def send_message(stream: BinaryIO, message: dict) -> None:
    """Write one message as a single JSON line and flush it."""
    stream.write(json.dumps(message, separators=(",", ":")).encode() + b"\n")
    stream.flush()


def send_messages(stream: BinaryIO, messages: list[dict]) -> None:
    """Write several messages as one buffered payload, one flush.

    The pipelined worker loop sends ``[previous batch's results, next
    lease request]`` back-to-back; batching them into a single write
    (one syscall on a socket file) is what makes the prefetch free.
    """
    payload = b"".join(
        json.dumps(message, separators=(",", ":")).encode() + b"\n"
        for message in messages
    )
    stream.write(payload)
    stream.flush()


def recv_message(stream: BinaryIO) -> dict | None:
    """Read one message; ``None`` on a clean EOF (peer went away)."""
    line = stream.readline()
    if not line:
        return None
    return json.loads(line)
