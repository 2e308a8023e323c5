"""Wire codec: registered dataclasses round-trip structurally equal."""

import io
import json

import pytest

from repro.distribute.wire import (
    PROTOCOL_VERSION,
    from_wire,
    read_tasks,
    recv_message,
    register_wire_type,
    send_message,
    tasks_frame,
    to_wire,
)
from repro.orchestrate.plan import Chunk
from repro.orchestrate.worker import ChunkTask, CodeRef, MuseSimSpec, RsSimSpec
from repro.reliability.metrics import MsedTally


class TestCodec:
    def test_chunk_task_round_trip_is_equal(self):
        task = ChunkTask(
            group="frontier:3",
            spec=MuseSimSpec(
                code=CodeRef("repro.core.codes:muse_80_69"),
                ripple_check=False,
                backend="scalar",
            ),
            chunk=Chunk(128, 64),
            key=0x1234_5678_9ABC_DEF0,
        )
        decoded = from_wire(to_wire(task))
        assert decoded == task  # structural equality: runner cache hits

    def test_code_ref_args_stay_tuples(self):
        ref = CodeRef("repro.reliability.monte_carlo:muse_design_point", (3,))
        decoded = from_wire(to_wire(ref))
        assert decoded == ref
        assert isinstance(decoded.args, tuple)

    def test_rs_spec_round_trip(self):
        spec = RsSimSpec(
            code=CodeRef("repro.rs.reed_solomon:rs_144_128"),
            device_bits=None,
        )
        assert from_wire(to_wire(spec)) == spec

    def test_tally_round_trip(self):
        tally = MsedTally(
            trials=100,
            detected_no_match=40,
            detected_confinement=30,
            miscorrected=20,
            silent=10,
        )
        assert from_wire(to_wire(tally)) == tally

    def test_payload_is_plain_json(self):
        task = ChunkTask(
            group=0,
            spec=MuseSimSpec(code=CodeRef("repro.core.codes:muse_80_69")),
            chunk=Chunk(0, 10),
            key=1,
        )
        json.dumps(to_wire(task))  # no pickle, no custom encoder

    def test_unregistered_dataclass_rejected(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class NotRegistered:
            x: int = 1

        with pytest.raises(TypeError, match="not wire-registered"):
            to_wire(NotRegistered())

    def test_unknown_wire_type_rejected(self):
        with pytest.raises(ValueError, match="unknown wire type"):
            from_wire({"__type__": "Bogus"})

    def test_register_admits_new_spec_types(self):
        from dataclasses import dataclass

        @register_wire_type
        @dataclass(frozen=True)
        class ExtensionSpec:
            m: int = 0

        assert from_wire(to_wire(ExtensionSpec(m=7))) == ExtensionSpec(m=7)

    def test_non_dataclass_registration_rejected(self):
        with pytest.raises(TypeError, match="dataclass"):
            register_wire_type(int)


class TestFraming:
    def test_messages_round_trip_over_a_stream(self):
        buffer = io.BytesIO()
        send_message(buffer, {"op": "task", "id": 3, "task": {"a": [1, 2]}})
        send_message(buffer, {"op": "ok"})
        buffer.seek(0)
        assert recv_message(buffer) == {
            "op": "task",
            "id": 3,
            "task": {"a": [1, 2]},
        }
        assert recv_message(buffer) == {"op": "ok"}
        assert recv_message(buffer) is None  # clean EOF


def json_line(frame: dict) -> dict:
    """``frame`` as the peer reads it: one JSON line, parsed back."""
    buffer = io.BytesIO()
    send_message(buffer, frame)
    buffer.seek(0)
    return recv_message(buffer)


class TestBatchFrames:
    SPEC = MuseSimSpec(code=CodeRef("repro.core.codes:muse_80_69"))

    def test_tasks_frame_round_trips_a_batch_lease(self):
        leased = [
            (task_id, ChunkTask(("grid", 2), self.SPEC, Chunk(start, 64), 9))
            for task_id, start in ((4, 256), (5, 320), (6, 384))
        ]
        frame = json_line(tasks_frame(leased))
        assert frame["op"] == "tasks"
        assert frame["chunks"] == [[4, 256, 64], [5, 320, 64], [6, 384, 64]]
        assert read_tasks(frame) == leased

    def test_results_frame_round_trips_tallies_and_failures(self):
        tally = MsedTally(trials=64, detected_no_match=60, silent=4)
        entries = [
            {"id": 4, "tally": tally, "seconds": 0.0125},
            {"id": 5, "error": "RuntimeError('boom')"},
        ]
        frame = json_line({"op": "results", "results": to_wire(entries)})
        assert from_wire(frame["results"]) == entries


class TestHandshake:
    def hello(self, version) -> dict:
        import socket

        from repro.distribute import DistributedSession

        with DistributedSession() as session:
            with socket.create_connection(("127.0.0.1", session.port)) as sock:
                rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
                send_message(
                    wfile, {"op": "hello", "version": version, "worker": "t"}
                )
                return recv_message(rfile)

    def test_current_version_is_welcomed(self):
        assert PROTOCOL_VERSION == 2
        assert self.hello(PROTOCOL_VERSION)["op"] == "welcome"

    def test_version_1_hello_is_refused(self):
        reply = self.hello(1)
        assert reply["op"] == "error"
        assert "protocol version 1 != 2" in reply["message"]
