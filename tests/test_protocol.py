"""Tests for the coordinator/worker lease protocol.

Covers the wire contract the distributed execution stack depends on:
message round-trips through the JSON-line framing, hard rejection of
protocol-version drift and malformed frames, the truncated-frame vs
clean-EOF distinction (a writer that died mid-message vs a worker
that went away between leases), and the Lease <-> fusion-group
round-trip that lets a worker rebuild its work from the frame alone.
"""

import io
import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import RunSpec
from repro.engine.attempt import execute_spec_payload
from repro.engine.protocol import (
    MAX_FRAME_BYTES, MESSAGE_TYPES, PROTOCOL_VERSION, ConnectionClosed,
    Heartbeat, HeartbeatAck, Lease, LeaseResult, ProtocolError,
    Shutdown, WorkerHello, WorkerWelcome, decode_frame, encode_frame,
    read_frame, write_frame,
)
from repro.telemetry import Telemetry

SCALE = 0.1
MACHINE_SCALE = 16


def native_spec(**kwargs):
    return RunSpec.native("181.mcf", SCALE, "pentium4", MACHINE_SCALE,
                          **kwargs)


def sample_messages():
    return [
        WorkerHello(worker="a", pid=42, host="node1"),
        WorkerWelcome(worker="a"),
        Lease(lease_id="L000001", attempt=2,
              specs=(native_spec().to_dict(),),
              digests=(native_spec().digest(),),
              deadline_s=30.0, fault_plan={"seed": 7, "rules": []},
              telemetry=True),
        LeaseResult(lease_id="L000001", worker="a", status="ok",
                    value=[{"kind": "run_outcome"}],
                    snapshot={"counters": []}, epoch=17),
        Heartbeat(seq=3),
        HeartbeatAck(seq=3, worker="a"),
        Shutdown(reason="sweep complete"),
    ]


class TestFraming:
    def test_every_message_type_round_trips(self):
        for message in sample_messages():
            assert decode_frame(encode_frame(message)) == message

    def test_frames_match_the_deep_copied_form(self):
        """A frame carries each field's value as it is, and encodes to
        exactly the bytes of the message's ``dataclasses.asdict``
        (deep-copied) form."""
        telemetry = Telemetry(enabled=True)
        telemetry.count("vm.block_compiles", 3)
        telemetry.observe("executor.spec_s", 0.25, {"mode": "native"})
        with telemetry.span("executor.spec", {"workload": "mst"},
                            maxrss_kib=1024):
            telemetry.event("store.miss", digest="ab" * 8)
        spec = RunSpec.native("mst", 0.05, "pentium4", MACHINE_SCALE,
                              with_cachegrind=True,
                              counter_sample_size=100)
        payload = execute_spec_payload(spec)
        result = LeaseResult(lease_id="L000002", worker="local/0",
                             epoch=5, value=[payload, payload],
                             snapshot=telemetry.snapshot(),
                             static_counts=(("mst", 0.05, 12, 7),))
        for message in sample_messages() + [result]:
            deep = {"v": PROTOCOL_VERSION, "type": message.TYPE,
                    **asdict(message)}
            assert encode_frame(message) \
                == json.dumps(deep, sort_keys=True).encode() + b"\n"

    def test_frames_are_newline_terminated_json(self):
        frame = encode_frame(WorkerHello(worker="a"))
        assert frame.endswith(b"\n")
        payload = json.loads(frame)
        assert payload["v"] == PROTOCOL_VERSION
        assert payload["type"] == WorkerHello.TYPE

    def test_registry_covers_every_message(self):
        assert set(MESSAGE_TYPES) == {
            m.TYPE for m in (WorkerHello, WorkerWelcome, Lease,
                             LeaseResult, Heartbeat, HeartbeatAck,
                             Shutdown)}

    def test_version_mismatch_rejected(self):
        frame = json.loads(encode_frame(WorkerHello(worker="a")))
        frame["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_frame(json.dumps(frame).encode() + b"\n")

    def test_missing_version_rejected(self):
        frame = json.loads(encode_frame(WorkerHello(worker="a")))
        del frame["v"]
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_frame(json.dumps(frame).encode() + b"\n")

    def test_unknown_type_rejected(self):
        line = json.dumps({"v": PROTOCOL_VERSION,
                           "type": "frobnicate"}).encode() + b"\n"
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_frame(line)

    def test_unparseable_and_non_object_frames_rejected(self):
        with pytest.raises(ProtocolError, match="unparseable"):
            decode_frame(b"{not json\n")
        with pytest.raises(ProtocolError, match="not an object"):
            decode_frame(b"[1, 2, 3]\n")

    def test_unexpected_field_rejected(self):
        frame = json.loads(encode_frame(Shutdown(reason="x")))
        frame["surprise"] = 1
        with pytest.raises(ProtocolError, match="malformed"):
            decode_frame(json.dumps(frame).encode() + b"\n")


class TestStreamFraming:
    def test_write_then_read_round_trips_a_stream(self):
        stream = io.BytesIO()
        for message in sample_messages():
            write_frame(stream, message)
        stream.seek(0)
        assert [read_frame(stream)
                for _ in sample_messages()] == sample_messages()

    def test_clean_eof_is_connection_closed(self):
        # EOF on a frame boundary = the peer went away between leases.
        with pytest.raises(ConnectionClosed):
            read_frame(io.BytesIO(b""))

    def test_truncated_frame_is_not_connection_closed(self):
        # A line missing its terminator = the writer died mid-message.
        # That must NOT look like a clean disconnect.
        frame = encode_frame(LeaseResult(lease_id="L1", worker="a"))
        stream = io.BytesIO(frame[:len(frame) // 2])
        with pytest.raises(ProtocolError, match="truncated") as err:
            read_frame(stream)
        assert not isinstance(err.value, ConnectionClosed)

    def test_oversized_frame_rejected(self, monkeypatch):
        monkeypatch.setattr("repro.engine.protocol.MAX_FRAME_BYTES", 64)
        big = encode_frame(Shutdown(reason="x" * 200))
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame(io.BytesIO(big))

    def test_max_frame_bytes_is_generous(self):
        # Real lease results (payload lists + telemetry) are a few KB;
        # the bound exists to reject corrupt peers, not big results.
        assert MAX_FRAME_BYTES >= 2 ** 20


class TestLiveness:
    """The v2 additions: heartbeats and the lease fencing epoch."""

    def test_heartbeat_round_trips_with_sequence(self):
        beat = decode_frame(encode_frame(Heartbeat(seq=41)))
        assert beat == Heartbeat(seq=41)

    def test_heartbeat_ack_names_its_worker(self):
        ack = decode_frame(encode_frame(HeartbeatAck(seq=41, worker="b")))
        assert ack.seq == 41 and ack.worker == "b"

    def test_lease_epoch_survives_the_wire(self):
        lease = Lease.for_group("L000009", [native_spec()], attempt=1,
                                deadline_s=None, fault_plan=None,
                                telemetry=False, epoch=23)
        assert decode_frame(encode_frame(lease)).epoch == 23

    def test_result_epoch_survives_the_wire(self):
        result = LeaseResult(lease_id="L000009", worker="a",
                             status="ok", epoch=23)
        assert decode_frame(encode_frame(result)).epoch == 23

    def test_epoch_defaults_keep_old_frames_decodable(self):
        # A frame with no epoch field (as a v2 peer that never sets it
        # would emit before Lease.for_group fills it in) still decodes.
        assert Lease.for_group("L1", [native_spec()], attempt=1,
                               deadline_s=None, fault_plan=None,
                               telemetry=False).epoch == 0
        assert LeaseResult(lease_id="L1", worker="a").epoch == 0

    def test_describe_mentions_the_epoch(self):
        lease = Lease.for_group("L000011", [native_spec()], attempt=1,
                                deadline_s=None, fault_plan=None,
                                telemetry=False, epoch=7)
        assert "epoch 7" in lease.describe()


class TestFuzzedTruncation:
    """Any mid-frame cut must read as truncation, never clean EOF."""

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(min_value=0, max_value=6),
           fraction=st.floats(min_value=0.01, max_value=0.99))
    def test_any_partial_frame_is_truncated_not_closed(self, which,
                                                       fraction):
        frame = encode_frame(sample_messages()[which])
        cut = max(1, min(len(frame) - 1, int(len(frame) * fraction)))
        with pytest.raises(ProtocolError) as err:
            read_frame(io.BytesIO(frame[:cut]))
        assert not isinstance(err.value, ConnectionClosed)

    @settings(max_examples=60, deadline=None)
    @given(junk=st.binary(min_size=1, max_size=64))
    def test_arbitrary_junk_never_escapes_protocol_error(self, junk):
        # Corrupt peers produce ProtocolError (or its ConnectionClosed
        # subclass for pure terminators), never raw json/attr errors.
        stream = io.BytesIO(junk)
        try:
            while True:
                read_frame(stream)
        except ProtocolError:
            pass


class TestLeaseGroupRoundTrip:
    def test_for_group_then_group_rebuilds_specs(self):
        group = [native_spec(), native_spec(hw_prefetch=True)]
        lease = Lease.for_group("L000001", group, attempt=3,
                                deadline_s=None, fault_plan=None,
                                telemetry=False)
        assert lease.group() == group
        assert lease.digests == tuple(s.digest() for s in group)
        assert lease.attempt == 3

    def test_group_survives_the_wire(self):
        group = [native_spec()]
        lease = Lease.for_group("L000002", group, attempt=1,
                                deadline_s=12.5,
                                fault_plan={"seed": 3, "rules": []},
                                telemetry=True)
        wired = decode_frame(encode_frame(lease))
        assert wired.group() == group
        assert wired.deadline_s == 12.5
        assert wired.fault_plan == {"seed": 3, "rules": []}

    def test_describe_names_the_essentials(self):
        lease = Lease.for_group("L000007", [native_spec()], attempt=2,
                                deadline_s=None, fault_plan=None,
                                telemetry=False)
        label = lease.describe()
        assert "L000007" in label and "attempt 2" in label
