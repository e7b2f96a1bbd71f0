"""TCP fleet transport: wire codec, socket scoring, failure modes.

The contract under test mirrors ``TestOverlayLifecycle``'s semantics
over the network hop:

* the wire codec round-trips every protocol dataclass bit-exactly and
  refuses malformed or truncated frames loudly;
* a scoring service behind :class:`TcpTransport` answers ascents
  bitwise-identical to in-process execution, overlays included;
* a misbehaving client -- garbage frames, truncated frames, spoofed
  ids, unknown asset packs, a disconnect mid-ascent, a handshake
  without Hello -- is dropped (a ``WorkerLost``, or a counted
  handshake rejection) while a second client connected at the same
  time still gets its ascent; a stale-generation request kills the
  service loudly on both sides of the socket; nothing hangs;
* the peak number of connected workers outlives their sockets.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core import TrainingConfig
from repro.nn.serialization import pack_state
from repro.serving import (
    AscentRequest,
    ChaosControl,
    FleetScorer,
    GONScoringService,
    ScoringClient,
    TcpTransport,
    TcpWorkerChannel,
    TransportError,
    fetch_array_pack,
    parse_address,
    serve_transport,
)
from repro.serving import wire
from repro.serving.service import AscentReply, ClientDone, OverlayUpdate

from fleet_harness import one_cell_grid, sign_off
from gon_oracle import generate_metrics_batch


def _stacks(samples):
    return (
        np.stack([s.metrics for s in samples]),
        np.stack([s.schedule for s in samples]),
        np.stack([s.adjacency for s in samples]),
    )


def _decode_frame(frame: bytes):
    """Parse one encoded frame the way ``recv_message`` would."""
    magic, code, header_len, body_len = wire._PREFIX.unpack(
        frame[: wire._PREFIX.size]
    )
    assert magic == wire.MAGIC
    header_end = wire._PREFIX.size + header_len
    assert len(frame) == header_end + body_len
    return wire.decode_payload(
        code, frame[wire._PREFIX.size : header_end], frame[header_end:]
    )


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_ascent_request_roundtrip(self, rng):
        request = AscentRequest(
            client_id=3,
            request_id=17,
            model_key="paper-default",
            metrics=rng.standard_normal((4, 8, 7)),
            schedules=rng.standard_normal((4, 8, 5)),
            adjacencies=rng.standard_normal((4, 8, 8)),
            gamma=1e-2,
            max_steps=25,
            generation=2,
        )
        decoded = _decode_frame(wire.encode_message(request))
        assert isinstance(decoded, AscentRequest)
        assert decoded.client_id == 3
        assert decoded.request_id == 17
        assert decoded.model_key == "paper-default"
        assert decoded.gamma == request.gamma
        assert decoded.max_steps == 25
        assert decoded.generation == 2
        for field in ("metrics", "schedules", "adjacencies"):
            sent, received = getattr(request, field), getattr(decoded, field)
            assert np.array_equal(sent, received)
            assert received.dtype == sent.dtype

    def test_ascent_reply_roundtrip_is_writable(self, rng):
        reply = AscentReply(
            request_id=5,
            metrics=rng.standard_normal((3, 8, 7)),
            confidences=rng.random(3),
            n_steps=np.array([4, 9, 2], dtype=int),
            converged=np.array([True, False, True]),
        )
        decoded = _decode_frame(wire.encode_message(reply))
        assert np.array_equal(decoded.metrics, reply.metrics)
        assert np.array_equal(decoded.n_steps, reply.n_steps)
        assert decoded.n_steps.dtype == reply.n_steps.dtype
        assert np.array_equal(decoded.converged, reply.converged)
        # Replies decode to private writable copies: clients may
        # mutate result arrays.
        assert decoded.metrics.flags.writeable

    def test_overlay_update_roundtrip(self, rng):
        state = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
        buffer, manifest = pack_state(state)
        update = OverlayUpdate(
            client_id=1,
            model_key="scenario",
            generation=2,
            buffer=buffer,
            manifest=tuple(manifest),
        )
        decoded = _decode_frame(wire.encode_message(update))
        assert decoded.manifest == tuple(manifest)
        assert np.array_equal(decoded.buffer, buffer)

    def test_control_messages_roundtrip(self):
        done = _decode_frame(wire.encode_message(ClientDone(client_id=4)))
        assert done == ClientDone(client_id=4)
        index = _decode_frame(
            wire.encode_message(
                wire.AssetIndex(index={"s": {"gon_hidden": 8, "seed": 3}})
            )
        )
        assert index.index["s"]["gon_hidden"] == 8

    def test_bad_magic_is_loud(self):
        frame = bytearray(wire.encode_message(ClientDone(client_id=0)))
        frame[:4] = b"EVIL"
        left, right = socket.socketpair()
        try:
            left.sendall(bytes(frame))
            with pytest.raises(wire.WireError, match="magic"):
                wire.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_unknown_type_code_is_loud(self):
        # 9 and 13 were the confidence request and reply, retired in
        # protocol 3: retired codes stay unknown forever.
        for code in (9, 13, 99):
            with pytest.raises(wire.WireError, match="unknown wire message"):
                wire.decode_payload(code, b"{}", b"")

    def test_garbage_header_is_loud(self):
        with pytest.raises(wire.WireError, match="malformed"):
            wire.decode_payload(1, b"\xff\xfenot json", b"")

    def test_oversized_frame_is_refused(self):
        prefix = wire._PREFIX.pack(wire.MAGIC, 1, 1, wire.MAX_BODY_BYTES + 1)
        left, right = socket.socketpair()
        try:
            left.sendall(prefix)
            with pytest.raises(wire.WireError, match="cap"):
                wire.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_truncated_frame_is_loud(self, rng):
        frame = wire.encode_message(
            AscentRequest(
                client_id=0, request_id=1, model_key="s",
                metrics=rng.standard_normal((2, 4, 3)),
                schedules=rng.standard_normal((2, 4, 2)),
                adjacencies=rng.standard_normal((2, 4, 4)),
                gamma=1e-2, max_steps=3,
            )
        )
        left, right = socket.socketpair()
        try:
            left.sendall(frame[: len(frame) // 2])
            left.close()
            with pytest.raises(wire.WireError, match="mid-frame"):
                wire.recv_message(right)
        finally:
            right.close()

    def test_eof_at_boundary_is_connection_closed(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(wire.ConnectionClosed):
                wire.recv_message(right)
        finally:
            right.close()

    def test_body_shorter_than_manifest_is_loud(self, rng):
        frame = wire.encode_message(
            wire.AssetReply(
                pack="p",
                manifest=(("w", (4,), "<f8", 0),),
                buffer=np.zeros(32, dtype=np.uint8),
            )
        )
        magic, code, header_len, body_len = wire._PREFIX.unpack(
            frame[: wire._PREFIX.size]
        )
        header = frame[wire._PREFIX.size : wire._PREFIX.size + header_len]
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode_payload(code, header, b"\x00" * 4)

    def test_bogus_manifest_dtype_is_wire_error(self):
        # A lying header (invalid dtype string) must decode to a
        # WireError -- not a stray TypeError that a reader thread's
        # except clause would miss, stranding the service in a hang.
        import json as json_module

        header = json_module.dumps({
            "pack": "p",
            "manifest": [["w", [4], "<f8", 0]],
            "__pack__": [["buffer", [32], "bogus64", 0]],
        }).encode()
        code = wire._CODE_BY_CLASS[wire.AssetReply]
        with pytest.raises(wire.WireError, match="invalid"):
            wire.decode_payload(code, header, b"\x00" * 32)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7911") == ("127.0.0.1", 7911)
        with pytest.raises(TransportError, match="host:port"):
            parse_address("localhost")
        with pytest.raises(TransportError, match="host:port"):
            parse_address("host:port")


# ----------------------------------------------------------------------
# TCP scoring service
# ----------------------------------------------------------------------
@pytest.fixture
def tcp_service(trained_gon):
    """Start a TCP-fronted scoring service; yields a factory."""
    transports = []

    def start(asset_packs=None, asset_index=None):
        transport = TcpTransport(
            asset_packs=asset_packs, asset_index=asset_index
        )
        transports.append(transport)
        transport.start()
        service = GONScoringService(
            {"scenario": trained_gon},
            transport.request_queue,
            transport.reply_queues,
            one_cell_grid(),
        )
        service.on_worker_lost = transport.close_client
        outcome = {}

        def run():
            try:
                outcome["stats"] = serve_transport(service, transport)
            except BaseException as error:
                outcome["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return transport, service, thread, outcome

    yield start
    for transport in transports:
        transport.close()


class TestTcpScoringService:
    def test_ascent_bitwise_equals_local(
        self, tcp_service, trained_gon, session_samples
    ):
        transport, _service, thread, outcome = tcp_service()
        channel = TcpWorkerChannel(transport.address)
        client = ScoringClient(channel.client_id, "scenario", channel, channel)
        metrics, schedules, adjacencies = _stacks(session_samples[:6])
        remote = client.ascent(metrics, schedules, adjacencies,
                               gamma=1e-2, max_steps=5)
        local = generate_metrics_batch(
            trained_gon, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=5,
        )
        for r, ref in zip(remote, local):
            assert np.array_equal(r.metrics, ref.metrics)
            assert r.confidence == ref.confidence
            assert r.n_steps == ref.n_steps
            assert r.converged == ref.converged
        sign_off(channel, channel.client_id)
        channel.close()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert "error" not in outcome

    def test_overlay_lifecycle_over_tcp(
        self, tcp_service, trained_gon, session_samples
    ):
        """fine-tune -> overlay install -> TCP-scored ascents bitwise
        equal to worker-local scoring on the fine-tuned weights."""
        from repro.nn.serialization import freeze_state

        transport, service, thread, outcome = tcp_service()
        channel = TcpWorkerChannel(transport.address)
        client = ScoringClient(channel.client_id, "scenario", channel, channel)
        replica = trained_gon.clone_architecture(np.random.default_rng(9))
        replica.load_state_dict(
            freeze_state(trained_gon.state_dict()), copy=False
        )
        scorer = FleetScorer(client, replica)
        scorer.fine_tune(
            session_samples[:6],
            TrainingConfig(epochs=1, generation_steps=2, seed=0),
            iterations=1,
            rng=np.random.default_rng(0),
        )
        metrics, schedules, adjacencies = _stacks(session_samples[:5])
        remote = scorer.ascent(metrics, schedules, adjacencies,
                               gamma=1e-2, max_steps=5)
        local = generate_metrics_batch(
            scorer.model, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=5,
        )
        for r, ref in zip(remote, local):
            assert np.array_equal(r.metrics, ref.metrics)
            assert r.confidence == ref.confidence
        sign_off(channel, channel.client_id)
        channel.close()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert outcome["stats"].overlay_installs == 1
        assert outcome["stats"].overlay_evictions == 1

    def test_asset_fetch_is_cached_per_process(self, tcp_service, rng):
        arrays = {"w": rng.standard_normal((6, 4)), "b": rng.standard_normal(4)}
        packs = {"scenario/weights": pack_state(arrays)}
        index = {"scenario": {"gon_hidden": 8, "gon_layers": 2,
                              "seed": 1, "gan_seed": 1}}
        transport, _service, thread, _outcome = tcp_service(
            asset_packs=packs, asset_index=index
        )
        channel = TcpWorkerChannel(transport.address)
        assert channel.fetch_index() == index
        fetched = fetch_array_pack(channel, "scenario/weights")
        for name, array in arrays.items():
            assert np.array_equal(fetched.arrays[name], array)
            assert not fetched.arrays[name].flags.writeable
        # Second fetch is served from the per-process cache.
        again = fetch_array_pack(channel, "scenario/weights")
        assert again is fetched
        sign_off(channel, channel.client_id)
        channel.close()
        thread.join(timeout=15)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# Failure modes: one client's fault drops that client, never a hang
# ----------------------------------------------------------------------
def _rejections() -> int:
    counters = telemetry.snapshot()["counters"]
    return counters.get("fleet.handshake_rejections", 0)


def _wait_for(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def _peer_still_scores(channel, thread, outcome, trained_gon, samples):
    """A client connected alongside the culprit still gets its ascent,
    and the service then winds down cleanly."""
    client = ScoringClient(channel.client_id, "scenario", channel, channel)
    metrics, schedules, adjacencies = _stacks(samples[:2])
    remote = client.ascent(metrics, schedules, adjacencies,
                           gamma=1e-2, max_steps=3)
    local = generate_metrics_batch(
        trained_gon, schedules, adjacencies, init_metrics=metrics,
        gamma=1e-2, max_steps=3,
    )
    for r, ref in zip(remote, local):
        assert np.array_equal(r.metrics, ref.metrics)
    sign_off(channel, channel.client_id)
    channel.close()
    thread.join(timeout=15)
    assert not thread.is_alive()
    assert "error" not in outcome


class TestTransportFailureModes:
    def _culprit_dropped(self, service, transport, culprit):
        """The culprit is declared lost and its socket torn down."""
        _wait_for(lambda: culprit.client_id in service.lost)
        assert culprit.client_id not in transport._sockets

    def test_malformed_frame_drops_the_client(
        self, tcp_service, trained_gon, session_samples
    ):
        transport, service, thread, outcome = tcp_service()
        peer = TcpWorkerChannel(transport.address)
        culprit = TcpWorkerChannel(transport.address)
        culprit._sock.sendall(b"this is not a CRL1 frame at all........")
        self._culprit_dropped(service, transport, culprit)
        # The culprit hears the close instead of hanging.
        with pytest.raises(TransportError):
            culprit.get()
        culprit.close()
        _peer_still_scores(
            peer, thread, outcome, trained_gon, session_samples
        )

    def test_truncated_frame_is_a_loud_protocol_error(
        self, tcp_service, trained_gon, session_samples
    ):
        transport, service, thread, outcome = tcp_service()
        peer = TcpWorkerChannel(transport.address)
        culprit = TcpWorkerChannel(transport.address)
        metrics, schedules, adjacencies = _stacks(session_samples[:2])
        frame = wire.encode_message(AscentRequest(
            client_id=culprit.client_id, request_id=1, model_key="scenario",
            metrics=metrics, schedules=schedules, adjacencies=adjacencies,
            gamma=1e-2, max_steps=2,
        ))
        culprit._sock.sendall(frame[: len(frame) - 40])
        culprit.close()  # EOF mid-frame
        self._culprit_dropped(service, transport, culprit)
        _peer_still_scores(
            peer, thread, outcome, trained_gon, session_samples
        )

    def test_disconnect_mid_ascent_fails_fast(
        self, tcp_service, trained_gon, session_samples
    ):
        transport, service, thread, outcome = tcp_service()
        peer = TcpWorkerChannel(transport.address)
        culprit = TcpWorkerChannel(transport.address)
        metrics, schedules, adjacencies = _stacks(session_samples[:3])
        culprit.put(AscentRequest(
            client_id=culprit.client_id, request_id=1, model_key="scenario",
            metrics=metrics, schedules=schedules, adjacencies=adjacencies,
            gamma=1e-2, max_steps=5,
        ))
        culprit.close()  # vanish without ClientDone, reply undeliverable
        self._culprit_dropped(service, transport, culprit)
        _peer_still_scores(
            peer, thread, outcome, trained_gon, session_samples
        )

    def test_stale_generation_over_tcp_is_loud_on_both_sides(
        self, tcp_service, session_samples
    ):
        transport, _service, thread, outcome = tcp_service()
        channel = TcpWorkerChannel(transport.address)
        metrics, schedules, adjacencies = _stacks(session_samples[:1])
        channel.put(AscentRequest(
            client_id=channel.client_id, request_id=1, model_key="scenario",
            metrics=metrics, schedules=schedules, adjacencies=adjacencies,
            gamma=1e-2, max_steps=2, generation=3,
        ))
        thread.join(timeout=15)
        assert not thread.is_alive()
        # The service died on the overlay-protocol violation...
        assert "overlay" in str(outcome["error"])
        # ...and the blocked client hears about it instead of hanging.
        with pytest.raises(TransportError, match="overlay"):
            channel.get()
        channel.close()

    def test_client_id_spoofing_is_rejected(
        self, tcp_service, trained_gon, session_samples
    ):
        transport, service, thread, outcome = tcp_service()
        peer = TcpWorkerChannel(transport.address)
        culprit = TcpWorkerChannel(transport.address)
        metrics, schedules, adjacencies = _stacks(session_samples[:1])
        culprit.put(AscentRequest(
            client_id=culprit.client_id + 7, request_id=1,
            model_key="scenario", metrics=metrics, schedules=schedules,
            adjacencies=adjacencies, gamma=1e-2, max_steps=2,
        ))
        self._culprit_dropped(service, transport, culprit)
        # Nothing the culprit claimed was scored.
        assert service.stats.n_requests == 0
        culprit.close()
        _peer_still_scores(
            peer, thread, outcome, trained_gon, session_samples
        )

    def test_unknown_asset_pack_is_loud(
        self, tcp_service, trained_gon, session_samples
    ):
        transport, service, thread, outcome = tcp_service()
        peer = TcpWorkerChannel(transport.address)
        culprit = TcpWorkerChannel(transport.address)
        with pytest.raises(TransportError):
            culprit.fetch_pack("no-such-scenario/weights")
        self._culprit_dropped(service, transport, culprit)
        culprit.close()
        _peer_still_scores(
            peer, thread, outcome, trained_gon, session_samples
        )

    def test_handshake_without_hello_is_loud(
        self, tcp_service, trained_gon, session_samples
    ):
        transport, _service, thread, outcome = tcp_service()
        peer = TcpWorkerChannel(transport.address)
        before = _rejections()
        raw = socket.create_connection((transport.host, transport.port))
        raw.sendall(struct.pack("!I", 0xDEADBEEF) * 8)
        raw.close()
        _wait_for(lambda: _rejections() == before + 1)
        _peer_still_scores(
            peer, thread, outcome, trained_gon, session_samples
        )

    def test_connect_to_dead_address_times_out_loudly(self):
        # Grab a port and close it again: nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError, match="could not reach"):
            TcpWorkerChannel(f"127.0.0.1:{port}", connect_timeout=0.5)

    def test_peak_connected_outlives_the_workers(self, trained_gon):
        # The fleet smoke checks the fleet reached full strength after
        # the run, so the peak must survive the sockets closing -- on
        # /status and in the telemetry gauge `serve --telemetry-json`
        # writes.
        from repro.experiments.fleet import _status_provider

        transport = TcpTransport()
        transport.start()
        try:
            channels = [TcpWorkerChannel(transport.address) for _ in range(2)]
            service = GONScoringService(
                {"scenario": trained_gon},
                transport.request_queue,
                transport.reply_queues,
                one_cell_grid(),
            )
            status = _status_provider(
                service, transport, 2, ChaosControl(service, transport)
            )
            assert status()["workers"]["peak_connected"] == 2
            for channel in channels:
                transport.close_client(channel.client_id)
                channel.close()
            workers = status()["workers"]
            assert workers["connected"] == 0
            assert workers["peak_connected"] == 2
            gauges = service.merged_telemetry()["gauges"]
            assert gauges["fleet.workers_peak"] == 2
        finally:
            transport.close()
