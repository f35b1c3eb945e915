"""AsyncioTransport contracts: lifecycle, crash semantics, fault checks.

These tests exercise the *live* side of the unified Transport API with
real sockets (unix by default, one TCP case). The shared FaultFabric
verdict logic itself is covered by the SimNetwork suites; here we assert
the live transport obeys the same surface — a muted endpoint's control
frames vanish, partitions never touch client traffic, a stopped endpoint
refuses connections like a dead process.
"""

import asyncio
import os
import subprocess
import sys

import pytest

from repro.simulation.network import SimNetwork
from repro.transport import CLIENT_ADDR, Transport, mds_addr, mon_addr
from repro.transport.asyncio_net import AsyncioTransport
from repro.transport.wire import encode_frame, read_frame


def run(coro):
    return asyncio.run(coro)


async def _echo_handler(reader, writer):
    """Echo frames back until the peer hangs up."""
    while True:
        payload = await read_frame(reader)
        if payload is None:
            return
        writer.write(encode_frame(payload))
        await writer.drain()


PING = {"v": 1, "type": "ping", "n": 1}


# ----------------------------------------------------------------------
# Protocol conformance
# ----------------------------------------------------------------------
def test_both_implementations_satisfy_transport():
    assert isinstance(SimNetwork(), Transport)
    assert isinstance(AsyncioTransport(), Transport)


def test_addr_helpers():
    assert mds_addr(3) == "mds:3"
    assert mon_addr(0) == "mon:0"
    assert CLIENT_ADDR == "client"


# ----------------------------------------------------------------------
# Endpoint lifecycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["unix", "tcp"])
def test_endpoint_echo_round_trip(mode):
    async def go():
        transport = AsyncioTransport(mode=mode)
        try:
            await transport.start_endpoint("mds:0", _echo_handler)
            assert transport.is_listening("mds:0")
            reader, writer = await transport.connect("mds:0")
            writer.write(encode_frame(PING))
            await writer.drain()
            payload = await read_frame(reader)
            writer.close()
            return payload
        finally:
            await transport.close()

    assert run(go()) == PING


def test_stopped_endpoint_refuses_connections():
    async def go():
        transport = AsyncioTransport()
        try:
            await transport.start_endpoint("mds:0", _echo_handler)
            await transport.stop_endpoint("mds:0")
            assert not transport.is_listening("mds:0")
            with pytest.raises(ConnectionRefusedError):
                await transport.connect("mds:0")
        finally:
            await transport.close()

    run(go())


def test_crash_aborts_established_connections():
    async def go():
        transport = AsyncioTransport()
        try:
            await transport.start_endpoint("mds:0", _echo_handler)
            reader, writer = await transport.connect("mds:0")
            # One echo round-trip first: guarantees the server has accepted
            # the stream (otherwise there is no inbound socket to abort).
            writer.write(encode_frame(PING))
            await writer.drain()
            assert await read_frame(reader) == PING
            await transport.stop_endpoint("mds:0")  # the live "crash"
            # The aborted stream surfaces as EOF or a reset on next read.
            try:
                data = await asyncio.wait_for(reader.read(64), timeout=2.0)
            except ConnectionError:
                return True
            return data == b""
        finally:
            await transport.close()

    assert run(go())


def test_endpoint_restarts_at_the_same_address():
    async def go():
        transport = AsyncioTransport()
        try:
            await transport.start_endpoint("mds:0", _echo_handler)
            before = transport.address_of("mds:0")
            await transport.stop_endpoint("mds:0")
            await transport.start_endpoint("mds:0", _echo_handler)
            assert transport.address_of("mds:0") == before
            reader, writer = await transport.connect("mds:0")
            writer.write(encode_frame(PING))
            await writer.drain()
            assert await read_frame(reader) == PING
            writer.close()
        finally:
            await transport.close()

    run(go())


def test_double_start_is_an_error():
    async def go():
        transport = AsyncioTransport()
        try:
            await transport.start_endpoint("mds:0", _echo_handler)
            with pytest.raises(RuntimeError, match="already listening"):
                await transport.start_endpoint("mds:0", _echo_handler)
        finally:
            await transport.close()

    run(go())


# ----------------------------------------------------------------------
# Fault-checked sends
# ----------------------------------------------------------------------
def _connected(transport):
    """Open mds:0 with an echo handler and connect to it."""

    async def go():
        await transport.start_endpoint("mds:0", _echo_handler)
        return await transport.connect("mds:0")

    return go()


def test_muted_endpoint_drops_control_frames():
    async def go():
        transport = AsyncioTransport()
        try:
            reader, writer = await _connected(transport)
            transport.mute("mds:0")
            sent = await transport.send_control(
                "mon:0", "mds:0", writer, encode_frame(PING)
            )
            assert sent is False
            assert transport.messages_dropped == 1
            transport.unmute("mds:0")
            assert await transport.send_control(
                "mon:0", "mds:0", writer, encode_frame(PING)
            )
            assert await read_frame(reader) == PING  # only the second landed
            writer.close()
        finally:
            await transport.close()

    run(go())


def test_partition_blocks_control_but_not_client_data():
    async def go():
        transport = AsyncioTransport()
        try:
            reader, writer = await _connected(transport)
            transport.partition("wall", [["mds:0"], ["mon:0"]])
            assert not transport.reachable("mon:0", "mds:0")
            sent = await transport.send_control(
                "mon:0", "mds:0", writer, encode_frame(PING)
            )
            assert sent is False
            # Clients sit outside the partition model: data-plane frames
            # still land exactly as SimNetwork.client_arrival allows.
            assert await transport.send_data(
                CLIENT_ADDR, "mds:0", writer, encode_frame(PING)
            )
            assert await read_frame(reader) == PING
            transport.heal()
            writer.close()
        finally:
            await transport.close()

    run(go())


def test_full_loss_drops_data_frames():
    async def go():
        transport = AsyncioTransport(seed=5)
        try:
            reader, writer = await _connected(transport)
            transport.set_loss("mds:0", 1.0)
            sent = await transport.send_data(
                CLIENT_ADDR, "mds:0", writer, encode_frame(PING)
            )
            assert sent is False
            assert transport.messages_dropped == 1
            transport.clear_endpoint("mds:0")
            assert await transport.send_data(
                CLIENT_ADDR, "mds:0", writer, encode_frame(PING)
            )
            assert await read_frame(reader) == PING
            writer.close()
        finally:
            await transport.close()

    run(go())


def test_delay_defers_the_write():
    async def go():
        transport = AsyncioTransport(seed=5)
        try:
            reader, writer = await _connected(transport)
            transport.set_delay("mds:0", 0.05)
            loop = asyncio.get_running_loop()
            start = loop.time()
            assert await transport.send_control(
                "mon:0", "mds:0", writer, encode_frame(PING)
            )
            elapsed = loop.time() - start
            assert transport.messages_delayed == 1
            assert elapsed > 0.0  # the exponential draw actually slept
            assert await read_frame(reader) == PING
            writer.close()
        finally:
            await transport.close()

    run(go())


def test_rejects_unknown_mode():
    with pytest.raises(ValueError, match="transport mode"):
        AsyncioTransport(mode="carrier-pigeon")


def test_sim_path_loads_no_asyncio():
    """The simulator imports ``repro.transport.base`` only: a fresh
    interpreter running ``repro simulate``'s imports loads neither the
    wire codec nor asyncio."""
    code = (
        "import sys, repro.cli, repro.simulation, repro.traces; "
        "print(sorted(m for m in ('asyncio', 'repro.transport.wire') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
