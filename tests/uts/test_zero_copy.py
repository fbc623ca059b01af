"""The zero-copy wire path.

Encode can write straight into a caller-owned (pooled) bytearray
(``encode_into`` / ``encode_conformed_into`` — no intermediate
per-value bytes objects joined into a second allocation); an RPC leg
packs its payload once, the payload travels as the same object through
every hop, and a copy-counting hook proves no payload bytes are copied
after encode.  The legacy store-and-forward behaviour survives behind
``Transport.copy_per_hop`` for contrast.
"""

from __future__ import annotations

import pytest

from repro.machines import Language
from repro.schooner import (
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
)
from repro.uts import (
    BufferPool,
    SpecFile,
    encode_into,
    encode_value,
    marshal_args,
    marshal_args_into,
)
from repro.uts.buffers import (
    WIRE_BUFFERS,
    count_payload_copy,
    payload_copy_count,
    reset_payload_copies,
)
from repro.uts.compiled import signature_codec
from repro.uts.types import DOUBLE, ArrayType, ParamMode, Parameter, Signature


# ----------------------------------------------------------- encode_into
class TestEncodeInto:
    def test_encode_into_matches_encode_value(self):
        t = ArrayType(64, DOUBLE)
        value = [float(i) * 0.5 for i in range(64)]
        buf = bytearray()
        encode_into(t, value, buf)
        assert bytes(buf) == encode_value(t, value)

    def test_encode_into_appends_without_clobbering(self):
        buf = bytearray(b"prefix")
        encode_into(DOUBLE, 2.5, buf)
        assert buf.startswith(b"prefix")
        assert bytes(buf[6:]) == encode_value(DOUBLE, 2.5)

    def test_marshal_args_into_matches_marshal_args(self):
        sig = Signature(
            "f",
            (
                Parameter("a", ParamMode.VAL, DOUBLE),
                Parameter("xs", ParamMode.VAL, ArrayType(8, DOUBLE)),
            ),
        )
        args = {"a": 1.25, "xs": [float(i) for i in range(8)]}
        buf = bytearray()
        n = marshal_args_into(sig, args, "send", buf)
        assert n == len(buf)
        assert bytes(buf) == marshal_args(sig, args, "send")

    def test_compiled_encode_conformed_into_matches_encode_conformed(self):
        sig = Signature(
            "g",
            (
                Parameter("a", ParamMode.VAL, DOUBLE),
                Parameter("xs", ParamMode.VAL, ArrayType(16, DOUBLE)),
            ),
        )
        from repro.uts.wire import conform_args

        codec = signature_codec(sig, "send")
        args = {"a": 3.5, "xs": [float(i) for i in range(16)]}
        conformed = conform_args(sig, args, "send")
        buf = bytearray()
        n = codec.encode_conformed_into(conformed, buf)
        assert n == len(buf)
        assert bytes(buf) == codec.encode_conformed(conformed)


# ------------------------------------------------------------ BufferPool
class TestBufferPool:
    def test_release_then_acquire_reuses_buffer(self):
        pool = BufferPool()
        a = pool.acquire()
        pool.release(a)
        b = pool.acquire()
        assert b is a
        assert len(b) == 0  # cleared on release

    def test_release_with_exported_memoryview_is_use_after_release(self):
        pool = BufferPool()
        buf = pool.acquire()
        buf += b"payload"
        view = memoryview(buf)
        with pytest.raises(BufferError):
            pool.release(buf)
        view.release()
        pool.release(buf)  # fine once the view is gone

    def test_borrowed_context_manager(self):
        pool = BufferPool()
        with pool.borrowed() as buf:
            buf += b"x"
        with pool.borrowed() as again:
            assert again is buf

    def test_copy_counter_hook(self):
        reset_payload_copies()
        assert payload_copy_count() == 0
        count_payload_copy()
        count_payload_copy(3)
        assert payload_copy_count() == 4
        reset_payload_copies()
        assert payload_copy_count() == 0


# ------------------------------------------------- the end-to-end wire path
ARRAY_SPEC = 'export crunch prog("xs" val array[64] of double, "total" res double)'


def _remote_call_env(machine="lerc-rs6000"):
    exe = Executable(
        "crunch",
        (
            Procedure(
                name="crunch",
                signature=SpecFile.parse(ARRAY_SPEC).export_named("crunch"),
                impl=lambda xs: {"total": sum(xs)},
                language=Language.C,
            ),
        ),
    )
    env = SchoonerEnvironment.standard()
    env.park[machine].install("/bin/crunch", exe)
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    ctx = ModuleContext(
        manager=manager, module_name="m", machine=env.park["ua-sparc10"]
    )
    ctx.sch_contact_schx(machine, "/bin/crunch")
    stub = ctx.import_proc(SpecFile.parse(ARRAY_SPEC).as_imports(), name="crunch")
    return env, stub


class TestZeroCopyWirePath:
    def test_gateway_routed_bulk_call_copies_no_payload_bytes(self):
        """The acceptance check: a bulk-array call routed across the
        internet (Arizona client, LeRC server — gateways on both
        campuses) performs zero payload copies after encode."""
        env, stub = _remote_call_env()
        xs = [float(i) for i in range(64)]
        stub(xs=xs)  # warm up instance state
        reset_payload_copies()
        out = stub(xs=xs)
        assert out == {"total": sum(xs)}
        assert payload_copy_count() == 0

    def test_copy_per_hop_mode_counts_hops_both_ways(self):
        """The pre-zero-copy contrast: store-and-forward re-materializes
        the payload at every hop, request and reply both."""
        env, stub = _remote_call_env()
        stub(xs=[0.0] * 64)
        src = env.park["ua-sparc10"]
        dst = env.park["lerc-rs6000"]
        hops = env.topology.classify(src, dst).hops
        assert hops >= 1
        env.transport.copy_per_hop = True
        reset_payload_copies()
        stub(xs=[float(i) for i in range(64)])
        # one request message + one reply message, `hops` copies each
        assert payload_copy_count() == 2 * hops

    def test_message_header_is_packed_once(self):
        env, stub = _remote_call_env()
        env.transport.stats.by_kind.clear()
        stub(xs=[1.0] * 64)
        # every sent message carries a fixed-size struct-packed header
        from repro.network.transport import HEADER_STRUCT

        # 32 bytes since the deadline-propagation field (PR 5) joined
        # the call id / kind / size / src / dst fields
        assert HEADER_STRUCT.size == 32

    def test_pooled_buffers_are_returned_after_the_call(self):
        env, stub = _remote_call_env()
        stub(xs=[1.0] * 64)
        before = len(WIRE_BUFFERS)
        stub(xs=[2.0] * 64)
        # the RPC path leaves the pool as it found it (it packs its
        # payloads without pooled buffers)
        assert len(WIRE_BUFFERS) == before

    def test_zero_copy_reply_still_decodes_correctly(self):
        env, stub = _remote_call_env()
        for k in range(3):
            xs = [float(i + k) for i in range(64)]
            assert stub(xs=xs) == {"total": pytest.approx(sum(xs))}
