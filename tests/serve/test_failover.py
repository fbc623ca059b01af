"""Self-healing shard pool: supervision, typed death, seeded kills.

The failover contract has three layers, and these tests hold each one:

* **Supervision** — a dead worker raises :class:`ShardCrashed` (exit
  code, stderr tail, last frame kind) from ``send``/``recv`` instead of
  a hang or a bare ``BrokenPipeError``; a live-but-silent worker raises
  :class:`ShardTimeout` after the caller's ``recv_timeout_s``.

* **Deterministic recovery** — the acceptance differential: a 4-worker
  serve with seeded SIGKILLs at open, mid-wave, and close (under fork
  and spawn, pipe and shm) completes with per-session rows
  bitwise-identical to the uninterrupted inline run, and the
  ``ServeReport`` accounts every crash, redone session, and forfeited
  retry-budget lease exactly.

* **No leaks** — killing a worker must not strand ``/dev/shm``
  segments, stderr spools, or ``line-*`` threads past ``pool.close()``;
  ``recover()`` must drain stale traffic (including ``+shm`` ring
  references) and stay idempotent.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time

import pytest

from repro.faults.plan import FaultPlan, KillShardWorker
from repro.serve import (
    ShardCrashed,
    ShardPool,
    ShardTimeout,
    build_kill_plan,
    serve_sessions_sharded,
)
from repro.serve.demo import build_session_specs
from repro.serve.failover import KillSchedule, read_stderr_tail
from repro.serve.shards import assign_shards
from repro.serve.shm import shm_available

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no POSIX shared memory on this host"
)

#: a minimal, valid shard-open payload (no op seed, no lease)
_BARE_OPEN = {
    "shard": 0,
    "dedup": True,
    "wall_parallel": 2,
    "budget": None,
    "op_seed": None,
}


def _rows(report):
    return [
        (r.name, r.digest, r.virtual_s, r.status, r.shed_reason,
         r.replayed, r.wait_s, r.deadline_met)
        for r in report.results
    ]


def _kill(proc):
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)


class TestKillMatrix:
    """The acceptance differential: kills at every protocol point, under
    both start methods and both transports, with exact accounting."""

    def _specs_and_plan(self):
        # resilient specs so every busy shard carries a budget lease —
        # the kills must forfeit and re-issue them without double-spend
        specs = [
            dataclasses.replace(s, resilient=True)
            for s in build_session_specs(8, classes=4, points=2)
        ]
        buckets = assign_shards(list(enumerate(specs)), 4)
        busy = [w for w, bucket in enumerate(buckets) if bucket]
        assert len(busy) >= 3, "kill matrix needs three busy shards"
        plan = FaultPlan(
            seed=99,
            events=(
                KillShardWorker(at_s=0.0, shard=busy[0], phase="open"),
                KillShardWorker(at_s=1.0, shard=busy[1], phase="wave", wave=0),
                KillShardWorker(at_s=2.0, shard=busy[2], phase="close"),
            ),
        )
        return specs, plan, busy, buckets

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize(
        "transport", ["pipe", pytest.param("shm", marks=needs_shm)]
    )
    def test_killed_serve_is_bitwise_identical_to_inline(
        self, start_method, transport
    ):
        specs, plan, busy, buckets = self._specs_and_plan()
        base = serve_sessions_sharded(specs, workers=0)
        shard = serve_sessions_sharded(
            specs,
            workers=4,
            start_method=start_method,
            transport=transport,
            kill_plan=plan,
        )
        assert _rows(shard) == _rows(base)
        rows = {r["shard"]: r for r in shard.shard_rows}
        assert sum(r["crashes"] for r in rows.values()) == 3
        for w in busy[:3]:
            assert rows[w]["crashes"] == 1
            assert rows[w]["crash_exitcodes"] == [-signal.SIGKILL]
            assert rows[w]["forfeited_leases"] == 1
            assert rows[w]["forfeited_tokens"] > 0
            assert rows[w]["recovery_wall_s"] > 0
        # a kill at open or at wave 0 loses no completed sessions; a
        # kill at close redoes the whole episode (its close-time
        # counters and op export died with the worker)
        assert rows[busy[0]]["redone_sessions"] == 0
        assert rows[busy[1]]["redone_sessions"] == 0
        assert rows[busy[2]]["redone_sessions"] == len(buckets[busy[2]])
        for w, row in rows.items():
            if w not in busy[:3]:
                assert row["crashes"] == 0
        # every leased token came back: the replacement episode was
        # re-issued the forfeited grant, never a second withdrawal
        assert shard.retry_budget is not None
        assert shard.retry_budget["tokens"] == pytest.approx(10.0)
        assert shard.retry_budget["spent"] == 0

    def test_same_plan_replays_to_identical_accounting(self):
        specs, plan, _busy, _buckets = self._specs_and_plan()
        a = serve_sessions_sharded(specs, workers=4, kill_plan=plan)
        b = serve_sessions_sharded(specs, workers=4, kill_plan=plan)
        assert _rows(a) == _rows(b)
        assert [
            (r["shard"], r["crashes"], r["redone_sessions"])
            for r in a.shard_rows
        ] == [
            (r["shard"], r["crashes"], r["redone_sessions"])
            for r in b.shard_rows
        ]

    def test_unkilled_serve_reports_zero_crashes(self):
        specs = build_session_specs(4, classes=2, points=2)
        report = serve_sessions_sharded(specs, workers=2)
        assert all(r["crashes"] == 0 for r in report.shard_rows)
        assert all(r["redone_sessions"] == 0 for r in report.shard_rows)
        assert all("crash_exitcodes" not in r for r in report.shard_rows)


class TestSupervision:
    def test_dead_worker_raises_typed_crash_with_exitcode(self):
        pool = ShardPool(2)
        try:
            pool.send(0, "shard-open", dict(_BARE_OPEN))
            _kill(pool._procs[0])
            with pytest.raises(ShardCrashed) as exc:
                pool.recv(0, "shard-result", timeout_s=30.0)
            assert exc.value.shard == 0
            assert exc.value.exitcode == -signal.SIGKILL
            assert exc.value.last_kind == "shard-open"
            assert "killed by signal 9" in str(exc.value)
            assert "shard-open" in str(exc.value)
        finally:
            pool.close()

    def test_send_to_corpse_raises_typed_crash(self):
        pool = ShardPool(2)
        try:
            _kill(pool._procs[1])
            with pytest.raises(ShardCrashed) as exc:
                # the kernel may buffer a write or two before EPIPE
                for _ in range(64):
                    pool.send(1, "shard-close", None)
                    time.sleep(0.01)
            assert exc.value.shard == 1
        finally:
            pool.close()

    def test_recv_timeout_is_typed_and_bounded(self):
        pool = ShardPool(1, recv_timeout_s=30.0)
        try:
            t0 = time.monotonic()
            with pytest.raises(ShardTimeout) as exc:
                pool.recv(0, "shard-result", timeout_s=0.3)
            assert time.monotonic() - t0 < 10
            assert exc.value.shard == 0
            assert exc.value.timeout_s == 0.3
            assert pool._procs[0].is_alive(), "timeout means alive-but-silent"
        finally:
            pool.close()

    def test_pool_default_recv_timeout_applies(self):
        pool = ShardPool(1, recv_timeout_s=0.2)
        try:
            with pytest.raises(ShardTimeout, match="0.2"):
                pool.recv(0, "shard-result")
        finally:
            pool.close()

    def test_stderr_tail_surfaces_in_crash(self):
        pool = ShardPool(1)
        try:
            with open(pool._stderr_paths[0], "a") as fh:
                fh.write("traceback: the worker's last words\n")
            _kill(pool._procs[0])
            with pytest.raises(ShardCrashed) as exc:
                pool.recv(0, "shard-closed", timeout_s=10.0)
            assert "last words" in exc.value.stderr_tail
            assert "worker stderr tail" in str(exc.value)
        finally:
            pool.close()

    def test_flushed_frames_drain_before_crash_is_raised(self):
        """A worker that replied and *then* died must not lose the
        reply: the pipe drains first, only then does recv autopsy."""
        pool = ShardPool(1)
        try:
            pool.send(0, "shard-open", dict(_BARE_OPEN))
            pool.send(0, "shard-close", None)
            deadline = time.monotonic() + 10
            while not pool._conns[0].poll(0.05):
                assert time.monotonic() < deadline, "no close reply"
            _kill(pool._procs[0])
            reply = pool.recv(0, "shard-closed", timeout_s=10.0)
            assert reply["shard"] == 0
            with pytest.raises(ShardCrashed):
                pool.recv(0, "shard-closed", timeout_s=10.0)
        finally:
            pool.close()


class TestConnectionReset:
    """A worker SIGKILLed with unread bytes in its pipe makes the kernel
    reset the connection, so the parent's read raises
    ``ConnectionResetError`` rather than ``EOFError``.  Both reads at
    the shard boundary (``recv`` and ``recover``'s drain) must turn that
    into the typed autopsy.  The reset is injected deterministically:
    the patched ``recv_frame`` kills the worker, then raises."""

    @staticmethod
    def _resetting_recv_frame(monkeypatch, pool, resets=1):
        import repro.serve.shards as shards_mod

        real = shards_mod.recv_frame
        left = [resets]

        def recv_frame(conn, *args, **kwargs):
            if left[0] > 0 and conn in pool._conns:
                left[0] -= 1
                _kill(pool._procs[pool._conns.index(conn)])
                raise ConnectionResetError(104, "Connection reset by peer")
            return real(conn, *args, **kwargs)

        monkeypatch.setattr(shards_mod, "recv_frame", recv_frame)
        return left

    def test_reset_in_recv_raises_typed_crash(self, monkeypatch):
        pool = ShardPool(1)
        try:
            pool.send(0, "shard-open", dict(_BARE_OPEN))
            pool.send(0, "shard-close", None)
            deadline = time.monotonic() + 10
            while not pool._conns[0].poll(0.05):
                assert time.monotonic() < deadline, "no close reply"
            left = self._resetting_recv_frame(monkeypatch, pool)
            with pytest.raises(ShardCrashed) as exc:
                pool.recv(0, "shard-closed", timeout_s=10.0)
            assert left == [0]  # the reset path, not the sentinel path
            assert exc.value.shard == 0
            assert exc.value.exitcode == -signal.SIGKILL
            assert exc.value.last_kind == "shard-close"
        finally:
            pool.close()

    def test_reset_in_recover_drain_marks_pool_broken_with_autopsy(
        self, monkeypatch
    ):
        pool = ShardPool(1)
        try:
            self._resetting_recv_frame(monkeypatch, pool)
            pool.recover([0])
            with pytest.raises(RuntimeError, match="broken") as exc:
                pool.send(0, "shard-close", None)
            assert isinstance(exc.value.__cause__, ShardCrashed)
            assert exc.value.__cause__.exitcode == -signal.SIGKILL
        finally:
            pool.close()

    def test_reset_mid_serve_heals_to_inline_digests(self, monkeypatch):
        specs = build_session_specs(4, classes=2, points=2)
        base = _rows(serve_sessions_sharded(specs, workers=0))
        with ShardPool(2) as pool:
            left = self._resetting_recv_frame(monkeypatch, pool)
            healed = serve_sessions_sharded(specs, workers=2, pool=pool)
            assert left == [0]
        assert _rows(healed) == base
        assert sum(r["crashes"] for r in healed.shard_rows) == 1
        (exitcode,) = [
            code for r in healed.shard_rows for code in r.get("crash_exitcodes", ())
        ]
        assert exitcode == -signal.SIGKILL


class TestLeakRegression:
    @needs_shm
    def test_killed_worker_leaves_no_shm_segments_or_threads(self):
        specs = build_session_specs(4, classes=2, points=2)
        pool = ShardPool(2, transport="shm")
        names = [
            r.name for r in pool._rings_out + pool._rings_in if r is not None
        ]
        assert names, "shm transport must actually create rings"
        serve_sessions_sharded(specs, workers=2, pool=pool)
        _kill(pool._procs[0])
        spools = list(pool._stderr_paths)
        pool.close()
        leaked = [
            n for n in names
            if os.path.exists(os.path.join("/dev/shm", n.lstrip("/")))
        ]
        assert not leaked
        assert not [
            t.name for t in threading.enumerate()
            if t.name.startswith("line-")
        ]
        assert not [p for p in spools if os.path.exists(p)]
        assert all(not p.is_alive() for p in pool._procs)

    def test_pipe_pool_close_reaps_killed_worker(self):
        pool = ShardPool(2)
        _kill(pool._procs[1])
        spools = list(pool._stderr_paths)
        pool.close()
        assert all(not p.is_alive() for p in pool._procs)
        assert not [p for p in spools if os.path.exists(p)]

    def test_respawn_rebuilds_rings_on_fresh_segments(self):
        if not shm_available():
            pytest.skip("no POSIX shared memory on this host")
        pool = ShardPool(2, transport="shm")
        try:
            old = [pool._rings_out[0].name, pool._rings_in[0].name]
            _kill(pool._procs[0])
            pool.respawn(0)
            new = [pool._rings_out[0].name, pool._rings_in[0].name]
            assert set(old).isdisjoint(new)
            for n in old:
                assert not os.path.exists(
                    os.path.join("/dev/shm", n.lstrip("/"))
                ), "dead worker's ring must be unlinked on respawn"
        finally:
            pool.close()


class TestRecoverEdges:
    @needs_shm
    def test_recover_drains_shm_refs_in_flight(self, monkeypatch):
        """shm_threshold=1 forces every result through the ring, so the
        mid-serve failure strands ``+shm`` reference frames on it —
        recovery must resync cursors and drain them, and the next serve
        over the same pool must still match inline."""
        import repro.serve.shards as shards_mod

        specs = build_session_specs(6, classes=3, points=2)
        base = _rows(serve_sessions_sharded(specs, workers=0))
        with ShardPool(2, transport="shm", shm_threshold=1) as pool:
            real = shards_mod.result_from_wire

            def boom(wire):
                raise RuntimeError("injected shm-ref failure")

            monkeypatch.setattr(shards_mod, "result_from_wire", boom)
            with pytest.raises(RuntimeError, match="injected shm-ref"):
                serve_sessions_sharded(specs, workers=2, pool=pool)
            monkeypatch.setattr(shards_mod, "result_from_wire", real)
            again = serve_sessions_sharded(specs, workers=2, pool=pool)
            assert _rows(again) == base

    def test_recover_races_episode_close(self):
        """A shard-closed reply already in flight when recover() starts
        is stale traffic: the drain must discard it and settle on the
        sync echo, leaving the pool fully usable."""
        specs = build_session_specs(4, classes=2, points=2)
        base = _rows(serve_sessions_sharded(specs, workers=0))
        with ShardPool(2) as pool:
            pool.send(0, "shard-open", dict(_BARE_OPEN))
            pool.send(0, "shard-close", None)
            pool.recover([0, 1])
            again = serve_sessions_sharded(specs, workers=2, pool=pool)
            assert _rows(again) == base

    def test_double_recover_is_idempotent(self):
        specs = build_session_specs(4, classes=2, points=2)
        base = _rows(serve_sessions_sharded(specs, workers=0))
        with ShardPool(2) as pool:
            pool.recover([0, 1])
            pool.recover([0, 1])
            again = serve_sessions_sharded(specs, workers=2, pool=pool)
            assert _rows(again) == base

    def test_respawn_then_serve_matches_inline(self):
        specs = build_session_specs(4, classes=2, points=2)
        base = _rows(serve_sessions_sharded(specs, workers=0))
        with ShardPool(2) as pool:
            _kill(pool._procs[0])
            pool.respawn(0)
            again = serve_sessions_sharded(specs, workers=2, pool=pool)
            assert _rows(again) == base


class TestKillSchedule:
    def test_take_matches_protocol_points_and_fires_once(self):
        sched = KillSchedule([
            KillShardWorker(at_s=0.0, shard=0, phase="open"),
            KillShardWorker(at_s=1.0, shard=1, phase="wave", wave=1),
        ])
        assert sched.take(1, "shard-serve") is None  # wave 0: no match
        assert sched.take(0, "shard-open").phase == "open"
        assert sched.take(0, "shard-open") is None  # at most once
        ev = sched.take(1, "shard-serve")  # wave ordinal 1 matches
        assert ev is not None and ev.wave == 1
        assert len(sched) == 0 and len(sched.fired) == 2
        assert sched.take(0, "shard-sync") is None  # not a kill point

    def test_build_kill_plan_is_a_pure_function_of_the_seed(self):
        a = build_kill_plan(4404, 4, kills=3)
        b = build_kill_plan(4404, 4, kills=3)
        assert a.events == b.events
        assert [e.phase for e in a.events] == ["open", "wave", "close"]
        assert all(0 <= e.shard < 4 for e in a.events)
        with pytest.raises(ValueError, match="kills"):
            build_kill_plan(1, 2, kills=-1)

    def test_kill_event_validates_phase_and_describes_itself(self):
        with pytest.raises(ValueError, match="phase"):
            KillShardWorker(at_s=0.0, shard=0, phase="bogus")
        text = KillShardWorker(at_s=0.0, shard=2, phase="close").describe()
        assert "SIGKILL" in text and "2" in text

    def test_read_stderr_tail_limits_and_tolerates_missing(self, tmp_path):
        spool = tmp_path / "spool.log"
        spool.write_bytes(b"x" * 100 + b"END")
        assert read_stderr_tail(str(spool), limit=8) == "xxxxxEND"
        assert read_stderr_tail(str(tmp_path / "missing.log")) == ""
        assert read_stderr_tail(None) == ""
