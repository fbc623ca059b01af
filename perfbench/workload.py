"""One benchmark workload in a fresh interpreter.

Run by ``perfbench/run.py`` with ``PYTHONPATH=src``; prints one JSON
object as its last line of standard output.  ``--role setup`` stops
after set-up and reports only ``setup_s``; ``--role measure`` then runs
the closed loop for ``--seconds``: one client sends a request, waits for
it, and checks its per-session results against the reference computed
in set-up.  The loop ends on a whole pass over the run's inputs, so
every input is served equally often.  With ``--trace 1`` every input is
served twice in a row, first untraced and then with the seams of
:mod:`tracer` installed, and the traced request is folded into the
per-layer ledger.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before imports

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import replace  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro import serve, traffic  # noqa: E402
from repro.serve.demo import build_session_specs  # noqa: E402

import tracer as tr  # noqa: E402

#: the ``build_session_specs`` base fuel-flow range (kg/s) and its grid
WF_LO, WF_HI, WF_QUANTUM = 1.30, 1.54, 0.005
STUDY_SESSIONS, STUDY_CLASSES, STUDY_POINTS = 16, 4, 3
#: open-loop streams: arrivals per stream, streams per run, offered rate
STREAM_ARRIVALS, STREAMS_PER_RUN, STREAM_RATE = 120, 8, 1.0
OPEN_LOOP_ADMISSION = serve.AdmissionPolicy(max_live=2, max_parked=8)
#: a tail percentile needs this many requests beyond it
TAIL_BEYOND = 10


# ------------------------------------------------------------------ inputs
def study_specs(seed: int):
    """The 16-session cold study: 4 classes x 3 steady points on the
    Table-2 all-remote placement, each class's base fuel flow drawn from
    the seed on the 0.005 kg/s grid."""
    rng = random.Random(f"perfbench-study:{seed}")
    lo, hi = round(WF_LO / WF_QUANTUM), round(WF_HI / WF_QUANTUM)
    bases = [round(rng.randint(lo, hi) * WF_QUANTUM, 6) for _ in range(STUDY_CLASSES)]
    template = build_session_specs(STUDY_SESSIONS, classes=STUDY_CLASSES, points=STUDY_POINTS)
    return [
        replace(
            spec,
            points=tuple(
                round(bases[i % STUDY_CLASSES] + 0.04 * j, 6) for j in range(STUDY_POINTS)
            ),
        )
        for i, spec in enumerate(template)
    ]


def open_loop_mix():
    """The stock ``interactive-batch`` shape with the op-point cache on
    for every class."""
    stock = traffic.STOCK_MIXES["interactive-batch"]
    return traffic.TrafficMix(
        name="interactive-batch+opcache",
        classes=tuple(replace(c, op_cache=True) for c in stock.classes),
    )


def stream_seeds(seed: int):
    """The run's streams: distinct per (seed, k), disjoint across seeds."""
    return [seed * STREAMS_PER_RUN + k for k in range(STREAMS_PER_RUN)]


def build_stream(stream_seed: int):
    return traffic.build_stream(
        open_loop_mix(),
        traffic.PoissonArrivals(rate_per_s=STREAM_RATE, seed=stream_seed),
        STREAM_ARRIVALS,
        seed=stream_seed,
    )


def session_rows(results):
    """Per-session identity rows a request is checked by: status, trace
    digest, virtual time and every point result (floats by ``repr``)."""
    return [
        (
            r.name,
            r.status,
            r.digest,
            repr(r.virtual_s),
            repr(r.wait_s),
            json.dumps(r.results, sort_keys=True),
        )
        for r in results
    ]


# --------------------------------------------------------------- workloads
class ColdInline:
    """A 16-session study served inline on one long-lived installation,
    ``dedup=False``, op-cache off."""

    name = "cold-inline"
    #: requests in one pass over the run's distinct inputs
    pass_len = 1

    def __init__(self, seed: int):
        self.specs = study_specs(seed)

    def setup(self) -> None:
        self.installation = serve.SharedInstallation.standard()
        # the warm-up request is the reference every timed request must equal
        self.reference = session_rows(self._serve().results)

    def _serve(self):
        return serve.serve_sessions(self.specs, installation=self.installation, dedup=False)

    def request(self, k: int):
        report = self._serve()
        return report, report.results, None

    def sessions(self, k: int) -> int:
        return len(self.reference)

    def check(self, k: int, results, tr_report):
        return _mismatches(self.reference, session_rows(results))

    def close(self) -> None:
        pass


class ShardTwo(ColdInline):
    """The same study served by ``serve_sessions_sharded`` on a 2-worker
    pool spawned and warmed in set-up (default transport)."""

    name = "shard-2"

    def setup(self) -> None:
        # the reference is the inline serve of the same specs
        inline = serve.serve_sessions(self.specs, dedup=False)
        self.reference = session_rows(inline.results)
        self.pool = serve.ShardPool(2)
        # the first request after spawn is much slower than the rest
        self._serve()

    def _serve(self):
        return serve.serve_sessions_sharded(
            self.specs, workers=2, dedup=False, pool=self.pool
        )

    def close(self) -> None:
        self.pool.close()


class OpenLoopMixed:
    """Seeded Poisson streams of ~120 arrivals served open-loop by
    ``run_traffic`` on a fresh installation per request; requests cycle
    through the run's streams."""

    name = "open-loop-mixed"

    def __init__(self, seed: int):
        self.seeds = stream_seeds(seed)
        self.pass_len = len(self.seeds)

    def setup(self) -> None:
        self.reference = []
        for s in self.seeds:
            report = self._serve(s)
            self.reference.append((report.digest, session_rows(report.report.results)))

    def _serve(self, stream_seed: int):
        return traffic.run_traffic(
            build_stream(stream_seed),
            installation=serve.SharedInstallation.standard(),
            admission=OPEN_LOOP_ADMISSION,
        )

    def request(self, k: int):
        tr_report = self._serve(self.seeds[k % self.pass_len])
        return tr_report.report, tr_report.report.results, tr_report

    def sessions(self, k: int) -> int:
        return len(self.reference[k % self.pass_len][1])

    def check(self, k: int, results, tr_report):
        digest, rows = self.reference[k % self.pass_len]
        bad = _mismatches(rows, session_rows(results))
        # the stream digest also covers every latency and disposition
        return bad if tr_report.digest == digest else max(bad, 1)

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (ColdInline, ShardTwo, OpenLoopMixed)}


def _mismatches(reference, rows):
    """Sessions whose row differs from the reference (a missing or extra
    session counts too)."""
    bad = sum(1 for a, b in zip(reference, rows) if a != b)
    return bad + abs(len(reference) - len(rows))


# ----------------------------------------------------------------- metrics
def raised(result) -> bool:
    """A session that raised, other than by refusing work past its
    deadline (a deadline miss, which ``slo_met_ratio`` counts)."""
    return bool(result.error) and not result.error.startswith("DeadlineExceeded:")


def tail(values):
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it: ``(value, percentile, samples_beyond)``.  With too few
    samples it is the maximum, with nothing beyond."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return v[k], 100.0 * (k + 1) / n, n - k - 1


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter plus that of each live
    child process (the shard pool's workers, which serve and cache on
    ``shard-2``).  Pages a forked worker shares with its parent count in
    both, so with workers this is an upper bound."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status") as f:
            kb += next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kb / 1024


class Outcome:
    """Everything the timed requests of one run delivered.  The modelled
    metrics come from the first pass over the run's inputs only: later
    passes repeat the same inputs and are checked equal to the same
    references, so the modelled metrics depend on the seed alone."""

    def __init__(self):
        self.walls = []
        self.points = 0
        self.modelled_points = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.virtual_s = 0.0
        self.e2e = []
        self.tasks = 0
        self.tasks_met = 0
        self.deadline_tasks = False

    def add_failed(self, wall, sessions):
        """A request that raised: all of its sessions failed."""
        self.walls.append(wall)
        self.attempted += sessions
        self.failed += sessions

    def add(self, wall, report, results, tr_report, mismatched, first_pass):
        self.walls.append(wall)
        self.points += report.points
        self.attempted += len(results)
        self.failed += max(mismatched, sum(1 for r in results if raised(r)))
        if not first_pass:
            return
        self.modelled_points += report.points
        self.virtual_s += sum(r.virtual_s for r in results)
        self.e2e.extend(r.end_to_end_s for r in results if not r.shed)
        if tr_report is not None:
            self.deadline_tasks = True
            self.tasks += tr_report.total.tasks
            self.tasks_met += tr_report.total.tasks_met

    def end_to_end(self, setup_s):
        tail_ms, tail_pct, beyond = tail([w * 1e3 for w in self.walls])
        points, e2e = max(self.modelled_points, 1), self.e2e or [0.0]  # every request failed
        # closed-loop studies carry no deadlines: every session meets it
        slo = self.tasks_met / self.tasks if self.deadline_tasks else 1.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "points_per_s": (self.points / sum(self.walls), "points/s"),
            "request_wall_p50_ms": (statistics.median(self.walls) * 1e3, "ms"),
            "request_wall_tail_ms": (tail_ms, "ms"),
            "rss_peak_mb": (peak_rss_mb(), "MB"),
            "ok_ratio": (1.0 - self.failed / self.attempted, "ratio"),
            "modelled_s_per_point": (self.virtual_s / points, "virtual_s"),
            "modelled_e2e_p50_s": (statistics.median(e2e), "virtual_s"),
            "modelled_e2e_p90_s": (p90(e2e), "virtual_s"),
            "slo_met_ratio": (slo, "ratio"),
        }
        info = {
            "requests": len(self.walls),
            "request_wall_tail_percentile": round(tail_pct, 2),
            "request_wall_tail_beyond": beyond,
            "failed_ratio": self.failed / self.attempted,
            "sessions": self.attempted,
        }
        return metrics, info


# ------------------------------------------------------------ traced ledger
LAYERS = (
    "uts", "schooner", "network", "tess", "solvers", "core", "avs",
    "serve", "opcache", "shards", "traffic", "bench",
)
STEP_KINDS = ("setup", "point", "transient", "finalize")


class Ledger:
    """Per-layer sums over the traced requests of one run; every count
    and time is reported per traced request."""

    def __init__(self):
        self.requests = 0
        self.points = 0
        self.sessions = 0
        self.traced_walls = []
        self.overheads = []
        self.root_wall = 0.0
        self.seam_calls = defaultdict(int)
        self.span_calls = defaultdict(int)
        self.sums = defaultdict(float)
        self.wall_self = defaultdict(float)
        self.layer_wall = defaultdict(float)
        self.layer_virt = defaultdict(float)
        self.session_walls = []
        self.waits = []
        self.shed = 0
        self.retries = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.op = defaultdict(int)
        self.shard_points = defaultdict(int)
        self.crashes = 0
        self.first_spans = None

    def fold(self, t, wall, untraced_wall, report, results):
        """One traced request; ``untraced_wall`` is the wall of the same
        input served untraced just before it (None if that one raised)."""
        spans = t.spans
        wall_self, virt_self = tr.self_times(spans)
        first_step = {}
        for s, w, v in zip(spans, wall_self, virt_self):
            name = s[tr.NAME]
            self.span_calls[name] += 1
            self.wall_self[name] += w
            layer = tr.layer_of(name)
            self.layer_wall[layer] += w
            self.layer_virt[layer] += v
            if s[tr.PARENT] < 0:
                self.root_wall += s[tr.W1] - s[tr.W0]
            session = s[tr.SESSION]
            if name.startswith("serve.step.") and session is not None:
                first_step.setdefault(session, s[tr.W0])
                if name == "serve.step.finalize":
                    self.session_walls.append(s[tr.W1] - first_step[session])
        for where, n in t.calls.items():
            self.seam_calls[where] += n
        for name, x in t.sums.items():
            self.sums[name] += x
        self.requests += 1
        self.traced_walls.append(wall)
        if untraced_wall:
            self.overheads.append(wall / untraced_wall)
        self.points += report.points
        self.sessions += len(results)
        self.waits.extend(r.wait_s for r in results)
        self.shed += sum(1 for r in results if r.shed)
        self.retries += sum(1 for r in results if "#r" in r.name)
        self.cache_hits += report.cache_hits
        self.cache_lookups += report.cache_hits + report.cache_misses
        self.op["exact"] += report.op_exact
        self.op["near"] += report.op_near
        self.op["miss"] += report.op_miss
        for row in report.shard_rows or ():
            self.shard_points[row["shard"]] += row["points"]
            self.crashes += row["crashes"]
        if self.first_spans is None:
            self.first_spans = spans

    def frames(self):
        return sum(n for w, n in self.seam_calls.items() if w.endswith("_frame"))

    def metrics(self):
        n = self.requests

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}

        def calls(name):
            m[name + ".calls"] = (self.span_calls[name] / n, "count")

        def self_s(name, metric=None):
            m[(metric or name + ".self_s")] = (self.wall_self[name] / n, "s")

        def total(name, key, unit):
            m[name] = (self.sums[key] / n, unit)

        for name in ("uts.encode", "uts.conform_lookup", "uts.import_check", "uts.spec_parse"):
            calls(name)
            self_s(name)
        self_s("uts.decode")
        total("uts.modelled_cpu_s", "uts.modelled_cpu_s", "virtual_s")
        calls("schooner.rpc")
        self_s("schooner.rpc")
        m["schooner.rpc_per_point"] = (ratio(self.span_calls["schooner.rpc"], self.points), "count")
        calls("schooner.batch_wait")
        self_s("schooner.batch_wait")
        m["schooner.overlap_ratio"] = (
            ratio(self.sums["schooner.overlapped"], self.sums["schooner.traces"]), "ratio"
        )
        total("schooner.rpc_failed", "schooner.rpc_failed", "count")
        for name in ("network.send", "network.clock_advance"):
            calls(name)
            self_s(name)
        total("network.bytes", "network.bytes", "B")
        total("network.modelled_s", "network.modelled_s", "virtual_s")
        calls("tess.balance")
        self_s("tess.compute")
        total("tess.modelled_compute_s", "tess.modelled_compute_s", "virtual_s")
        calls("solvers.newton")
        self_s("solvers.newton")
        m["solvers.fevals_per_point"] = (ratio(self.sums["solvers.fevals"], self.points), "count")
        calls("solvers.fd_jacobian")
        self_s("solvers.integrate")
        for name in ("core.build_network", "core.host_setup", "avs.order"):
            self_s(name)
        calls("avs.connect")
        self_s("avs.connect")
        for kind in STEP_KINDS:
            calls(f"serve.step.{kind}")
            self_s(f"serve.step.{kind}")
        self_s("serve.admission")
        walls_ms = [w * 1e3 for w in self.session_walls] or [0.0]
        m["serve.session_wall_p50_ms"] = (statistics.median(walls_ms), "ms")
        m["serve.session_wall_tail_ms"] = (tail(walls_ms)[0], "ms")
        m["serve.queue_wait_modelled_p90_s"] = (p90(self.waits), "virtual_s")
        m["serve.shed_ratio"] = (ratio(self.shed, self.sessions), "ratio")
        m["serve.retry_ratio"] = (ratio(self.retries, self.sessions), "ratio")
        m["serve.workload_cache.hit_ratio"] = (
            ratio(self.cache_hits, self.cache_lookups), "ratio"
        )
        for name in ("opcache.lookup", "opcache.store"):
            calls(name)
            self_s(name)
        lookups = sum(self.op.values())
        for kind in ("exact", "near", "miss"):
            m[f"opcache.{kind}_ratio"] = (ratio(self.op[kind], lookups), "ratio")
        calls("shards.send")
        self_s("shards.send")
        self_s("shards.recv", "shards.recv.wait_s")
        m["shards.frames"] = (self.frames() / n, "count")
        total("shards.frame_bytes", "shards.frame_bytes", "B")
        self_s("shards.codec")
        busy = 1.0 - ratio(self.wall_self["shards.recv"], self.root_wall)
        m["shards.parent_busy_ratio"] = (busy if self.shard_points else 0.0, "ratio")
        per_shard = list(self.shard_points.values())
        m["shards.worker_imbalance"] = (
            ratio(max(per_shard), min(per_shard)) if per_shard else 0.0, "ratio"
        )
        m["shards.crashes"] = (float(self.crashes), "count")
        self_s("traffic.build_stream")
        self_s("traffic.settle")
        for layer in LAYERS:
            m[f"layer.{layer}.wall_s"] = (self.layer_wall[layer] / n, "s")
            m[f"layer.{layer}.virtual_s"] = (self.layer_virt[layer] / n, "virtual_s")
        layer_sum = sum(self.layer_wall.values())
        m["trace.request_wall_ms"] = (statistics.median(self.traced_walls) * 1e3, "ms")
        m["trace.layer_sum_error"] = (ratio(abs(layer_sum - self.root_wall), self.root_wall), "ratio")
        m["trace_overhead_ratio"] = (statistics.median(self.overheads or [0.0]), "ratio")
        return m


# --------------------------------------------------------------------- run
def write_trace(path, workload, seed, ledger, seams):
    """The first traced request's spans, plus every seam's call count."""
    spans = [
        {
            "name": s[tr.NAME], "parent": s[tr.PARENT], "session": s[tr.SESSION],
            "wall": [s[tr.W0], s[tr.W1]], "virtual": [s[tr.V0], s[tr.V1]],
        }
        for s in ledger.first_spans or ()
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(
            {"workload": workload, "seed": seed, "seams": seams, "spans": spans},
            f, separators=(",", ":"),
        )


def measure(wl, args, setup_s):
    outcome = Outcome()
    ledger = Ledger() if args.trace else None
    tracer = tr.Tracer()
    seams = tr.SeamSet(tracer, tr.SEAMS)
    # with tracing, every input is served untraced and then traced
    repeat = 2 if ledger is not None else 1
    t_first = time.perf_counter()
    i = 0
    untraced_wall = None
    while True:
        k, traced = divmod(i, repeat)
        if traced:
            tracer.reset()
            seams.install()
            root = tracer.open("bench.request")
        t0 = time.perf_counter()
        try:
            report, results, tr_report = wl.request(k)
        except Exception as exc:  # a failed request is counted, not fatal
            wall = time.perf_counter() - t0
            outcome.errors.append(f"request {i}: {type(exc).__name__}: {exc}")
            outcome.add_failed(wall, wl.sessions(k))
            report = None
        else:
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.close(root)
                seams.uninstall()
        if report is not None:
            bad = wl.check(k, results, tr_report)
            if bad:
                outcome.errors.append(f"request {i}: {bad} sessions differ from the reference")
            outcome.add(wall, report, results, tr_report, bad, k < wl.pass_len)
            if traced:
                ledger.fold(tracer, wall, untraced_wall, report, results)
        if not traced:
            untraced_wall = None if report is None else wall
        i += 1
        # stop only on a whole pass, so every input counts equally
        if i % (wl.pass_len * repeat) == 0 and time.perf_counter() - t_first >= args.seconds:
            break
    if ledger is not None and not ledger.requests:
        raise SystemExit("no traced request completed")
    metrics, info = outcome.end_to_end(setup_s)
    info["passes"] = i // (wl.pass_len * repeat)
    if ledger is not None:
        metrics = ledger.metrics()
        info["traced_requests"] = ledger.requests
        info["seams"] = {
            s.where: (ledger.seam_calls.get(s.where, 0) if seams.status.get(s.where) == "ok"
                      else "missing")
            for s in tr.SEAMS
        }
        path = os.path.join(".perfbench", f"trace-{wl.name}-seed{args.seed}.json")
        write_trace(path, wl.name, args.seed, ledger, info["seams"])
        info["trace_file"] = path
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors[:10],
        "setup_s": setup_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed)
    try:
        wl.setup()
        setup_s = time.perf_counter() - T_START
        if args.role == "setup":
            result = {"setup_s": setup_s}
        else:
            result = measure(wl, args, setup_s)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
