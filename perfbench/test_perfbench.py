"""Tests of the benchmark itself.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer as tr  # noqa: E402
import workload as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def span(name, parent, w0, w1, v0=None, v1=None):
    return [name, parent, None, w0, w1, v0, v1]


class TestSelfTimes:
    def test_nested_tree(self):
        spans = [
            span("bench.request", -1, 0.0, 10.0),
            span("serve.step.point", 0, 1.0, 6.0, 0.0, 4.0),
            span("uts.encode", 1, 2.0, 3.0, 1.0, 2.0),
            span("network.clock_advance", 1, 4.0, 5.0, 2.0, 2.5),
            span("serve.admission", 0, 7.0, 9.0),
        ]
        wall, virt = tr.self_times(spans)
        assert wall == [3.0, 3.0, 1.0, 1.0, 2.0]
        assert sum(wall) == spans[0][tr.W1] - spans[0][tr.W0]
        # the clock advance's 0.5 virtual s stays with the step
        assert virt == [0.0, 3.0, 1.0, 0.0, 0.0]
        assert sum(virt) == 4.0

    def test_layer_of(self):
        assert tr.layer_of("serve.step.point") == "serve"
        assert tr.layer_of("bench") == "bench"


class TestSeams:
    def test_missing_seams_are_listed_not_fatal(self):
        from repro.network.transport import Transport

        original = Transport.send
        seams = tr.SeamSet(tr.Tracer(), [
            tr.Seam("x.gone", "repro.serve", "NoSuchClass.method"),
            tr.Seam("x.gone", "repro_no_such_module", "f"),
            tr.Seam("network.send", "repro.network.transport", "Transport.send"),
        ])
        seams.install()
        try:
            assert Transport.send is not original
        finally:
            seams.uninstall()
        assert Transport.send is original
        assert seams.status == {
            "repro.serve.NoSuchClass.method": "missing",
            "repro_no_such_module.f": "missing",
            "repro.network.transport.Transport.send": "ok",
        }

    def test_classmethod_seam_restores_descriptor(self):
        from repro.uts.spec import SpecFile

        raw = vars(SpecFile)["parse"]
        t = tr.Tracer()
        seams = tr.SeamSet(t, [tr.Seam("uts.spec_parse", "repro.uts.spec", "SpecFile.parse")])
        seams.install()
        try:
            SpecFile.parse("")
        finally:
            seams.uninstall()
        assert vars(SpecFile)["parse"] is raw
        assert t.calls["repro.uts.spec.SpecFile.parse"] == 1
        assert [s[tr.NAME] for s in t.spans] == ["uts.spec_parse"]


class TestSeededInputs:
    def test_study_specs(self):
        assert wl.study_specs(5) == wl.study_specs(5)
        assert wl.study_specs(5) != wl.study_specs(6)
        specs = wl.study_specs(5)
        assert len(specs) == 16 and all(len(s.points) == 3 for s in specs)
        assert all(wl.WF_LO <= s.points[0] <= wl.WF_HI for s in specs)
        assert all(not s.op_cache for s in specs)

    def test_streams(self):
        assert wl.stream_seeds(1) == wl.stream_seeds(1)
        assert not set(wl.stream_seeds(1)) & set(wl.stream_seeds(2))
        a, b = wl.stream_seeds(1)[0], wl.stream_seeds(2)[0]
        assert wl.build_stream(a) == wl.build_stream(a)
        assert wl.build_stream(a) != wl.build_stream(b)
        stream = wl.build_stream(a)
        assert stream.sessions == wl.STREAM_ARRIVALS
        assert all(x.spec.op_cache for x in stream.arrivals)


class FakeWorkload:
    """Three inputs per pass; request k serves input k % 3 and records it."""

    name = "fake"
    pass_len = 3

    def __init__(self, fail=()):
        self.served = []
        self.fail = set(fail)

    def request(self, k):
        self.served.append(k)
        if len(self.served) in self.fail:
            raise RuntimeError("boom")
        results = [
            SimpleNamespace(name=f"s{k}-{j}", virtual_s=1.0 + k, end_to_end_s=1.0 + k,
                            wait_s=0.0, shed=False, error=None)
            for j in range(2)
        ]
        report = SimpleNamespace(points=2, cache_hits=0, cache_misses=0, op_exact=0,
                                 op_near=0, op_miss=0, shard_rows=None)
        return report, results, None

    def sessions(self, k):
        return 2

    def check(self, k, results, tr_report):
        return 0


class TestClosedLoop:
    def run(self, fake, trace):
        args = SimpleNamespace(trace=trace, seconds=0.0, seed=1)
        return wl.measure(fake, args, setup_s=1.0)

    def test_untraced_loop_ends_on_a_whole_pass(self):
        fake = FakeWorkload()
        result = self.run(fake, 0)
        assert fake.served == [0, 1, 2]
        assert result["attempted"] == 6 and result["correct"]
        # the modelled metrics cover the first pass: (1 + 2 + 3) * 2 / 6 points
        assert result["metrics"]["modelled_s_per_point"]["value"] == 2.0

    def test_traced_loop_serves_each_input_untraced_then_traced(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        fake = FakeWorkload()
        result = self.run(fake, 1)
        assert fake.served == [0, 0, 1, 1, 2, 2]
        assert result["metrics"]["trace_overhead_ratio"]["value"] > 0

    def test_a_raising_request_fails_all_its_sessions(self):
        result = self.run(FakeWorkload(fail={2}), 0)
        assert result["attempted"] == 6 and result["failed"] == 2
        assert not result["correct"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["trace.layer_sum_error"]["value"] < 1e-6
        assert result["metrics"]["shards.crashes"]["value"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "cold-inline", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
