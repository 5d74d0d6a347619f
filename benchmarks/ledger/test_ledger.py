"""Self-tests of the perf ledger harness (collected by the root pytest).

They check the harness, not the program: input streams are a pure
function of the seed, the tail-percentile rule keeps ten samples beyond
what it reports, and a ``--smoke`` run drives all five workloads through
the real entry points (including a 2-shard × 2-replica cluster), emits
every metric BENCHMARK.json names, fails no op and leaves no child.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from ledgerlib import inputs, spans, stats  # noqa: E402


def _streams(seed: int) -> list[str]:
    fixture = inputs.make_fixture(seed, inputs.SMOKE)
    serve = inputs.serve_stream(seed, fixture, 200, inputs.SMOKE.repeat_window)
    best = inputs.best_match_stream(seed, fixture, 50)
    ranges = inputs.range_stream(seed, fixture, inputs.SMOKE)
    return [
        fixture.digest,
        inputs.stream_digest(inputs.encode_lines(serve)),
        inputs.stream_digest(inputs.encode_lines(best)),
        inputs.stream_digest(inputs.encode_lines(ranges["within"])),
    ]


def test_streams_are_a_pure_function_of_the_seed():
    assert _streams(5) == _streams(5)
    assert all(a != b for a, b in zip(_streams(5), _streams(6), strict=True))


def test_cluster_stream_is_a_prefix_of_the_serve_stream():
    fixture = inputs.make_fixture(3, inputs.SMOKE)
    long = inputs.serve_stream(3, fixture, 120, inputs.SMOKE.repeat_window)
    short = inputs.serve_stream(3, fixture, 40, inputs.SMOKE.repeat_window)
    assert long[:40] == short


def test_serve_stream_mix_and_repeats():
    fixture = inputs.make_fixture(3, inputs.FULL)
    stream = inputs.serve_stream(3, fixture, 1500, inputs.FULL.repeat_window)
    ops = [request["op"] for request in stream]
    singles = [r for r in stream if r["op"] == "query" and "values" in r]
    assert 0.85 < len(singles) / len(stream) < 0.95
    assert {"within", "seasonal", "recommend"} <= set(ops)
    bodies = [json.dumps({k: v for k, v in r.items() if k != "id"}) for r in singles]
    repeats = len(bodies) - len(set(bodies))
    assert 0.25 < repeats / len(bodies) < 0.40
    assert len(set(bodies)) > 800  # distinct keys on the way past the 1024 LRU
    assert max(len(line) for line in inputs.encode_lines(stream)) < 48 * 1024


@pytest.mark.parametrize(
    ("n_samples", "expected"),
    [(1000, 95.0), (200, 95.0), (120, 100.0 * 110 / 120), (20, 50.0), (19, 100.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n_samples, expected):
    pct = stats.tail_percentile(n_samples)
    assert pct == pytest.approx(expected)
    values = list(range(n_samples))
    value, used = stats.tail(values)
    assert used == pct
    if n_samples >= 20:
        assert sum(v > value for v in values) >= 10


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 3.0, 8.0, 0, 0],  # overlaps a: covered 1..8 = 7, not 4 + 5
        ["c", 3.5, 4.0, 2, 0],
    ]
    assert tracer.self_times() == pytest.approx([3.0, 4.0, 4.5, 0.5])
    summary = tracer.summary()
    assert summary["coverage"] == pytest.approx(0.7)  # 3 of 10 s is glue
    assert sum(summary["self_s"].values()) == pytest.approx(9.0)  # a ∥ b


_ORPHAN_SCRIPT = """
import subprocess, sys, time
from ledgerlib import procs

procs.adopt_orphans()
# A child that starts a grandchild in a session of its own and exits at
# once: the grandchild is an orphan no started group knows about.
orphaner = (
    "import subprocess, sys; subprocess.Popen([sys.executable, '-c', "
    "'import time; time.sleep(60)'], start_new_session=True)"
)
subprocess.run([sys.executable, "-c", orphaner], check=True)
deadline = time.monotonic() + 5
while not procs._children() and time.monotonic() < deadline:
    time.sleep(0.01)
adopted = procs._children()
assert adopted, "the orphan was not handed to the subreaper"
assert procs.reap_descendants() == []
assert procs._children() == []
print("reaped", len(adopted))
"""


def test_orphans_are_adopted_and_reaped():
    completed = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        capture_output=True,
        text=True,
        timeout=30,
        check=False,
        env={**os.environ, "PYTHONPATH": HERE},
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert completed.stdout.strip() == "reaped 1"


def test_smoke_run_emits_every_metric_and_leaves_no_child(tmp_path):
    out = tmp_path / "ledger.json"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(out, encoding="utf-8") as handle:
        ledger = json.load(handle)
    assert sorted(ledger["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for name, entry in ledger["workloads"].items():
        assert entry["correct"], (name, entry["checks"])
        assert entry["failed_share"] == 0
        assert entry["checks"]["no_child_left"]
        for declared in spec["end_to_end"]:
            metric = entry["end_to_end"][declared["name"]]
            assert metric["unit"] == declared["unit"]
            assert metric["value"] > 0
    # One traced run reports the whole per-layer table, whatever the workload.
    traced = ledger["workloads"]["cluster_mix"]
    assert traced["correct_traced"], traced["checks_traced"]
    for declared in spec["per_layer"]:
        assert traced["per_layer"][declared["name"]]["unit"] == declared["unit"]
    # Nothing of ours is still running or lying around.
    survivors = subprocess.run(
        ["pgrep", "-f", "repro.serve.cluster.worker|repro.cli serve"],
        capture_output=True,
        text=True,
        check=False,
    ).stdout.split()
    assert not survivors
    results = os.path.join(HERE, "results")
    assert not [n for n in os.listdir(results) if n.startswith(("tmp-", "detail-"))]
