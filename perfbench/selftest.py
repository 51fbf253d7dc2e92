"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Not collected by the repository's test suite (the file name does not
match ``test_*.py``): the closure tests run every workload once, traced,
which takes about two minutes and, for train-step-default, 5 GB.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

NETWORK_WORKLOADS = ("separate-1.4s", "train-step-default", "train-small")


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_self_times_partition_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [["root", 0.0, 10.0, None, 0, None], ["a", 1.0, 4.0, 0, 0, None],
             ["b", 2.0, 3.0, 1, 0, None], ["c", 5.0, 9.0, 0, 0, None]]
    selfs = tracing.self_times(spans)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert sum(selfs) == 10.0


def test_closure_leaves_out_cli_glue():
    # a CLI call that spends 9 of its 10 s outside any traced layer
    tracer = tracing.Tracer()
    tracer.spans = [["cli.main", 0.0, 10.0, None, 0, None],
                    ["dsp.stft", 1.0, 2.0, 0, 0, None]]
    tracer.peak_alloc = {0: 0}
    metrics = tracing.layer_metrics(tracer, [10.0], [10.0])
    assert metrics["trace.closure"] == pytest.approx(0.1)
    assert metrics["cli.main.self_s"] == pytest.approx(9.0)


def test_benchmark_json_names_what_the_runs_report():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER_UNITS
    assert {m["name"] for m in bench["end_to_end"]} == {"op_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_trace_closure(workload):
    """Self times sum to the traced end-to-end time within 5%.

    ``cli.main``'s own self time is left out of the sum, so a layer inside
    the CLI that goes untraced makes the closure fail.
    """
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    assert abs(metrics["trace.closure"] - 1.0) <= 0.05
    if workload in NETWORK_WORKLOADS:
        # the per-scope forward times account for the network's forward time
        assert abs(metrics["network.scope_coverage"] - 1.0) <= 0.05
        assert metrics["tensor.conv2d.calls"] > 0
    else:
        assert metrics["tensor.conv2d.calls"] == 0
        assert metrics["baseline.median_hpss_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "classical", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
