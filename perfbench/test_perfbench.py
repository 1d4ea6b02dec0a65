"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import GENERIC_CHAIN, EXPANSION, Op, solve_tw_op  # noqa: E402

from pendulon import cli  # noqa: E402


def _no_check(results, out_dir):
    return []


SMALL_OPS = [
    Op("simulate-pde", "simulate-pde",
       GENERIC_CHAIN + "\n[domain]\nx_min = -10\nx_max = 10\nn_points = 101\n"
       "\n[pde]\nk = 0.7\nv = 0.3\n"
       "\n[integration]\ndt = 0.01\nt_end = 0.1\nsnapshot_every = 5\n",
       _no_check),
    solve_tw_op(1201),
    Op("verify-lagrangian", "verify-lagrangian",
       EXPANSION + "\n[lagrangian]\nn_samples = 2\nseed = 3\n", _no_check),
]


def _traced_pass(tmp_path, ops):
    cfgs = run.write_configs(ops, str(tmp_path))
    tr = tracing.Tracer(metrics.COUNTERS)
    with tr:
        result = run.run_pass(cli, ops, cfgs, str(tmp_path))
    return tr.spans, result


def test_call_counts_repeat_across_traced_runs(tmp_path):
    counts = []
    for _ in range(2):
        spans, result = _traced_pass(tmp_path, SMALL_OPS)
        assert all(not r["failures"] for r in result["ops"])
        rows = tracing.summarize(spans)
        counts.append({name: (row["calls"], row.get("nnz"),
                              row.get("computed_flops"))
                       for name, row in rows.items()})
    assert counts[0] == counts[1]
    # the kernels the per-layer metrics name are really reached
    for name in ("_stencils.derivative", "_stencils.fd_weights",
                 "continuum.pde_rhs", "travelwave.lu_factor", "cli.main",
                 "config.load_config"):
        assert counts[0][name][0] > 0, name


def test_child_spans_stay_inside_their_parent(tmp_path):
    spans, _ = _traced_pass(tmp_path, SMALL_OPS)
    assert len(spans) > 100
    child_ns = {}
    for name, parent, start, end, raised, counts in spans:
        assert end >= start
        if parent >= 0:
            p = spans[parent]
            assert p[tracing.START] <= start and end <= p[tracing.END]
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    for i, span in enumerate(spans):
        assert child_ns.get(i, 0) <= span[tracing.END] - span[tracing.START]
    for row in tracing.summarize(spans).values():
        assert 0.0 <= row["self_s"] <= row["s"] + 1e-12


def test_tracer_restores_every_binding():
    from pendulon import continuum, travelwave
    before = (continuum.derivative, travelwave.splu, cli.main)
    with tracing.Tracer():
        assert continuum.derivative is not before[0]
        assert travelwave.splu is not before[1]
    assert (continuum.derivative, travelwave.splu, cli.main) == before


def test_known_bad_operation_is_a_failure_and_the_pass_goes_on(tmp_path):
    ops = [solve_tw_op(301, v=40.0), solve_tw_op(1201)]
    spans, result = _traced_pass(tmp_path, ops)
    bad, good = result["ops"]
    assert bad["rc"] == 2
    assert "numerical failure" in bad["failures"][0]
    assert good["rc"] == 0 and good["failures"] == []
    attempted, failed, failures = run.tally([result, result])
    assert (attempted, failed) == (4, 2)
    assert failures[0].startswith("solve-tw@n=301: exit code 2")
    rows = tracing.summarize(spans)
    layer = metrics.layer_metrics(rows, {"overhead_s": 0.0,
                                         "fine_grid_stalls": 0})
    assert layer["travelwave.solve_tw_bvp.calls"] == 2
    assert layer["travelwave.solve_tw_bvp.converged"] == 1


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in metrics.LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_source_tree(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "pde_kink", "--seed", "0", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no pendulon source tree" in proc.stderr
