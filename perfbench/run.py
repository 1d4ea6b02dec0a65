"""Benchmark of the pendulon CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload pde_kink --seed 1 --seconds 35 --trace 0

Workloads (perfbench/workloads.py), each in one process with ``--jobs 1``
and BLAS threads pinned to 1:

- pde_kink: ``simulate-pde`` with every coupling on, n = 801, 300 RK4 steps.
  Nearly all time is ``_stencils.derivative`` under ``continuum.pde_rhs`` on
  one repeated grid, so a per-grid operator cache helps here.
- lattice_kink: ``simulate-lattice``, 2000 sites, 1000 RK4 steps and a
  ~21 MB trajectory CSV. Time goes to ``chain.discrete_forces`` and the CSV
  writer; no stencils, no Newton.
- tw_newton: ``solve-tw`` at n = 2001 and 4001, ``verify-expansion``,
  ``speed-select --stiff``, ``build-perturbative`` and
  ``verify-lagrangian``. Time goes to Newton assembly, ``splu`` and the
  perturbation layer; the grid changes between operations, so a per-grid
  cache misses. ``solve-tw`` at n = 8001 and 16001 is run once after the
  timed passes, as a probe of the fine-grid stall.

A run sets up (a fresh interpreter imports ``pendulon.cli`` and dry-runs
every config, several times, median reported as ``setup_s``), then repeats
passes over the workload's operations, in-process through
``pendulon.cli.main``, until ``--seconds`` have elapsed. Every operation's
output is checked (workloads.py); an operation fails if it exits non-zero or
misses its check, and the run goes on. The SHA-256 of every artifact is
recorded as information.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
wrap pendulon's module-level functions (perfbench/tracer.py) and give the
per-layer metrics, and the tracing overhead is traced minus untraced pass
time.

Human-readable tables go to stdout, the full record of the run to
``.perfbench_out/``; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Its end-to-end
metrics are the medians of pass_s and setup_s, peak_rss_mb and ok_ratio
(1 - fail_ratio); with ``--trace 1`` they are the per-layer metrics of
metrics.LAYER.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import COMMANDS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from pendulon import cli
for argv in json.loads(sys.argv[2]):
    if cli.main(argv) != 0:
        sys.exit(3)
"""


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken set-up)."""


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _read(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def machine_facts():
    import numpy
    import scipy
    cpu = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{idx}/level"), _read(f"{idx}/type")
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[label] = _read(f"{idx}/size")
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "caches": caches,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _argv(op, cfg, out_dir=None):
    argv = [op.command, "--config", cfg, "--jobs", "1", *op.flags]
    return argv + (["--out", out_dir] if out_dir else ["--dry-run"])


def measure_setup(root, ops, cfgs):
    """Wall time of a fresh interpreter importing pendulon.cli and
    dry-running every config of the workload."""
    argvs = json.dumps([_argv(op, cfg) for op, cfg in zip(ops, cfgs)])
    cmd = [sys.executable, "-c", SETUP_CODE, os.path.join(root, "src"), argvs]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed ({proc.returncode}): "
                             f"{proc.stderr.strip()}")
    return samples


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def run_op(cli, op, cfg, out_dir):
    """One CLI call, timed; then its check and artifact hashes, untimed."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main(_argv(op, cfg, out_dir))
    except Exception as exc:  # a crash is one failed operation, not the run
        rc, err = None, io.StringIO(f"raised {exc!r}")
    seconds = time.perf_counter() - t0
    rec = {"op": op.name, "command": op.command, "seconds": seconds,
           "rc": rc, "failures": [], "sha256": {}}
    if rc != 0:
        rec["failures"].append(f"exit code {rc}: {err.getvalue().strip()}")
    else:
        try:
            with open(os.path.join(out_dir, "summary.json")) as f:
                summary = json.load(f)
            for name in summary["outputs"] + ["summary.json"]:
                rec["sha256"][name] = _sha256(os.path.join(out_dir, name))
            rec["failures"] = op.check(summary["results"], out_dir)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            rec["failures"].append(f"unreadable output: {exc!r}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def run_pass(cli, ops, cfgs, work):
    recs = [run_op(cli, op, cfg, os.path.join(work, "out"))
            for op, cfg in zip(ops, cfgs)]
    return {"seconds": sum(r["seconds"] for r in recs), "ops": recs}


def tally(passes):
    """Operations attempted, operations failed, and one message per miss
    naming the operation and the quantity."""
    recs = [r for p in passes for r in p["ops"]]
    failures = [f"{r['op']}: {msg}" for r in recs for msg in r["failures"]]
    return len(recs), sum(1 for r in recs if r["failures"]), failures


def write_configs(ops, work):
    paths = []
    for i, op in enumerate(ops):
        path = os.path.join(work, f"{i:02d}-{op.command}.ini")
        with open(path, "w") as f:
            f.write(op.ini)
        paths.append(path)
    return paths


def end_to_end(passes, setup, attempted, failed):
    """Name -> (unit, samples) of the end-to-end table: setup, pass and
    per-command times, fail ratio and peak memory."""
    rows = {"setup_s": ("s", setup),
            "pass_s": ("s", [p["seconds"] for p in passes])}
    for cmd in COMMANDS:
        if any(op["command"] == cmd for op in passes[0]["ops"]):
            rows[f"cmd_s.{cmd}"] = ("s", [
                sum(op["seconds"] for op in p["ops"] if op["command"] == cmd)
                for p in passes])
    rows["fail_ratio"] = ("ratio", [failed / attempted])
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rows["peak_rss_mb"] = ("MB", [rss_kib / 1024.0])
    return rows


def print_table(title, rows, notes=None):
    print(title)
    print(f"  {'metric':52s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>3s}")
    for name, (unit, values) in rows.items():
        q1, med, q3 = _quartiles(values)
        note = f"  {notes[name]}" if notes and name in notes else ""
        print(f"  {name:52s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(values):3d}{note}")


def _hash_report(passes):
    """First pass's artifact hashes, and whether later passes match them."""
    first = {r["op"]: r["sha256"] for r in passes[0]["ops"]}
    same = all({r["op"]: r["sha256"] for r in p["ops"]} == first
               for p in passes[1:])
    return first, same


def run(workload, seed, seconds, trace, root):
    if not os.path.isfile(os.path.join(root, "src", "pendulon", "cli.py")):
        raise BenchError(f"no pendulon source tree under {root}/src; "
                         "run from the repository root")
    build_ops, build_probe = WORKLOADS[workload]
    ops = build_ops(seed)
    probe = build_probe(seed) if build_probe else []
    out_root = os.path.join(root, ".perfbench_out")
    work = os.path.join(out_root, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, root, ops, probe,
                    out_root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, root, ops, probe, out_root, work):
    cfgs = write_configs(ops, work)
    setup = measure_setup(root, ops, cfgs)

    sys.path.insert(0, os.path.join(root, "src"))
    from pendulon import cli

    facts = machine_facts()
    tracer = tracing.Tracer(metrics.COUNTERS) if trace else None
    untraced, traced, layer_rows = [], [], []
    # Passes run while the next one, as long as the last, still ends within
    # the time; with tracing, untraced and traced passes alternate, one of
    # each at least.
    t_start = last_end = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            first = len(tracer.spans)
            with tracer:
                traced.append(run_pass(cli, ops, cfgs, work))
            layer_rows.append(tracing.summarize(tracer.spans, first))
        else:
            untraced.append(run_pass(cli, ops, cfgs, work))
        now = time.perf_counter()
        out_of_time = 2 * now - last_end - t_start > seconds
        last_end = now
        if out_of_time and (traced or not trace):
            break

    probe_recs = [run_op(cli, op, cfg, os.path.join(work, "out"))
                  for op, cfg in zip(probe, write_configs(probe, work))]
    passes = untraced + traced
    attempted, failed, failures = tally(passes)
    hashes, hashes_repeat = _hash_report(passes)

    print(f"pendulon benchmark: workload={workload} seed={seed} "
          f"seconds={seconds} trace={trace}")
    print("machine: " + "; ".join(f"{k}={v}" for k, v in facts.items()))
    print("operations per pass: " + ", ".join(op.name for op in ops))
    rows = end_to_end(untraced, setup, attempted, failed)
    print_table("end-to-end (untraced passes; fail_ratio and peak_rss_mb "
                "are one value per run):", rows,
                {"fail_ratio": f"{failed} failed / {attempted} attempted",
                 "peak_rss_mb": "benchmark process"})
    print("failures: " + ("; ".join(failures) if failures else "none"))
    print("artifact sha256 (first pass; information, not a gate; "
          f"identical in every pass: {hashes_repeat}):")
    for op_name, files in hashes.items():
        for name, digest in files.items():
            print(f"  {op_name} {name} {digest}")
    stalls = sum(1 for r in probe_recs if r["rc"] != 0)
    for r in probe_recs:
        outcome = "; ".join(r["failures"]) or "ok"
        print(f"fine-grid probe (outside the passes): {r['op']} "
              f"{r['seconds']:.3f} s: {outcome}")

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": facts, "setup_s": setup,
              "untraced_passes": untraced, "traced_passes": traced,
              "probe": probe_recs, "failures": failures,
              "end_to_end": {k: {"unit": u, "values": v}
                             for k, (u, v) in rows.items()}}
    if trace:
        layer, counts_repeat = _layer_report(untraced, traced, layer_rows,
                                             stalls)
        record["per_layer"] = layer
        record["call_counts_repeat"] = counts_repeat
        _write_spans(tracer.spans, os.path.join(
            out_root, f"{workload}-seed{seed}-spans.json"))
        out_metrics = {name: {"value": statistics.median(layer[name]),
                              "unit": unit}
                       for name, unit, *_ in metrics.LAYER}
    else:
        values = {name: statistics.median(rows[name][1])
                  for name in ("pass_s", "setup_s", "peak_rss_mb")}
        values["ok_ratio"] = (attempted - failed) / attempted
        out_metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _b in metrics.END_TO_END}
    with open(os.path.join(out_root, f"{workload}-seed{seed}-trace{trace}"
                                     ".json"), "w") as f:
        json.dump(record, f, indent=1)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": out_metrics}


def _layer_report(untraced, traced, layer_rows, stalls):
    """Per-layer metric values of every traced pass; prints the table."""
    overhead = (statistics.median(p["seconds"] for p in traced)
                - statistics.median(p["seconds"] for p in untraced))
    per_pass = [metrics.layer_metrics(rows, {"overhead_s": overhead,
                                             "fine_grid_stalls": stalls})
                for rows in layer_rows]
    counts = [{k: v for k, v in m.items() if k.endswith(".calls")}
              for m in per_pass]
    counts_repeat = all(c == counts[0] for c in counts)
    layer = {name: [m[name] for m in per_pass] for name, *_ in metrics.LAYER}
    print_table(f"per-layer ({len(traced)} traced passes; call counts "
                f"repeat in every traced pass: {counts_repeat}):",
                {name: (unit, layer[name])
                 for name, unit, *_ in metrics.LAYER},
                {name: f"moves {moves}"
                 for name, *_, moves in metrics.LAYER})
    print(f"note: {metrics.ROOFLINE_NOTE}")
    return layer, counts_repeat


def _write_spans(spans, path):
    names = sorted({s[tracing.NAME] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[s[tracing.NAME]], s[tracing.PARENT], s[tracing.START],
             s[tracing.END], int(s[tracing.RAISED]), s[tracing.COUNTS]]
            for s in spans]
    with open(path, "w") as f:
        json.dump({"fields": ["name", "parent", "start_ns", "end_ns",
                              "raised", "counts"],
                   "names": names, "spans": rows}, f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     os.getcwd())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
