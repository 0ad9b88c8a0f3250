#!/usr/bin/env python3
"""hnnkit benchmark: end-to-end and per-layer metrics for four workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload tree-scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 5      # every workload, one table
    python3 bench/run.py --record-golden                  # re-record bench/cli_golden.json

Each workload runs in a fresh worker process: one operation at a time (a
closed loop with one client), from a single thread.  The worker generates
its inputs from ``--seed`` before timing starts and checks every output
against an independent reference outside the timed intervals.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` makes a
separate traced run and reports the per-layer ones.  End-to-end times are
given in reference-host time (see ``REF_KERNEL_S``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("tree-scan", "word-algebra", "certificates", "cli")
# set-up is sampled in this many fresh processes; setup_s is their median
SETUP_SAMPLES = 11
PROBE_SAMPLES = 5
# Times are scaled to a reference host: one on which ref_kernel() takes
# REF_KERNEL_S.  A shared host's speed changes within a second and over
# minutes, by up to a factor of two, and it moves the library and the kernel
# alike, so a wall time times REF_KERNEL_S over the kernel's mean time
# sampled around it is steady across runs.  The kernel touches no state of
# the library, so a change to the library moves the scaled times as it moves
# the wall times.  Changing the kernel or REF_KERNEL_S rescales every scaled
# time.
REF_KERNEL_S = 0.001
# an operation is scaled by the samples taken before it and before the
# NEAR_OPS operations on each side of it
NEAR_OPS = 2
# a set-up is scaled by this many samples taken right after it
SETUP_KERNEL_SAMPLES = 100


def ref_kernel():
    """A fixed millisecond of the interpreter work the library does: dict
    lookups on small tuple keys and integer arithmetic."""
    table = {}
    acc = 0
    for i in range(3000):
        key = (i & 63, i % 7)
        acc += table.get(key, i) * 3 % 1009
        table[key] = acc & 1023
    return acc


def ref_sample() -> float:
    """Seconds one ref_kernel() call takes, with the cyclic collector off so
    that the library's heap does not weigh on it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        ref_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_slowness(samples) -> float:
    """How much slower than the reference host this host ran, from kernel
    samples taken across the interval measured."""
    return statistics.fmean(samples) / REF_KERNEL_S


def _scale(latencies, refs):
    """Each latency in reference-host time, by the kernel samples near it."""
    return [s / host_slowness(refs[max(0, i - NEAR_OPS): i + NEAR_OPS + 1])
            for i, s in enumerate(latencies)]


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --- worker side -------------------------------------------------------------


def _import_workloads():
    sys.path.insert(0, str(SRC))
    import hnnkit
    import workloads

    if Path(hnnkit.__file__).resolve().parent != SRC / "hnnkit":
        raise RuntimeError(f"imported hnnkit from {hnnkit.__file__}, not from {SRC}")
    return workloads


def _setup(name, seed):
    workloads = _import_workloads()
    wl = workloads.WORKLOADS[name]()
    items = wl.generate(random.Random(seed))
    digest = hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()
    facts = wl.prepare()
    return wl, items, digest, facts


def _run_ops(wl, items, seconds=None):
    """Closed loop over ``items``, cycled until ``seconds`` have passed (one
    pass when ``seconds`` is None).  Returns the latency of every operation,
    the number of failed operations and one ref_kernel() sample taken before
    each operation.  The first output of each input is checked against the
    reference, later ones against the first; both outside the timed
    intervals."""
    clock = time.perf_counter
    latencies = []
    refs = []
    first = {}
    failed = 0
    deadline = None if seconds is None else clock() + seconds
    i = 0
    while (i < len(items)) if deadline is None else (i == 0 or clock() < deadline):
        idx = i % len(items)
        i += 1
        refs.append(ref_sample())
        t0 = clock()
        try:
            out = wl.run(items[idx])
        except Exception:
            latencies.append(clock() - t0)
            traceback.print_exc()
            failed += 1
            continue
        latencies.append(clock() - t0)
        summary = hash(wl.canon(out))
        if idx not in first:
            try:
                ok = wl.check(items[idx], out)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"check failed for input {idx}: {items[idx]!r:.200}", file=sys.stderr)
            first[idx] = (ok, summary)
        ok, expected = first[idx]
        failed += not ok or summary != expected
        del out
    return latencies, failed, refs


def _latency_metrics(latencies):
    """Rate and percentiles over every timed operation.  The rate divides
    the operations by the time spent in them, so the checks made between
    operations do not count."""
    ms = [s * 1000 for s in latencies]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1000),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90,
    }


def _peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _child_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _worker_measure(args):
    wl, items, digest, _ = _setup(args.workload, args.seed)
    print("ready", flush=True)
    setup_slowness = host_slowness([ref_sample() for _ in range(SETUP_KERNEL_SAMPLES)])
    if args.worker == "setup":
        return {"setup_slowness": setup_slowness}
    latencies, failed, refs = _run_ops(wl, items, args.seconds)
    metrics = _latency_metrics(_scale(latencies, refs))
    metrics["peak_rss_mib"] = _peak_rss_mib(children=args.workload == "cli")
    attempted = len(latencies)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "passes": attempted / len(items), "setup_slowness": setup_slowness,
            "slowness": host_slowness(refs), "wall": _latency_metrics(latencies),
            "digest": digest, "items": len(items)}


def _import_ms(stderr: str, package: str) -> float:
    """Cumulative import time of the top-level ``-X importtime`` entries of a
    package, in milliseconds."""
    total = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit() and not parts[2].startswith("  "):
            name = parts[2].strip()
            if name == package or name.startswith(package + "."):
                total += int(parts[1])
    return total / 1000


def _cli_layer_metrics(workloads):
    """L4 over the CLI mix: child CPU of one pass, the lazy sympy import of
    the --matrix ICC calls (from ``-X importtime``), the interpreter floor
    and the hnnkit import."""
    cpu0 = _child_cpu_s()
    for args in workloads.CLI_MIX:
        workloads.run_cli(args)
    child_cpu = _child_cpu_s() - cpu0
    sympy_ms = [_import_ms(workloads.run_cli(args, ("-X", "importtime")).stderr.decode(), "sympy")
                for args in workloads.CLI_MIX if "--matrix" in args and args[-1] == "icc"]
    floor, imports = [], []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        floor.append((time.perf_counter() - t0) * 1000)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hnnkit.cli"],
                              capture_output=True, env=workloads.cli_env(), check=True)
        imports.append(_import_ms(proc.stderr.decode(), "hnnkit"))
    return {
        "cli.interpreter_ms": statistics.median(floor),
        "cli.import_ms": statistics.median(imports),
        "cli.sympy_import_ms": statistics.median(sympy_ms),
        "cli.child_cpu_s": child_cpu,
    }


def _worker_trace(args):
    wl, items, digest, facts = _setup(args.workload, args.seed)
    import hnnkit.cli
    import tracing
    import workloads

    sub = items[: wl.trace_items]
    metrics = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.sympy_import_ms": 0.0,
               "cli.child_cpu_s": 0.0, "tree.ball.vertices": 0, "tree.ball.build_s": 0.0,
               "tree.ball.cache_mib": 0.0, "tree.min_displacement_bfs.vertices_scanned": 0}
    metrics.update(facts)
    if args.workload in ("certificates", "cli"):
        metrics.update(_cli_layer_metrics(workloads))
    untraced, failed, _ = _run_ops(wl, sub)
    traced_op = wl.run
    if args.workload == "cli":
        # the subprocesses are traced by -X importtime; L0-L3 come from
        # replaying the mix in-process
        importtime = []
        for argv in sub:
            t0 = time.perf_counter()
            workloads.run_cli(argv, ("-X", "importtime"))
            importtime.append(time.perf_counter() - t0)
        metrics["trace.overhead_ratio"] = sum(untraced) / sum(importtime)

        def traced_op(argv):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                return hnnkit.cli.main(argv)

    tracer = tracing.Tracer()
    tracer.install_oracles()
    try:
        wl.prepare()
        if args.workload == "cli":
            traced_op(["--matrix", "0,-1;1,1", "icc"])  # lazy sympy import
        tracer.reset()
        tracer.install_spans()
        outs, traced = [], []
        for item in sub:
            t0 = time.perf_counter()
            outs.append(traced_op(item))
            traced.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    metrics.update(tracing.layer_metrics(tracer))
    if args.workload != "cli":
        metrics["trace.overhead_ratio"] = sum(untraced) / sum(traced)
    if args.workload == "tree-scan":
        metrics["tree.min_displacement_bfs.vertices_scanned"] = wl.vertices_scanned(outs)
    return {"attempted": len(untraced), "failed": failed, "metrics": metrics,
            "digest": digest, "items": len(items)}


def _worker_ball_mem(args):
    """Bytes the tree-scan ball cache holds, measured with tracemalloc in a
    process of its own."""
    import tracemalloc

    workloads = _import_workloads()
    wl = workloads.TreeScan()
    tracemalloc.start()
    wl.prepare()
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return {"tree.ball.cache_mib": held / 2**20}


def worker(args):
    if args.worker in ("setup", "measure"):
        result = _worker_measure(args)
    elif args.worker == "trace":
        result = _worker_trace(args)
    else:
        result = _worker_ball_mem(args)
    print(json.dumps(result), flush=True)
    return 0


# --- coordinator side --------------------------------------------------------


class WorkerError(RuntimeError):
    pass


def _spawn(mode, args, ready_timed=False):
    """Run one worker process; returns (result, seconds from spawn to its
    'ready' line)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--worker", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = None
        if ready_timed:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            if line.strip() != "ready":
                proc.kill()
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    if code != 0 or not lines:
        raise WorkerError(f"{mode} worker for {args.workload} exited with status {code}")
    return json.loads(lines[-1]), ready


def measure(args):
    """One benchmark run of one workload; returns the result object."""
    e2e_units, layer_units = _spec()
    if args.trace:
        res, _ = _spawn("trace", args)
        if args.workload == "tree-scan":
            mem, _ = _spawn("ball-mem", args)
            res["metrics"].update(mem)
        units = layer_units
    else:
        res, first_setup = _spawn("measure", args, ready_timed=True)
        setups = [(first_setup, res["setup_slowness"])]
        for _ in range(SETUP_SAMPLES - 1):
            sres, seconds = _spawn("setup", args, ready_timed=True)
            setups.append((seconds, sres["setup_slowness"]))
        res["metrics"]["setup_s"] = statistics.median(t / k for t, k in setups)
        res["wall"]["setup_s"] = statistics.median(t for t, _ in setups)
        units = e2e_units
    missing = set(units) - set(res["metrics"])
    if missing:
        raise WorkerError(f"worker did not report {sorted(missing)}")
    res["metrics"] = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}
    return res


def report(args, res):
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"items={res['items']} inputs_sha256={res['digest']}")
    for name, m in res["metrics"].items():
        note = ""
        if name.startswith("latency_") or name == "ops_per_s":
            note = f"  (over {attempted} operations, {res['passes']:.1f} passes of {res['items']} inputs)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} set-ups)"
        print(f"  {name:<46} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<46} {failed / attempted:.6g} ({failed} of {attempted})")
    if "wall" in res:
        print(f"  host slowness {res['slowness']:.4g} (mean ref_kernel time over "
              f"{REF_KERNEL_S * 1000:g} ms); wall-clock figures: "
              + ", ".join(f"{k} {v:.6g}" for k, v in res["wall"].items()))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": res["metrics"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="re-record the CLI golden outputs from the code in src/")
    p.add_argument("--worker", choices=("setup", "measure", "trace", "ball-mem"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "hnnkit" / "__init__.py").is_file():
        print(f"error: no hnnkit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    if args.record_golden:
        _import_workloads().record_golden()
        return 0
    try:
        if args.workload != "all":
            print(json.dumps(report(args, measure(args))))
            return 0
        results = {}
        for name in WORKLOADS:
            args.workload = name
            results[name] = report(args, measure(args))
        print(json.dumps({"workloads": results}))
        return 0
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
