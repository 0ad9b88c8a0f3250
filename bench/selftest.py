#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the root of a checkout:

    python3 bench/selftest.py

It checks that BENCHMARK.json keeps to its schema, that a tiny run of every
workload (``cli`` included) reports every end-to-end metric (``--trace 0``)
and every per-layer metric (``--trace 1``) with the unit BENCHMARK.json
gives it and no failed operation, that one seed always generates the same inputs and another seed
different ones, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        gen = workloads.WORKLOADS[name]().generate
        assert gen(random.Random(3)) == gen(random.Random(3)), f"{name}: seed 3 is not reproducible"
        assert gen(random.Random(3)) != gen(random.Random(4)), f"{name}: seeds 3 and 4 agree"
        digests = set()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(name, 3, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            digests.add(re.search(r"inputs_sha256=(\w+)", proc.stdout).group(1))
            res = json.loads(lines[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            assert "fail_ratio" in proc.stdout
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{name} trace={trace}: {set(got) ^ set(want)}"
            assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
        assert len(digests) == 1, f"{name}: the two runs of seed 3 saw different inputs"
        print(f"ok {name}")

    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(spec["workloads"][0]["name"], 1, 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without the sources")


if __name__ == "__main__":
    main()
