"""Run the benchmark over ten seeds and aggregate the runs into one file.

    python3 bench/suite.py --trace 0 --out .bench_work/base.json

Runs ``bench/run.py`` once per workload of BENCHMARK.json x seed, the
seeds being run.py's default seed and the nine after it, one run at a
time, and writes a result file in the run-record format whose per-metric
samples are the per-run values.  Prints, for every end-to-end metric, the
spread of the runs (quartile distance over median) next to the metric's
bound.  Pass the file to compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.pycache_prefix = str(ROOT / ".bench_work" / "pycache")
sys.path.insert(0, str(HERE))

from stats import load_benchmark, spread, summary  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

SEEDS = range(DEFAULT_SEED, DEFAULT_SEED + 10)


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark(ROOT)
    parser = argparse.ArgumentParser(description="Aggregate benchmark runs over seeds.")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = args.out or ROOT / ".bench_work" / f"suite-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"

    records, runs = [], []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            lines = proc.stdout.splitlines()
            rec_lines = [ln for ln in lines if ln.startswith("record ")]
            if proc.returncode != 0 or not rec_lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            rec = json.loads((ROOT / rec_lines[-1].split(" ", 1)[1]).read_text(encoding="utf-8"))
            records.append(rec)
            runs += rec["runs"]
            print(f"{workload} seed {seed}: {took:.1f} s {lines[-1]}", flush=True)

    workloads: dict[str, dict] = {}
    for rec in records:
        for name, w in rec["workloads"].items():
            agg = workloads.setdefault(name, {"seeds": [], "values": {}, "meta": {}})
            agg["seeds"] += w["seeds"]
            for metric, s in w["metrics"].items():
                agg["values"].setdefault(metric, []).append(s["median"])
                agg["meta"][metric] = {k: s[k] for k in ("unit", "better", "kind")}
    result = {
        "environment": {**records[0]["environment"],
                        "loadavg_1m_end": records[-1]["environment"]["loadavg_1m_end"]},
        "runs": runs,
        "workloads": {
            name: {"seeds": agg["seeds"],
                   "metrics": {m: {**summary(v), **agg["meta"][m]} for m, v in agg["values"].items()}}
            for name, agg in workloads.items()
        },
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, w in result["workloads"].items():
        for metric, s in w["metrics"].items():
            if metric in bounds:
                sp = spread(s)
                flag = "ok" if sp < bounds[metric] / 3 else ("within bound" if sp <= bounds[metric] else "TOO WIDE")
                print(f"{name:15} {metric:12} median {s['median']:.4g} spread {sp:.3f} "
                      f"bound {bounds[metric]} {flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"{len(runs)} runs, {failed} failed attempts; wrote {os.path.relpath(out, ROOT)}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
