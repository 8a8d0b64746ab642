"""Compare two benchmark result files, workload by workload and metric by metric.

    python3 bench/compare.py OLD.json NEW.json

A result file is a run record written by run.py or an aggregate written by
suite.py.  For every workload x metric present in both, prints each side's
median and quartiles, the change of the medians, and a verdict:

* worse: the median got worse by more than the metric's bound in
  BENCHMARK.json; for a metric without a bound, by more than the old
  quartile spread with the quartile ranges apart;
* better: the median improved by more than the old quartile spread and the
  quartile ranges do not overlap (needs two samples or more on each side);
* unresolved: anything else.

No combined score is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.pycache_prefix = str(HERE.parent / ".bench_work" / "pycache")
sys.path.insert(0, str(HERE))

from stats import load_benchmark, spread  # noqa: E402


def verdict(old: dict, new: dict, better: str, bound: float | None) -> str:
    lower = better == "lower"
    diff = old["median"] - new["median"] if lower else new["median"] - old["median"]
    base = abs(old["median"])
    gain = diff / base if base else diff  # > 0 is an improvement
    if bound is not None and gain < -bound:
        return "worse"
    if min(old["n"], new["n"]) < 2:
        return "unresolved"
    noise = spread(old)
    if lower:
        apart_better, apart_worse = new["q3"] < old["q1"], new["q1"] > old["q3"]
    else:
        apart_better, apart_worse = new["q1"] > old["q3"], new["q3"] < old["q1"]
    if gain > noise and apart_better:
        return "better"
    if bound is None and -gain > noise and apart_worse:
        return "worse"
    return "unresolved"


def compare(old: dict, new: dict, bench: dict) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lines = []
    for workload, old_w in old["workloads"].items():
        new_w = new["workloads"].get(workload)
        if new_w is None:
            continue
        for name, o in old_w["metrics"].items():
            n = new_w["metrics"].get(name)
            if n is None:
                continue
            delta = n["median"] - o["median"]
            rel = f"{100 * delta / abs(o['median']):+.1f}%" if o["median"] else "n/a"
            lines.append(
                f"{workload:15} {name:38} "
                f"{o['median']:.6g} [{o['q1']:.6g}, {o['q3']:.6g}] n={o['n']}  ->  "
                f"{n['median']:.6g} [{n['q1']:.6g}, {n['q3']:.6g}] n={n['n']}  "
                f"{delta:+.6g} {o['unit']} ({rel})  "
                f"{verdict(o, n, o['better'], bounds.get(name))}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (args.old, args.new))
    for side, res in (("old", old), ("new", new)):
        env = res["environment"]
        print(f"{side}: commit {env['commit']} dirty {env['dirty']} python {env['python']} "
              f"cpu {env['cpu_model']} nproc {env['nproc']}")
    print("\n".join(compare(old, new, load_benchmark(HERE.parent))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
