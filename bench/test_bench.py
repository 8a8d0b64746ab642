"""Tests of the benchmark itself: tracer, computed counts, checks, statistics.

    python3 -m pytest -q bench/test_bench.py

Runs small traced commands in-process (a few seconds in all); the full
workloads are only run by run.py.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Keep the bytecode of the benchmark and of src/ out of the source tree.
sys.pycache_prefix = str(ROOT / ".bench_work" / "pycache")
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from stats import load_benchmark, summary  # noqa: E402
from workloads import POWER4_DIGEST, WORKLOADS, Output, Workload, code_digest  # noqa: E402

SMALL = Workload(
    "small",
    lambda seed: [["family", "steane", "--out", "steane.json"]],
    lambda seed: [
        ["analyze", "steane.json", "--exact-up-to", "3", "--trials", "5", "--seed", str(seed)],
        ["sweep", "steane", "--ell-max", "2", "--weight-cap", "2", "--trials", "3"],
        ["verify", "fast", "--seed", str(seed)],
    ],
    lambda outs, work: [],
    lambda outs, work: None,
)


def traced(tmp_path: Path, seed: int = 5, wl: Workload = SMALL, name: str = "w") -> dict:
    work = tmp_path / name
    work.mkdir()
    return run.traced_run(wl, seed, work, ROOT / "src")


def test_wrappers_keep_names_and_are_removed():
    from spans import Tracer

    pkg, _ = run.import_checkout(ROOT / "src")
    verify, css, gf2 = pkg.verify, pkg.css, pkg.gf2
    original = gf2.rank
    tracer = Tracer()
    tracer.install(pkg)
    try:
        assert gf2.rank is not original
        assert gf2.rank.__name__ == "rank" and gf2.rank.__wrapped__ is original
        assert verify.gf2_properties.__name__ == "gf2_properties"
        assert css.gf2 is gf2  # modules are shared, not copied
    finally:
        tracer.uninstall()
    assert gf2.rank is original


def test_counts_repeat_exactly(tmp_path):
    a, b = traced(tmp_path, 7, name="a"), traced(tmp_path, 7, name="b")
    _, calls_a, _, _ = a["tracer"].self_times()
    _, calls_b, _, _ = b["tracer"].self_times()
    assert calls_a == calls_b
    assert a["tracer"].elim_cells == b["tracer"].elim_cells > 0
    assert a["nodes"] == b["nodes"] > 0
    assert a["tracer"].random_trials == b["tracer"].random_trials > 0
    assert [o.stdout for o in a["outs"]] == [o.stdout for o in b["outs"]]


def test_nodes_formula_on_steane(tmp_path):
    # Steane: K = 7 - 3 = 4 kernel rows per side; d = 3 certifies weights
    # 1..2, i.e. C(4,1) + C(4,2) = 10 nodes per side.
    one = Workload("one", SMALL.setup,
                   lambda seed: [["analyze", "steane.json", "--exact-up-to", "3", "--trials", "5"]],
                   SMALL.check, SMALL.distances)
    res = traced(tmp_path, 1, one)
    assert res["nodes"] == 2 * (math.comb(4, 1) + math.comb(4, 2))


def test_self_times_account_for_the_run(tmp_path):
    res = traced(tmp_path)
    self_s, calls, _, root_s = res["tracer"].self_times()
    in_process = res["phases"]["setup"] + res["phases"]["timed"]
    assert sum(self_s.values()) == pytest.approx(root_s)
    assert sum(self_s.values()) == pytest.approx(in_process, rel=0.05)
    assert calls["cli.main"] == res["starts"] == 4
    assert all(v >= -1e-9 for v in self_s.values())


def test_layer_metrics_follow_benchmark_json(tmp_path):
    res = traced(tmp_path)
    bench = load_benchmark(ROOT)
    names = [m["name"] for m in bench["per_layer"]]
    metrics = run.layer_metrics(SMALL, res, 0.1, 1.0, tmp_path, names)
    assert list(metrics) == names
    assert metrics["gf2.self_s"] >= metrics["gf2.rank.self_s"] > 0
    assert metrics["tensorops.sweep.stage_l3_s"] == 0.0  # not the sweep-l3 workload
    with pytest.raises(ValueError):
        run.layer_metrics(SMALL, res, 0.1, 1.0, tmp_path, ["gf2.no_such_fn.calls"])
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_speed_probe_rescales_intervals():
    from speed import PROBE_REF_S, SpeedProbe

    before = os.sched_getaffinity(0)
    with SpeedProbe() as probe:
        assert os.sched_getaffinity(0) == {probe.cpu}
        t0 = time.perf_counter()
        time.sleep(0.3)
        t1 = time.perf_counter()
    assert os.sched_getaffinity(0) == before
    inside = [d for t, d in probe.samples if t0 <= t <= t1]
    assert len(inside) >= 3
    assert probe.seconds(t0, t1) == pytest.approx(
        (t1 - t0) * PROBE_REF_S / statistics.mean(inside))
    assert probe.seconds(t0, t0 + 1e-6) > 0  # no sample inside: the nearest one


def out(stdout: str, argv=("x",), rc: int = 0) -> Output:
    return Output(list(argv), rc, stdout, "", 0.0, 1.0)


def test_square_check_rejects_uncertified_distance(tmp_path):
    exact = {"lower": 9, "upper": 9, "exact": True}
    stab = {"lower": 5, "upper": 5, "exact": True}
    rep = {"n": 67, "k": 1, "d_x": exact, "d_z": exact, "min_stabilizer_weight_x": stab,
           "min_stabilizer_weight_z": stab, "degenerate": True}
    check = WORKLOADS["square-certify"].check
    assert check([out(json.dumps(rep))], tmp_path) == []
    rep["d_z"] = {"lower": 8, "upper": 9, "exact": False}  # as after a deadline
    assert check([out(json.dumps(rep))], tmp_path)
    assert check([out("", rc=1)], tmp_path)


def test_sweep_check_bounds(tmp_path):
    header = "ell,n,k,dx_lo,dx_hi,dx_exact,dz_lo,dz_hi,dz_exact,wmax_x,wmax_z,stab_min,degenerate,seconds"
    rows = ["1,7,1,3,3,true,3,3,true,4,4,4,false,", "2,67,1,4,9,false,4,9,false,7,7,5,unknown,",
            "3,721,1,5,27,false,5,27,false,10,10,6,unknown,"]
    text = "\n".join([header, *rows]) + "\n"
    (tmp_path / "sweep.csv").write_text(text.replace("false,\n", "false,0.1\n"))
    wl = WORKLOADS["sweep-l3"]
    assert wl.check([out(text)], tmp_path) == []
    assert wl.distances([out(text)], tmp_path) == (5, 27)
    tightened = text.replace("2,67,1,4,9", "2,67,1,9,9")  # a sharper bound still passes
    (tmp_path / "sweep.csv").write_text(tightened)
    assert wl.check([out(tightened)], tmp_path) == []
    unsound = text.replace("2,67,1,4,9", "2,67,1,10,12")
    assert wl.check([out(unsound)], tmp_path)


def test_power4_check_uses_digest(tmp_path):
    obj = {"n": 1, "h_x": {"rows": 0, "cols": 1, "support": []},
           "h_z": {"rows": 0, "cols": 1, "support": []}}
    (tmp_path / "p4.json").write_text(json.dumps(obj))
    assert code_digest(obj) != POWER4_DIGEST
    bad = WORKLOADS["power4-build"].check(
        [out("predicted_n=8179 actual_n=8179 k=1\n")], tmp_path)
    assert len(bad) == 1 and "digest" in bad[0]


def test_summary_and_verdicts():
    s = summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["n"], s["median"], s["q1"], s["q3"]) == (5, 3.0, 1.5, 4.5)
    assert "p_hi" not in s
    s = summary([float(v) for v in range(20)])
    assert s["p_hi"] == {"percentile": 50.0, "value": 9.0}
    old = summary([10.0, 10.1, 10.2, 9.9, 10.0])
    assert compare.verdict(old, summary([8.0, 8.1, 7.9]), "lower", 0.1) == "better"
    assert compare.verdict(old, summary([12.0, 12.1, 11.9]), "lower", 0.1) == "worse"
    assert compare.verdict(old, summary([10.5, 9.5, 10.0]), "lower", 0.1) == "unresolved"
    assert compare.verdict(old, summary([12.0, 12.1, 11.9]), "higher", None) == "better"


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-l3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
