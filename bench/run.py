"""csstensor benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload square-certify --seed 101 --seconds 30 --trace 0

Runs the ``csstensor`` CLI of this checkout (its ``src/``, never an
installed copy) as child processes, one at a time from this single parent
(closed loop, one client).  A repetition runs the set-up commands that
write the workload's inputs, then the timed unit; it runs once, and again
while another is expected to end within ``--seconds``, and every
repetition's outputs are checked.  Times are rescaled to a reference CPU
speed (see speed.py).  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
in-process run of the same commands (see spans.py).  Metric names, units
and bounds come from BENCHMARK.json at the checkout root.  A run record
with the raw samples and the environment is written under
``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_work"
# Bytecode of the benchmark, the library and the standard library is cached
# here, so that interpreter starts are warm after the first and neither bench/
# nor src/ gets a __pycache__.  Set before the benchmark's own imports.
PYCACHE = SCRATCH / "pycache"
sys.pycache_prefix = str(PYCACHE)
sys.dont_write_bytecode = False
sys.path.insert(0, str(HERE))

from spans import LAYERS, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from stats import environment, load_benchmark, summary  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, Output, Workload, sweep_stage_seconds,
)

SETUPS_PER_REPETITION = 3
IMPORT_REPEATS = 5
# Far below workloads.TIME_BUDGET, so no search deadline fires in a run that ends.
CHILD_TIMEOUT = 150.0
COMPUTED = ("gf2.elim_cells", "css.search.nodes_computed", "css.search.nodes_per_s")
STAGE = re.compile(r"tensorops\.sweep\.stage_l(\d+)_s")
IMPORT_PROBE = "import sys, csstensor.cli as c; sys.stdout.write(c.__file__)"


class SetupFailed(RuntimeError):
    pass


class Runner:
    """Starts the CLI of one checkout in child processes."""

    def __init__(self, src: Path, work: Path):
        self.src = src
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(PYCACHE))
        for name in ("PYTHONDONTWRITEBYTECODE", "CSSTENSOR_MAX_N"):
            self.env.pop(name, None)

    def _spawn(self, args: list[str], argv: list[str]) -> tuple[Output, float]:
        """Run the interpreter with ``args``; its output as ``argv``'s, and
        its peak RSS in MB."""
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.work, env=self.env, stdout=out, stderr=err
            )
            killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Output(
            argv,
            proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            start,
            end,
        ), usage.ru_maxrss / 1024.0

    def cli(self, argv: list[str]) -> tuple[Output, float]:
        return self._spawn(["-m", "csstensor.cli", *argv], argv)

    def import_probe(self) -> Output:
        """An interpreter start plus ``import csstensor.cli``."""
        out, _ = self._spawn(["-c", IMPORT_PROBE], ["import csstensor.cli"])
        if out.returncode != 0 or not Path(out.stdout).resolve().is_relative_to(self.src.resolve()):
            raise SetupFailed(
                f"csstensor.cli does not import from {self.src}: {out.stdout}{out.stderr}"
            )
        return out


def run_setup(runner: Runner, probe: SpeedProbe, wl: Workload, seed: int) -> float:
    """Set the workload up once; seconds taken at the reference speed."""
    argvs = wl.setup(seed)
    outs = [runner.cli(argv)[0] for argv in argvs] if argvs else [runner.import_probe()]
    for out in outs:
        if out.returncode != 0:
            raise SetupFailed(f"{' '.join(out.argv)}: exit {out.returncode}: {out.stderr}")
    return sum(probe.seconds(o.start, o.end) for o in outs)


def run_timed(runner: Runner, wl: Workload, seed: int, seconds: float) -> dict:
    """Repeat set-up and timed unit, checking each repetition's outputs.

    Every repetition starts with SETUPS_PER_REPETITION set-ups, so the
    set-up samples spread over the run as the timed ones do: on a shared
    machine whose speed changes every few seconds, set-ups run back to back
    would all sample one speed.  The first repetition always runs; another
    starts only while it is expected to end within ``seconds``.  Times are
    taken under a SpeedProbe; the raw wall times are kept too.
    """
    setups, walls, raw_walls, rss, failures, stdouts, took = [], [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while not took or time.perf_counter() - start + statistics.mean(took) <= seconds:
            began = time.perf_counter()
            setups += [run_setup(runner, probe, wl, seed) for _ in range(SETUPS_PER_REPETITION)]
            outs, peak = [], 0.0
            for argv in wl.timed(seed):
                out, child_rss = runner.cli(argv)
                outs.append(out)
                peak = max(peak, child_rss)
            bad = wl.check(outs, runner.work)
            stdout = [o.stdout for o in outs]
            if stdouts and stdout != stdouts[0]:
                bad.append("stdout differs from the first repetition")
            attempted += 1
            if bad:
                failed += 1
                failures += bad
            stdouts.append(stdout)
            walls.append(sum(probe.seconds(o.start, o.end) for o in outs))
            raw_walls.append(sum(o.wall_s for o in outs))
            rss.append(peak)
            took.append(time.perf_counter() - began)
    return {"setups": setups, "walls": walls, "raw_walls": raw_walls, "rss": rss,
            "attempted": attempted, "failed": failed, "failures": failures,
            "stdout": stdouts[0]}


def import_checkout(src: Path):
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("csstensor")
    cli = importlib.import_module("csstensor.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupFailed(f"csstensor imported from {pkg.__file__}, not {src}")
    return pkg, cli


def traced_run(wl: Workload, seed: int, work: Path, src: Path) -> dict:
    """Run set-up and timed commands in-process under the span recorder."""
    pkg, cli = import_checkout(src)
    tracer = Tracer()
    tracer.install(pkg)
    phases = {"setup": 0.0, "timed": 0.0}
    outs: list[Output] = []
    starts = 0
    prev = os.getcwd()
    os.chdir(work)
    try:
        for phase, argvs in (("setup", wl.setup(seed)), ("timed", wl.timed(seed))):
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        rc = cli.main(list(argv))
                    except SystemExit as exc:
                        rc = exc.code if isinstance(exc.code, int) else 2
                t1 = time.perf_counter()
                phases[phase] += t1 - t0
                starts += 1
                if phase == "timed":
                    outs.append(Output(argv, rc, out.getvalue(), err.getvalue(), t0, t1))
    finally:
        os.chdir(prev)
        tracer.uninstall()
    rank = importlib.import_module("csstensor.gf2").rank
    return {"tracer": tracer, "outs": outs, "phases": phases, "starts": starts,
            "timed_starts": len(outs), "nodes": tracer.search_nodes(rank)}


def layer_metrics(wl: Workload, traced: dict, import_s: float, raw_wall_median: float,
                  work: Path, names: list[str]) -> dict[str, float]:
    """The per-layer metrics ``names`` of a traced run.

    A name ``layer.fn.self_s``, ``.calls`` or ``.total_s`` is looked up in the
    tracer's tables, ``layer.self_s`` sums the layer's functions, and the
    other names are derived below.
    """
    tracer = traced["tracer"]
    self_s, calls, total_s, _ = tracer.self_times()
    tables = {"self_s": self_s, "calls": calls, "total_s": total_s}
    nodes, trials = traced["nodes"], tracer.random_trials
    exact_s = self_s["css.min_distance_exact"]
    timed_wall = traced["phases"]["timed"] + traced["timed_starts"] * import_s
    dist_lo, dist_hi = wl.distances(traced["outs"], work) or (0, 0)
    derived = {
        "cli.import_s": import_s,
        "gf2.elim_cells": tracer.elim_cells,
        "css.search.nodes_computed": nodes,
        "css.search.nodes_per_s": nodes / exact_s if exact_s else 0.0,
        "css.random_upper.trials": trials,
        "css.random_upper.trial_s":
            self_s["css.min_distance_random_upper"] / trials if trials else 0.0,
        "trace.spans": len(tracer.span_name),
        "trace.self_sum_s": sum(self_s.values()),
        "trace.wall_s": sum(traced["phases"].values()) + traced["starts"] * import_s,
        "trace_overhead_frac": timed_wall / raw_wall_median - 1.0,
        "wall_raw_s": raw_wall_median,
        "dist_lo": dist_lo,
        "dist_hi": dist_hi,
    }
    stages = sweep_stage_seconds(work) if wl.name == "sweep-l3" else []
    m: dict[str, float] = {}
    for name in names:
        prefix, _, kind = name.rpartition(".")
        stage = STAGE.fullmatch(name)
        if name in derived:
            m[name] = derived[name]
        elif stage:
            ell = int(stage.group(1))
            m[name] = stages[ell - 1] if ell <= len(stages) else 0.0
        elif kind == "self_s" and prefix in LAYERS:
            m[name] = sum(v for k, v in self_s.items() if k.startswith(prefix + "."))
        elif prefix in tables.get(kind, {}):
            m[name] = tables[kind][prefix]
        else:
            raise ValueError(f"BENCHMARK.json names an unknown per-layer metric: {name}")
    return m


def measure(wl: Workload, args: argparse.Namespace, bench: dict, work: Path,
            src: Path, spans_path: Path) -> dict:
    """Run one workload; returns the run's counts and per-metric summaries."""
    runner = Runner(src, work)
    timed = run_timed(runner, wl, args.seed, args.seconds)
    attempted, failed, failures = timed["attempted"], timed["failed"], list(timed["failures"])
    raw_wall_median = statistics.median(timed["raw_walls"])
    if not args.trace:
        samples = {"wall_s": timed["walls"], "setup_s": timed["setups"],
                   "peak_rss_mb": timed["rss"]}
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        wanted = bench["end_to_end"]
    else:
        imports = [runner.import_probe().wall_s for _ in range(IMPORT_REPEATS)]
        traced = traced_run(wl, args.seed, work, src)
        bad = wl.check(traced["outs"], work)
        if [o.stdout for o in traced["outs"]] != timed["stdout"]:
            bad.append("traced stdout differs from the untraced run")
        wanted = bench["per_layer"]
        metrics = layer_metrics(wl, traced, statistics.median(imports), raw_wall_median,
                                work, [spec["name"] for spec in wanted])
        attempted += 1
        if bad:
            failed += 1
            failures += bad
        samples = {"cli.import_s": imports, "wall_raw_s": timed["raw_walls"]}
        traced["tracer"].write(spans_path)
    summaries = {}
    for spec in wanted:
        name = spec["name"]
        s = summary(samples.get(name, [metrics[name]]))
        s.update(unit=spec["unit"], better=spec["better"],
                 kind="computed" if name in COMPUTED else "measured")
        summaries[name] = s
    return {"attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
            "failures": failures, "raw_wall_s": timed["raw_walls"], "metrics": summaries}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "csstensor" / "cli.py").is_file():
        print(f"error: no csstensor sources under {src}", file=sys.stderr)
        return 2
    bench = load_benchmark(ROOT)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    wl = WORKLOADS[args.workload]
    records = SCRATCH / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = records / f"{wl.name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    env = environment(ROOT)
    work = SCRATCH / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = measure(wl, args, bench, work, src, record_path.with_suffix(".spans"))
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    metrics = run.pop("metrics")
    run = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "correct": run["failed"] == 0, **run}
    record_path.write_text(json.dumps({
        "environment": env,
        "runs": [run],
        "workloads": {wl.name: {"seeds": [args.seed], "metrics": metrics}},
    }, indent=1) + "\n", encoding="utf-8")

    for failure in run["failures"]:
        print(f"FAIL {failure}")
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{run['attempted']} attempted, {run['failed']} failed, "
          f"fail_frac {run['fail_frac']:.3f} ratio")
    for name, s in metrics.items():
        label = " (computed)" if s["kind"] == "computed" else ""
        tail = f" p{s['p_hi']['percentile']:.0f}={s['p_hi']['value']:.6g}" if "p_hi" in s else ""
        print(f"{name} {s['median']:.6g} {s['unit']}{label}  n={s['n']} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g}{tail}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
