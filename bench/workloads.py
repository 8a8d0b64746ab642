"""The four benchmark workloads: their CLI commands and output checks.

Each workload is a list of set-up commands that write its inputs and a
timed unit of one or more commands, all given as ``csstensor`` argument
lists run in a scratch directory.  The checks are bound-sound: they hold
for every correct program, so a change that legitimately tightens a bound
still passes, while a wrong number, a changed block ordering or a search
that stopped at its deadline fails the run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Far above the need of every search and above run.py's child timeout: a
# command still running at the timeout is killed and fails its run, so no
# deadline fires in a run that passes, and every search ends at its cap.
TIME_BUDGET = 3600.0
DEFAULT_SEED = 101

# sha256 of the h_x / h_z supports of the Steane ell = 4 power, as written
# by the library's original block ordering (see code_digest).
POWER4_DIGEST = "d3112672d5a20f82817df0a31848087d54f797cbd9ef286353a7b9916cc63cb9"

SWEEP_WEIGHT_CAP = 2
VERIFY_SEEDS = 10


@dataclass(frozen=True)
class Output:
    """What one CLI command produced, and when it ran (perf_counter seconds)."""

    argv: list[str]
    returncode: int
    stdout: str
    stderr: str
    start: float
    end: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], list[list[str]]]
    timed: Callable[[int], list[list[str]]]
    # (outputs of one timed unit, scratch dir) -> list of failure messages
    check: Callable[[list[Output], Path], list[str]]
    # (outputs of one timed unit, scratch dir) -> certified (lo, hi) or None
    distances: Callable[[list[Output], Path], tuple[int, int] | None]


def code_digest(obj: dict) -> str:
    payload = json.dumps([obj["n"], obj["h_x"], obj["h_z"]], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _status(out: Output) -> list[str]:
    if out.returncode != 0:
        return [f"{' '.join(out.argv)}: exit {out.returncode}: {out.stderr.strip()[-200:]}"]
    return []


# -- square-certify ------------------------------------------------------------


def _square_setup(seed: int) -> list[list[str]]:
    return [
        ["family", "steane", "--out", "steane.json"],
        ["power", "steane.json", "--ell", "2", "--out", "sq.json"],
    ]


def _square_timed(seed: int) -> list[list[str]]:
    return [[
        "analyze", "sq.json", "--exact-up-to", "9", "--trials", "50",
        "--seed", str(seed), "--time-budget", str(TIME_BUDGET),
    ]]


def _square_check(outs: list[Output], work: Path) -> list[str]:
    (out,) = outs
    bad = _status(out)
    if bad:
        return bad
    rep = json.loads(out.stdout)
    if (rep["n"], rep["k"]) != (67, 1):
        bad.append(f"n, k = {rep['n']}, {rep['k']}, expected 67, 1")
    # d = 9 certified on both sides; exact also rules out a fired deadline,
    # which would leave lower below the upper bound.
    for key, want in (("d_x", 9), ("d_z", 9), ("min_stabilizer_weight_x", 5),
                      ("min_stabilizer_weight_z", 5)):
        d = rep[key]
        if not (d["exact"] and d["lower"] == d["upper"] == want):
            bad.append(f"{key} = {d}, expected exact {want}")
    if rep["degenerate"] is not True:
        bad.append(f"degenerate = {rep['degenerate']}, expected true")
    return bad


def _square_distances(outs: list[Output], work: Path) -> tuple[int, int]:
    rep = json.loads(outs[0].stdout)
    return (min(rep["d_x"]["lower"], rep["d_z"]["lower"]),
            min(rep["d_x"]["upper"], rep["d_z"]["upper"]))


# -- power4-build --------------------------------------------------------------


def _power4_setup(seed: int) -> list[list[str]]:
    return [["family", "steane", "--out", "steane.json"]]


def _power4_timed(seed: int) -> list[list[str]]:
    return [["power", "steane.json", "--ell", "4", "--out", "p4.json"]]


def _power4_check(outs: list[Output], work: Path) -> list[str]:
    (out,) = outs
    bad = _status(out)
    if bad:
        return bad
    if out.stdout != "predicted_n=8179 actual_n=8179 k=1\n":
        bad.append(f"stdout {out.stdout!r}")
    path = work / "p4.json"
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        digest = code_digest(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return bad + [f"{path.name} does not load: {exc}"]
    if digest != POWER4_DIGEST:
        bad.append(f"{path.name} block ordering changed: digest {digest}")
    return bad


# -- sweep-l3 --------------------------------------------------------------------


def _sweep_timed(seed: int) -> list[list[str]]:
    return [[
        "sweep", "steane", "--ell-max", "3", "--weight-cap", str(SWEEP_WEIGHT_CAP),
        "--trials", "10", "--seed", str(seed), "--time-budget", str(TIME_BUDGET),
        "--out", "sweep.csv",
    ]]


def parse_sweep_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _sweep_rows(outs: list[Output], work: Path) -> list[dict[str, str]]:
    return parse_sweep_csv(outs[0].stdout)


def _sweep_check(outs: list[Output], work: Path) -> list[str]:
    (out,) = outs
    bad = _status(out)
    if bad:
        return bad
    rows = _sweep_rows(outs, work)
    if [r["n"] for r in rows] != ["7", "67", "721"]:
        return [f"n column {[r['n'] for r in rows]}, expected 7, 67, 721"]
    if [r["k"] for r in rows] != ["1", "1", "1"]:
        bad.append(f"k column {[r['k'] for r in rows]}, expected 1, 1, 1")
    for r in rows:
        for side in ("dx", "dz"):
            lo, hi, exact = int(r[f"{side}_lo"]), int(r[f"{side}_hi"]), r[f"{side}_exact"]
            if lo > hi:
                bad.append(f"ell={r['ell']} {side}: lo {lo} > hi {hi}")
            if r["ell"] == "1" and (lo, hi, exact) != (3, 3, "true"):
                bad.append(f"ell=1 {side} = {lo}..{hi} exact={exact}, expected exact 3")
            if r["ell"] == "2" and not lo <= 9 <= hi:
                bad.append(f"ell=2 {side} = {lo}..{hi} excludes the true distance 9")
    try:
        written = parse_sweep_csv((work / "sweep.csv").read_text(encoding="utf-8"))
    except OSError as exc:
        return bad + [f"sweep.csv not written: {exc}"]
    if [{**r, "seconds": ""} for r in written] != rows:
        bad.append("sweep.csv differs from stdout beyond the seconds column")
    return bad


def _sweep_distances(outs: list[Output], work: Path) -> tuple[int, int]:
    last = _sweep_rows(outs, work)[-1]
    return (min(int(last["dx_lo"]), int(last["dz_lo"])),
            min(int(last["dx_hi"]), int(last["dz_hi"])))


def sweep_stage_seconds(work: Path) -> list[float]:
    rows = parse_sweep_csv((work / "sweep.csv").read_text(encoding="utf-8"))
    return [float(r["seconds"]) for r in rows]


# -- verify-small ------------------------------------------------------------------


def _verify_timed(seed: int) -> list[list[str]]:
    return [["verify", "full", "--seed", str(seed + i)] for i in range(VERIFY_SEEDS)]


def _verify_check(outs: list[Output], work: Path) -> list[str]:
    bad = []
    for out in outs:
        status = _status(out)
        lines = out.stdout.splitlines()
        if status:
            bad += status
        elif not lines or lines[-1] != "pass total: 15 properties" or any(
            not line.startswith("pass ") for line in lines
        ):
            bad.append(f"{' '.join(out.argv)}: {lines[-1] if lines else 'no output'}")
    return bad


def _no_setup(seed: int) -> list[list[str]]:
    return []


def _no_distances(outs: list[Output], work: Path) -> None:
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("square-certify", _square_setup, _square_timed, _square_check, _square_distances),
        Workload("power4-build", _power4_setup, _power4_timed, _power4_check, _no_distances),
        Workload("sweep-l3", _no_setup, _sweep_timed, _sweep_check, _sweep_distances),
        Workload("verify-small", _no_setup, _verify_timed, _verify_check, _no_distances),
    )
}
