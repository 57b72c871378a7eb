"""Compute the reference values that ``qoi_err`` is measured against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the repository root.  Each reference is the workload's quantity
of interest computed more accurately on the same grid:

- scan-1d: ``T_est`` of the A=20 probe, from ``solve`` at amplitude 20 with
  ``dt_max`` (and ``dt0``) halved until ``T_est`` stops moving; and the
  critical amplitude, from the same scan with ``rel_tol`` 0.002.
- tensor2d-p3: ``final_sup`` at t=0.05, with ``dt0 = dt_max`` halved from
  1e-4 until it stops moving.

"Stops moving" is judged on the Richardson extrapolation of successive
halvings, which is also the stored value: backward Euler is first order,
so the raw values approach the limit only as fast as dt shrinks.
- eigen-2d-p3: ``lambda1`` at the tightest eigensolver tolerance that
  converges within the time limit.

Every CLI run made is stored in ``reference.json`` with its config text and
result, so each value carries the command and controls that produced it.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from run import BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out" / "reference"
REFERENCE = HERE / "reference.json"
# relative change between successive extrapolations at which a value
# counts as converged
SETTLED = 5e-4
TIME_LIMIT_S = 300


def _config_text(workload, edits):
    """The workload's config with ``edits`` ({section: {key: value}}) applied."""
    sections, current = {"": {}}, ""
    for line in (HERE / "workloads" / f"{workload}.ini").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            current = line[1:-1]
            sections.setdefault(current, {})
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            sections[current][key] = value
    for section, body in edits.items():
        sections.setdefault(section, {}).update({k: str(v) for k, v in body.items()})
    lines = [f"{k} = {v}" for k, v in sections.pop("").items()]
    for section, body in sections.items():
        lines += ["", f"[{section}]"] + [f"{k} = {v}" for k, v in body.items()]
    return "\n".join(lines) + "\n"


def _run(tag, workload, edits):
    """Run the CLI on the edited config; return (record, summary or None)."""
    text = _config_text(workload, edits)
    command = text.split("=", 1)[1].split("\n", 1)[0].strip()
    run_dir = WORK / tag
    run_dir.mkdir(parents=True, exist_ok=True)
    config = run_dir / "config.ini"
    config.write_text(text)
    argv = [sys.executable, "-m", "degenflow", command, "--config", str(config),
            "--out", str(run_dir / "out")]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIME_LIMIT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = None
    record = {"command": f"degenflow {command} --config <config>", "config": text,
              "exit": code, "seconds": round(time.perf_counter() - start, 1)}
    summary = None
    if code == 0:
        summary = json.loads((run_dir / "out" / "summary.json").read_text())
    print(f"{tag}: exit {code} in {record['seconds']} s", flush=True)
    return record, summary


def _refine(tag, workload, make_edits, pick, steps):
    """Halve the step until the Richardson extrapolation 2 v(dt/2) - v(dt)
    of the picked value (backward Euler is first order) moves by at most
    SETTLED relative; return the last extrapolation and the runs."""
    runs, values, extrapolated = [], [], []
    for k in range(steps):
        record, summary = _run(f"{tag}_{k}", workload, make_edits(k))
        if summary is None:
            break
        record["value"] = pick(summary)
        runs.append(record)
        values.append(record["value"])
        if len(values) >= 2:
            extrapolated.append(2.0 * values[-1] - values[-2])
        print(f"  value {values[-1]!r} extrapolated {extrapolated[-1:]}", flush=True)
        if len(extrapolated) >= 2 and (
            abs(extrapolated[-1] - extrapolated[-2]) <= SETTLED * abs(extrapolated[-1])
        ):
            return extrapolated[-1], runs
    raise SystemExit(f"{tag}: not settled after {len(values)} refinements: {values}")


def scan_1d():
    base_dt_max, base_dt0 = 2e-2, 1e-3

    def edits(k):
        f = 2.0 ** -(k + 1)
        return {"": {"command": "solve"},
                "problem": {"amplitude": 20.0, "dt0": base_dt0 * f},
                "controls": {"dt_max": base_dt_max * f}}

    def t_est(summary):
        if summary["kind"] != "BlowUp":
            raise SystemExit("reference solve of the A=20 probe did not blow up")
        return summary["T_est"]

    value, runs = _refine("scan-1d_T_est", "scan-1d", edits, t_est, 12)
    record, summary = _run("scan-1d_a_crit", "scan-1d", {"scan": {"rel_tol": 0.002}})
    if summary is None:
        raise SystemExit("fine scan failed")
    record["bracket"] = [summary["a_decay"], summary["a_blowup"]]
    return {
        "qoi": "T_est of the A=20 probe",
        "value": value,
        "method": "solve at amplitude 20 with dt0 and dt_max halved; Richardson "
                  f"extrapolation once it moves by at most {SETTLED} relative",
        "runs": runs,
        "a_crit": (summary["a_decay"] * summary["a_blowup"]) ** 0.5,
        "a_crit_method": "geometric midpoint of the blowup-scan bracket at rel_tol 0.002",
        "a_crit_run": record,
    }


def tensor2d_p3():
    # the workload's steps average 1.75e-4, so dt_max binds from 1e-4 down
    def edits(k):
        dt_max = 1e-4 * 2.0 ** -k
        return {"problem": {"dt0": dt_max}, "controls": {"dt_max": dt_max}}

    def final_sup(summary):
        if summary["kind"] != "Completed":
            raise SystemExit("reference tensor2d run did not complete")
        return summary["final_sup"]

    value, runs = _refine("tensor2d-p3_final_sup", "tensor2d-p3", edits, final_sup, 10)
    return {
        "qoi": "final_sup at t_end = 0.05",
        "value": value,
        "method": "dt0 = dt_max halved from 1e-4; Richardson extrapolation once it moves "
                  f"by at most {SETTLED} relative",
        "runs": runs,
    }


def eigen_2d_p3():
    runs, best = [], None
    for tol in ("1e-5", "1e-6", "1e-7"):
        record, summary = _run(f"eigen-2d-p3_tol{tol}", "eigen-2d-p3", {"eigen": {"tol": tol}})
        runs.append(record)
        if summary is None:
            break
        record["value"] = summary["lambda1"]
        record["residual"] = summary["residual"]
        best = record
    if best is None:
        raise SystemExit("no tightened eigensolve converged")
    return {
        "qoi": "lambda1",
        "value": best["value"],
        "method": "the tightest eigensolver tol that converges within "
                  f"{TIME_LIMIT_S} s on the same grid",
        "runs": runs,
    }


MAKERS = {"scan-1d": scan_1d, "tensor2d-p3": tensor2d_p3, "eigen-2d-p3": eigen_2d_p3}


def main(names):
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or MAKERS:
        refs[name] = MAKERS[name]()
        REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
