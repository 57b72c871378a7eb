"""degenflow benchmark: runs one workload through the CLI and reports metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of the workloads below, or
``all`` to run every workload in turn.  Each repetition of a workload is a
fresh interpreter (``child.py``) running one ``degenflow`` command with
``--jobs 1``, one at a time: a closed loop with a single client.

With ``--trace 0`` it repeats the workload for about S seconds (at least
once) and reports the end-to-end metrics as medians over repetitions:
``wall_s``, ``setup_s``, ``peak_rss_mb`` and ``qoi_err``, the two times
scaled to a reference host speed (see HOST_PROBE_REF_S).  With ``--trace
1`` it alternates traced and untraced repetitions for about S seconds, at
least two of each.  The traced ones give the per-layer metrics, whose
counts must agree exactly; the untraced ones give the tracing overhead.
Every repetition's outputs are checked; a repetition that fails a check
counts in ``failed`` and is left out of the timings.  The last line of standard output is the JSON result; a fuller
record, with the environment, goes to ``.perfbench_out/results/``.

The workloads are fixed experiment configs with stored reference values,
so ``--seed`` changes no input; it is recorded with the result.
See ``perfbench/README.md`` for the metrics and why each workload exists.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_out")  # relative to ROOT, so output paths echo identically

SETUP_PROBES = 3  # extra import-and-parse-only interpreters per untraced run
# The shared host's speed drifts: the same code read 25 % slower (40 % for
# set-up) forty minutes later.  Every child therefore times a fixed
# host-speed probe after its measured work, and an untraced run reports
# wall_s and setup_s multiplied by HOST_PROBE_REF_S / (mean probe time of
# the run), i.e. in seconds at the speed where the probe takes this long.
# The mean, not the median: the host flips between a fast and a slow state
# within seconds, and a repetition's wall time averages over both.
HOST_PROBE_REF_S = 0.3
CHILD_TIMEOUT_S = 170
# One BLAS thread: on two cores OpenBLAS's second thread spins without
# shortening eigen-2d-p3, and a fixed thread count fixes the summation
# order, so summaries hash the same whatever the caller's environment
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BRACKET_RATIO_MAX = 1.05
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "qoi_err": "relative"}


def _check_scan(summary, ref):
    ratio = summary.get("bracket_ratio")
    if ratio is None or ratio > BRACKET_RATIO_MAX:
        return f"bracket_ratio {ratio} exceeds {BRACKET_RATIO_MAX}"
    if not summary["a_decay"] <= ref["a_crit"] <= summary["a_blowup"]:
        return (f"bracket [{summary['a_decay']}, {summary['a_blowup']}] misses the "
                f"reference critical amplitude {ref['a_crit']}")
    return None


def _check_completed(summary, _ref):
    kind = summary.get("kind")
    return None if kind == "Completed" else f"outcome kind {kind}, expected Completed"


def _check_eigen(summary, _ref):
    tol = summary["config"]["sections"]["eigen"]["tol"]
    res = summary.get("residual")
    return None if res is not None and res <= tol else f"residual {res} above tol {tol}"


def _qoi_scan(summary):
    return next(r["T_est"] for r in summary["runs"] if r["amplitude"] == 20.0)


# name -> (check, quantity of interest); each reads the run's summary.json
WORKLOADS = {
    "scan-1d": (_check_scan, _qoi_scan),
    "tensor2d-p3": (_check_completed, lambda s: s["final_sup"]),
    "eigen-2d-p3": (_check_eigen, lambda s: s["lambda1"]),
}


def _child(config, out, mode):
    """Run child.py in a fresh interpreter; return (record, error, spawn time)."""
    env = dict(os.environ, **BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    result = ROOT / WORK / "child.json"
    result.unlink(missing_ok=True)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC), config, str(out), str(result), mode],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s", spawned
    if proc.returncode != 0 or not result.exists():
        return None, f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}", spawned
    return json.loads(result.read_text()), None, spawned


def _setup_probe(config):
    """Return (set-up time, host-speed probe time) of one fresh interpreter."""
    record, error, spawned = _child(config, WORK / "probe", "setup")
    if error:
        raise SystemExit(f"set-up probe failed: {error}")
    return record["setup_end"] - spawned, record["probe_s"]


class Repetitions:
    """The repetitions of one workload in one benchmark run."""

    def __init__(self, name):
        self.name = name
        self.config = str(HERE / "workloads" / f"{name}.ini")
        self.out = WORK / "runs" / name
        self.check, self.qoi = WORKLOADS[name]
        self.ref = json.loads((HERE / "reference.json").read_text())[name]
        self.passed, self.failures = [], []
        self.summary_hash = None

    @property
    def attempted(self):
        return len(self.passed) + len(self.failures)

    def run(self, mode):
        shutil.rmtree(ROOT / self.out, ignore_errors=True)
        record, error, spawned = _child(self.config, self.out, mode)
        if error is None:
            error = self._verify(record)
        if error is not None:
            self.failures.append({"mode": mode, "error": error})
            return None
        record["mode"] = mode
        record["setup_s"] = record["setup_end"] - spawned
        self.passed.append(record)
        return record

    def _verify(self, record):
        if record["exit"] != 0:
            return f"exit code {record['exit']}"
        path = ROOT / self.out / "summary.json"
        if not path.exists():
            return "no summary.json"
        raw = path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if self.summary_hash is None:
            self.summary_hash = digest
        elif digest != self.summary_hash:
            return f"summary.json hash {digest} differs from {self.summary_hash}"
        summary = json.loads(raw)
        error = self.check(summary, self.ref)
        if error is not None:
            return error
        record["qoi"] = self.qoi(summary)
        record["g0_decay_le_operative"] = summary.get("g0_decay_le_operative")
        files = [p for p in (ROOT / self.out).rglob("*") if p.is_file()]
        record["artifact_files"] = len(files)
        record["artifact_bytes"] = sum(p.stat().st_size for p in files)
        return None


def _median(records, key):
    return statistics.median(r[key] for r in records)


def measure(name, seconds, trace):
    """Run one workload; return (metrics, repetitions, notes)."""
    reps = Repetitions(name)
    # the first interpreter of a run pays for cold caches and bytecode
    # compilation, which a user pays once, not per run
    _setup_probe(reps.config)
    start = time.perf_counter()
    if trace:
        return _measure_traced(reps, start, seconds)
    return _measure_plain(reps, start, seconds)


def _measure_plain(reps, start, seconds):
    setup, probe = map(list, zip(*(_setup_probe(reps.config) for _ in range(SETUP_PROBES))))
    while True:
        reps.run("plain")
        if time.perf_counter() - start >= seconds:
            break
    # with no passing repetition the metrics read 0 and the run is failed
    plain = reps.passed or [{"wall_s": 0.0, "cpu_s": 0.0, "setup_s": 0.0,
                             "maxrss_kb": 0, "qoi": 0.0}]
    setup += [r["setup_s"] for r in reps.passed]
    probe += [r["probe_s"] for r in reps.passed]
    # times are scaled to the reference host speed; see HOST_PROBE_REF_S
    speed = HOST_PROBE_REF_S / statistics.mean(probe)
    qoi = plain[0]["qoi"]
    metrics = {
        "wall_s": _median(plain, "wall_s") * speed,
        "setup_s": statistics.median(setup) * speed,
        "peak_rss_mb": _median(plain, "maxrss_kb") / 1024.0,
        "qoi_err": abs(qoi - reps.ref["value"]) / abs(reps.ref["value"]),
    }
    notes = {
        "host_speed": speed,
        "wall_s_unscaled": _median(plain, "wall_s"),
        "setup_s_unscaled": statistics.median(setup),
        "wall_s": [r["wall_s"] for r in reps.passed],
        "cpu_s": [r["cpu_s"] for r in reps.passed],
        "setup_s": setup,
        "probe_s": probe,
        "qoi": {"value": qoi, "reference": reps.ref["value"]},
    }
    return metrics, reps, notes


def _layers(record):
    return dict(record["layers"], **{"cli.artifact_files": record["artifact_files"],
                                     "cli.artifact_bytes": record["artifact_bytes"]})


def _measure_traced(reps, start, seconds):
    # traced and untraced repetitions alternate, so host drift affects the
    # overhead estimate less
    traced, plain = [], []
    while (len(traced) < 2 and reps.attempted < 6) or time.perf_counter() - start < seconds:
        for mode, kept in (("traced", traced), ("plain", plain)):
            record = reps.run(mode)
            if record is not None:
                kept.append(record)
    # with no traced repetition the metrics read 0 and the run is failed
    empty = {"layers": tracing.layer_metrics(tracing.Tracer(), []),
             "artifact_files": 0, "artifact_bytes": 0, "wall_s": 0.0}
    layers = [_layers(r) for r in traced or [empty]]
    # counts repeat exactly (checked below); times are medians
    metrics = {
        k: statistics.median(l[k] for l in layers) if _layer_unit(k) == "s" else v
        for k, v in layers[0].items()
    }
    metrics["trace.wall_s"] = _median(traced or [empty], "wall_s")
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(plain or [empty], "wall_s")
    # self-test: every metric that is not a time repeats exactly
    mismatched = sorted(
        k for k in layers[0]
        if _layer_unit(k) != "s" and any(l[k] != layers[0][k] for l in layers[1:])
    )
    if mismatched or len(traced) < 2:
        error = (f"traced counts differ between runs: {mismatched}" if mismatched
                 else f"only {len(traced)} traced repetitions passed, need 2")
        reps.failures.append({"mode": "self-test", "error": error})
    notes = {"traced_wall_s": [r["wall_s"] for r in traced],
             "plain_wall_s": [r["wall_s"] for r in plain]}
    return metrics, reps, notes


def _environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_caller": {k: os.environ.get(k) for k in BLAS_THREADS},
        "blas_threads_used": BLAS_THREADS,
    }


def run_workload(name, seed, seconds, trace):
    load_start = os.getloadavg()
    began = time.time()
    metrics, reps, notes = measure(name, seconds, trace)
    result = {
        "correct": not reps.failures,
        "attempted": reps.attempted,
        "failed": len(reps.failures),
        "metrics": {},
    }
    for key, value in metrics.items():
        unit = UNITS.get(key) or _layer_unit(key)
        result["metrics"][key] = {"value": value, "unit": unit}
    failed_frac = result["failed"] / max(result["attempted"], 1)
    operative = [r.get("g0_decay_le_operative") for r in reps.passed]
    record = dict(
        result, workload=name, seed=seed, seconds=seconds, trace=trace,
        failed_frac=failed_frac, summary_sha256=reps.summary_hash,
        g0_decay_le_operative=operative[0] if operative else None,
        failures=reps.failures, notes=notes, environment=_environment(),
        loadavg_start=load_start, loadavg_end=os.getloadavg(),
        elapsed_s=time.time() - began,
    )
    results = ROOT / WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for key, m in result["metrics"].items():
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name}  failed_frac = {failed_frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    if "host_speed" in notes:
        print(f"{name}  unscaled wall_s = {notes['wall_s_unscaled']:.6g} s, "
              f"setup_s = {notes['setup_s_unscaled']:.6g} s, "
              f"host speed factor {notes['host_speed']:.4g}")
    print(f"{name}  summary.json sha256 {reps.summary_hash}")
    if name == "scan-1d":
        print(f"{name}  g0_decay_le_operative = {record['g0_decay_le_operative']}")
    for failure in reps.failures:
        print(f"{name}  FAILED {failure['mode']}: {failure['error']}")
    print(f"{name}  record {path.relative_to(ROOT)}")
    return result


def _layer_unit(key):
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("_ratio") or key.endswith("_per_step") or key.endswith("_per_iter"):
        return "ratio"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "degenflow" / "cli.py").is_file():
        print(f"benchmark: no degenflow sources under {SRC}", file=sys.stderr)
        return 2

    (ROOT / WORK).mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
