"""The benchmark workloads' solver counts, pinned.

Each config under perfbench/workloads runs through the CLI into a temporary
directory.  A change that moves the iteration path of a workload (an
accepted or rejected step, a factorization, an eigensolver iteration or
quotient evaluation) fails here, in about 1.5 s, and not only in the
benchmark.  Runs take one factorization per attempt and no Newton
iteration.
"""

import json
from pathlib import Path

import pytest

from degenflow.cli import EXIT_OK, main, parse_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

# amplitude -> (steps, factorizations, rejected attempts) of each scan probe.
# The midpoint 10.95 ends at its certified decay, 12.73 and 14.80 at their
# certified blow-up at t = 0; 11.37 stays too near U to be certified and
# runs in full; 11.81, the bracket's blow-up end, is run again in full, and
# the configured 6 and 20 run in full.
SCAN_PROBES = {
    6.0: (143, 143, 0),
    10.954451150103322: (4, 4, 0),
    11.374454657912443: (162, 162, 0),
    11.810561477896204: (114, 138, 24),
    12.73357838853023: (0, 0, 0),
    14.801656089845705: (0, 0, 0),
    20.0: (130, 140, 10),
}


def _run(tmp_path, name):
    config = WORKLOADS / f"{name}.ini"
    command = parse_config(config.read_text()).command
    out = tmp_path / name
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
    return out


def _counts(outcome):
    assert outcome["newton_iters_total"] == 0
    return outcome["steps"], outcome["factorizations"], outcome["rejected_attempts"]


def _load(path):
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", ["tensor2d-p3", "eigen-2d-p3", "scan-1d"])
def test_workload_solver_counts_pinned(tmp_path, name):
    out = _run(tmp_path, name)
    if name == "tensor2d-p3":
        assert _counts(_load(out / "outcome.json")) == (12, 12, 0)
    elif name == "eigen-2d-p3":
        pair = _load(out / "eigenpair.json")
        assert (pair["iterations"], pair["quotient_evals"]) == (24, 52)
    else:
        amplitudes = [run["amplitude"] for run in _load(out / "summary.json")["runs"]]
        assert amplitudes == sorted(SCAN_PROBES)
        for a in amplitudes:
            probe = _load(out / "runs" / f"A_{a:.17g}" / "outcome.json")
            assert _counts(probe) == SCAN_PROBES[a], a
