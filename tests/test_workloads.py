"""The benchmark workloads' solver counts, pinned.

Each config under perfbench/workloads runs through the CLI into a temporary
directory, and so does scan-1d's with its unit weight spelled as the power
weight at theta_w = 0, which runs the weight = none path.  A change that
moves the iteration path of a workload (an accepted or rejected step, a
factorization, an eigensolver iteration or quotient evaluation) fails here,
in about 1.5 s, and not only in the benchmark.  Runs take one factorization
per attempt and no Newton iteration.
"""

import json
from pathlib import Path

import pytest

from degenflow.cli import EXIT_OK, main, parse_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

# amplitude -> (steps, factorizations, rejected attempts) of each scan probe.
# The configured 6 ends at its certified decay at t = 0; the configured 20,
# certified to blow up at t = 0, is run again in full for its T_est.  Then
# the scan probes the pair A_lin (1.05)^(-1/2) and A_lin (1.05)^(1/2) around
# the amplitude A_lin predicted by U's unstable mode.  11.24 ends at its
# certified decay after 6 steps.  11.80 is certified to blow up at t = 0
# and, as the bracket's blow-up end, is run again for the fit, up to the
# state where its bracket proves the blow-up past the fit window; its
# counts are that rerun's.  The scan takes 159 accepted steps.
SCAN_PROBES = {
    6.0: (0, 0, 0),
    11.23500049497828: (6, 6, 0),
    11.796750519727194: (23, 34, 11),
    20.0: (130, 140, 10),
}


def _run(tmp_path, config):
    command = parse_config(config.read_text()).command
    out = tmp_path / config.stem
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
    return out


def _counts(outcome):
    assert outcome["newton_iters_total"] == 0
    return outcome["steps"], outcome["factorizations"], outcome["rejected_attempts"]


def _load(path):
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", ["tensor2d-p3", "eigen-2d-p3", "scan-1d", "scan-1d-theta_w-0"])
def test_workload_solver_counts_pinned(tmp_path, name):
    config = WORKLOADS / f"{name}.ini"
    if name == "scan-1d-theta_w-0":
        config = tmp_path / f"{name}.ini"
        config.write_text((WORKLOADS / "scan-1d.ini").read_text().replace(
            "[problem]\n", "[problem]\nweight = power\ntheta_w = 0.0\n"))
    out = _run(tmp_path, config)
    if name == "tensor2d-p3":
        assert _counts(_load(out / "outcome.json")) == (12, 12, 0)
    elif name == "eigen-2d-p3":
        pair = _load(out / "eigenpair.json")
        assert (pair["iterations"], pair["quotient_evals"]) == (24, 52)
    else:
        summary = _load(out / "summary.json")
        assert "a_lin" in summary
        amplitudes = [run["amplitude"] for run in summary["runs"]]
        assert amplitudes == sorted(SCAN_PROBES)
        for a in amplitudes:
            probe = _load(out / "runs" / f"A_{a:.17g}" / "outcome.json")
            assert _counts(probe) == SCAN_PROBES[a], a


def test_scan_prediction_lies_in_the_reference_bracket(tmp_path):
    """scan-1d's A_lin, predicted by U's unstable mode (nu1 = -9.97), lies
    inside the reference bracket of a scan at rel_tol 0.002 that
    perfbench/reference.json records.  The scan probes two amplitudes beyond
    its configured values, and its bracket, within rel_tol 0.05, holds the
    reference critical amplitude."""
    reference = _load(WORKLOADS.parent / "reference.json")["scan-1d"]
    ref_lo, ref_hi = reference["a_crit_run"]["bracket"]
    summary = _load(_run(tmp_path, WORKLOADS / "scan-1d.ini") / "summary.json")
    assert ref_lo < summary["a_lin"] < ref_hi
    assert summary["nu1"] == pytest.approx(-9.97443, rel=1e-6)
    assert len(summary["runs"]) == 4
    assert summary["a_decay"] < reference["a_crit"] < summary["a_blowup"]
    assert summary["bracket_ratio"] <= 1.05 and summary["g0_decay_le_operative"] is True
