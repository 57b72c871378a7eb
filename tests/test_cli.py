"""Config parsing, command dispatch, exit codes, and artifact determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import degenflow
from degenflow.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNDECIDED,
    main,
    parse_config,
    resolved_config_text,
)
from degenflow.eigensolver import STEADY_STATE_TOL, steady_state
from degenflow.errors import ConfigError, ConvergenceError

EIGEN_CFG = """\
command = eigen
output_dir = {out}

[problem]
mode = interval
extent = 1.0
resolution = 64
p = 2.0
"""

SOLVE_CFG = """\
command = solve
output_dir = {out}

[problem]
mode = interval
resolution = 32
p = 2.0
initial = sin
amplitude = 1.0
t_end = 0.05
dt0 = 1e-3

[controls]
dt_max = 5e-3
"""

SCAN_CFG = """\
command = blowup-scan
output_dir = {out}

[problem]
mode = interval
resolution = 64
p = 2.0
reaction = power
sigma = 2.0
t_end = 3.0
dt0 = 1e-3

[controls]
dt_max = 2e-2

[scan]
values = 6.0, 20.0
rel_tol = 0.05
"""

VERIFY_CFG = """\
command = verify-exact
output_dir = {out}

[problem]
mode = radial
n = 2
extent = 8.0
p = 3.0

[verify]
resolutions = 16, 32, 64
"""

DECAY_CFG = """\
command = decay-fit
output_dir = {out}

[problem]
mode = radial
n = 2
extent = 8.0
resolution = 24
p = 3.0
initial = barenblatt
t_end = 3.0
dt0 = 1e-3

[decay]
window_start = 1.0
window_end = 3.0
"""

# the sections each command reads besides the top level and [problem];
# solve reads [eigen] only with a reaction term
SECTIONS_READ = {
    "eigen": {"eigen"},
    "solve": {"controls"},
    "blowup-scan": {"controls", "eigen", "scan"},
    "verify-exact": {"verify"},
    "weights-check": set(),
    "decay-fit": {"controls", "decay"},
}

# one valid line for each of the other sections, and one that set the
# radius grid of the [weights] section, which is gone: every command
# rejects that section as unknown
REMOVED_SECTIONS = {"weights"}
FOREIGN_SECTIONS = {
    "controls": "dt_max = 1e-2",
    "eigen": "tol = 1e-6",
    "scan": "values = 1.0, 2.0",
    "verify": "resolutions = 16, 32, 64",
    "decay": "window_start = 2.0",
    "weights": "radii = 0.5, 1.0",
}


class TestParseConfig:
    def test_defaults_fill_in(self):
        cfg = parse_config("command = eigen\noutput_dir = out\n")
        assert cfg.command == "eigen"
        assert cfg.sections["problem"]["resolution"] == 128
        assert cfg.sections["problem"]["p"] == 2.0
        assert cfg.sections["controls"] == {"dt_max": 0.1}

    def test_unknown_key_reports_line(self):
        text = "command = eigen\noutput_dir = out\n[problem]\nresolutoin = 4\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "line 4" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = eigen\noutput_dir = o\n[warp]\nx = 1\n")
        assert "warp" in str(err.value)

    def test_bad_value_type(self):
        text = "command = eigen\noutput_dir = o\n[problem]\nresolution = soup\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "line 4" in str(err.value)

    def test_missing_command(self):
        with pytest.raises(ConfigError):
            parse_config("output_dir = o\n")

    def test_command_override_conflict(self):
        with pytest.raises(ConfigError):
            parse_config("command = eigen\noutput_dir = o\n", command_override="solve")

    def test_p_floor_checked_at_parse(self):
        text = "command = solve\noutput_dir = o\n[problem]\np = 1.5\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_choices_are_read_in_any_case(self):
        """A choice key takes its value in any letter case and holds and
        echoes it lowercased."""
        cfg = parse_config("command = solve\noutput_dir = o\n[problem]\nmode = Interval\n"
                           "weight = POWER\ninitial = Sin\nreaction = Power\n")
        prob = cfg.sections["problem"]
        assert [prob[key] for key in ("mode", "weight", "initial", "reaction")] == [
            "interval", "power", "sin", "power"]
        assert "reaction = power" in resolved_config_text(cfg)

    def test_comments_and_blanks_ignored(self):
        text = "# top\ncommand = eigen\n\noutput_dir = o\n[problem]\n# note\nresolution = 16\n"
        cfg = parse_config(text)
        assert cfg.sections["problem"]["resolution"] == 16

    def test_float_list(self):
        text = ("command = solve\noutput_dir = o\n[problem]\n"
                "snapshot_times = 0.1, 0.2, 0.4\n")
        cfg = parse_config(text)
        assert cfg.sections["problem"]["snapshot_times"] == [0.1, 0.2, 0.4]

    def test_infinite_t_end_reports_line(self):
        """An infinite t_end is rejected at parse time; a run would never
        reach it."""
        text = "command = solve\noutput_dir = o\n[problem]\nt_end = inf\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "line 4" in str(err.value)
        assert "finite" in str(err.value)

    def test_solve_reads_eigen_only_with_a_reaction(self):
        """solve computes an eigenpair, and so reads [eigen], only when it
        has a reaction term."""
        text = "command = solve\noutput_dir = o\n[problem]\n{}[eigen]\ntol = 1e-6\n"
        cfg = parse_config(text.format("reaction = power\n"))
        assert cfg.sections["eigen"]["tol"] == 1e-6
        with pytest.raises(ConfigError, match=r"line 5: solve does not read \[eigen\]"):
            parse_config(text.format(""))

    @pytest.mark.parametrize("key", ["resolutions", "sample_times"])
    def test_empty_list_reports_line(self, key):
        """An empty list is rejected, not read as "use the defaults"."""
        text = f"command = verify-exact\noutput_dir = o\n[verify]\n{key} =\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "line 4" in str(err.value)


def _run(tmp_path, name, text, *argv):
    path = tmp_path / name
    path.write_text(text)
    return main(["--config" if a == "CONFIG" else a for a in
                 [argv[0], "--config", str(path), *argv[1:]]])


@pytest.fixture
def eigensolves(monkeypatch):
    """The arguments of every eigensolve the CLI starts, recorded in place
    of running it."""
    calls = []
    monkeypatch.setattr("degenflow.cli.smallest_eigenpair",
                        lambda *args, **kwargs: calls.append(args))
    return calls


def _config_error(command, text, out):
    """Run command on the config text, whose output directory is out: it
    must exit 2 at parse time, leaving a config error.json alone in out.
    Returns the error's message."""
    path = out.parent / "c.cfg"
    path.write_text(text)
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    assert sorted(os.listdir(out)) == ["error.json"]
    error = json.loads((out / "error.json").read_text())
    assert error["error_kind"] == "config"
    return error["message"]


@pytest.fixture(scope="module")
def readme_runs(tmp_path_factory):
    """Every ini block of the README run through main, as
    {command: (exit code, output directory)}."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    root = tmp_path_factory.mktemp("readme")
    runs = {}
    for i, block in enumerate(re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)):
        command = parse_config(block).command
        assert command not in runs, f"two README examples of {command}"
        path = root / f"{i}.cfg"
        path.write_text(block)
        out = root / f"out_{i}"
        runs[command] = (main([command, "--config", str(path), "--out", str(out)]), out)
    return runs


def _summary(out):
    return json.loads((out / "summary.json").read_text())


class TestReadme:
    def test_readme_configs_run(self, readme_runs):
        """Every ini block of the README runs to exit 0, so the documented
        examples cannot keep a key the schema dropped or stop working."""
        assert set(readme_runs) == {"solve", "blowup-scan", "verify-exact", "decay-fit"}
        for command, (code, _out) in readme_runs.items():
            assert code == EXIT_OK, command

    def test_readme_solve_compares(self, readme_runs):
        """The README solve blows up, fits the comparison constant against
        its eigenpair and writes both snapshots."""
        _code, out = readme_runs["solve"]
        summary = _summary(out)
        assert summary["kind"] == "BlowUp"
        assert summary["lambda1"] == pytest.approx(9.8696, rel=1e-3)
        for key in ("C_fit", "threshold_operative", "threshold_paper", "T_bernoulli"):
            assert key in summary, key
        for ts in ("0.005", "0.01"):
            lines = (out / f"snapshot_t{ts}.csv").read_text().splitlines()
            assert f"# t = {float(ts):.17g}" in lines

    def test_readme_scan_brackets(self, readme_runs):
        """The README scan bisects to a bracket within rel_tol, and each
        probe's trajectory header echoes the amplitude the probe ran.  The
        steady state's bracket [a_sub, a_super] holds the critical
        amplitude between the scan's ends, with g0 at both ends.  Only
        midpoints are certified, all but at most one of them: the
        configured probes carry certified_at null, a midpoint whose states
        stay too near U runs in full, each certified midpoint's
        outcome.json names its certificate,
        and the bracket's blow-up end, certified at t = 0, was run again in
        full, so its outcome.json has a blow-up time and no certificate."""
        _code, out = readme_runs["blowup-scan"]
        summary = _summary(out)
        assert summary["a_decay"] < summary["a_blowup"]
        assert summary["bracket_ratio"] <= 1.0 + summary["rel_tol"]
        assert "threshold_operative" in summary
        assert summary["a_decay"] < summary["a_super"] and summary["a_sub"] < summary["a_blowup"]
        assert summary["g0_sub"] < summary["g0_super"]
        assert summary["certifies_midpoints"] is True
        amplitudes = [run["amplitude"] for run in summary["runs"]]
        assert len(amplitudes) > 2  # the two listed probes and a bisection
        for run in summary["runs"]:
            a = run["amplitude"]
            header = (out / "runs" / f"A_{a:.17g}" / "trajectory.csv").read_text()
            config = json.loads(re.search(r"^# config: (.*)$", header, re.M).group(1))
            assert config["sections"]["problem"]["amplitude"] == a
            outcome = json.loads((out / "runs" / f"A_{a:.17g}" / "outcome.json").read_text())
            if run["certified_at"] is None or a == summary["a_blowup"]:
                assert "certified_at" not in outcome
                assert (outcome["T_est"] is None) == (outcome["kind"] == "Decayed")
            else:
                assert outcome["certified_at"] == run["certified_at"]
                assert (outcome["certificate"], outcome["kind"]) == ("steady_state", run["kind"])
            assert a not in (6.0, 20.0) or run["certified_at"] is None
        certified = [run for run in summary["runs"] if run["certified_at"] is not None]
        assert len(certified) >= len(amplitudes) - 3

    def test_readme_decay_fit(self, readme_runs):
        """The README decay fit of a self-similar solution lands within 1 %
        of the predicted exponent -n/beta."""
        _code, out = readme_runs["decay-fit"]
        summary = _summary(out)
        assert summary["predicted_n_over_beta"] == pytest.approx(-0.4)
        assert summary["gap_to_beta"] <= 0.004

    def test_readme_python_api(self, capsys):
        """The README's Python API block runs as written: the eigenvalue
        is near pi^2, and the run blows up with a finite estimate."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block, = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
        names = {}
        exec(block, names)
        assert names["pair"].eigenvalue == pytest.approx(np.pi**2, abs=1e-3)
        out = names["out"]
        assert out.kind == "BlowUp"
        assert np.isfinite(out.t_est)
        assert capsys.readouterr().out == f"BlowUp {out.t_est}\n"


class TestMain:
    def test_eigen_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = _run(tmp_path, "e.cfg", EIGEN_CFG.format(out=tmp_path / "out"), "eigen")
        assert code == EXIT_OK
        out = tmp_path / "out"
        for artifact in ("eigenpair.json", "eigenfunction.csv", "summary.json",
                         "resolved_config.txt"):
            assert (out / artifact).exists()
        pair = json.loads((out / "eigenpair.json").read_text())
        assert pair["lambda1"] == pytest.approx(9.8696, rel=1e-2)

    def test_solve_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = _run(tmp_path, "s.cfg", SOLVE_CFG.format(out=tmp_path / "out"), "solve")
        assert code == EXIT_OK
        outcome = json.loads((tmp_path / "out" / "outcome.json").read_text())
        assert outcome["kind"] == "Completed"
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_missing_config_file(self, capsys):
        assert main(["solve", "--config", "/definitely/not/here.cfg"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_config_error_exit(self, tmp_path, monkeypatch):
        """A config error found while parsing is reported in the output_dir
        the config names, with no --out given."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bad.cfg"
        path.write_text("command = solve\noutput_dir = o\n[problem]\np = 0.5\n")
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
        error = json.loads((tmp_path / "o" / "error.json").read_text())
        assert error["error_kind"] == "config"
        assert "p must be" in error["message"]

    def test_jobs_other_than_one_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "s.cfg"
        path.write_text(SOLVE_CFG.format(out="jout"))
        assert main(["solve", "--config", str(path), "--jobs", "2"]) == EXIT_CONFIG
        error = json.loads((tmp_path / "jout" / "error.json").read_text())
        assert error["error_kind"] == "config"
        assert "--jobs" in error["message"]
        assert sorted(os.listdir(tmp_path / "jout")) == ["error.json"]

    def test_out_flag_overrides(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "e.cfg"
        path.write_text(EIGEN_CFG.format(out="ignored_dir"))
        code = main(["eigen", "--config", str(path), "--out", str(tmp_path / "chosen")])
        assert code == EXIT_OK
        assert (tmp_path / "chosen" / "eigenpair.json").exists()
        assert not (tmp_path / "ignored_dir").exists()

    def test_rerun_is_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = SOLVE_CFG.format(out="out_a")
        path = tmp_path / "s.cfg"
        path.write_text(cfg)
        assert main(["solve", "--config", str(path)]) == EXIT_OK
        first = {
            name: (tmp_path / "out_a" / name).read_bytes()
            for name in os.listdir(tmp_path / "out_a")
        }
        assert main(["solve", "--config", str(path)]) == EXIT_OK
        for name, blob in first.items():
            assert (tmp_path / "out_a" / name).read_bytes() == blob, name

    def test_weights_check(self, tmp_path, monkeypatch):
        """A power weight passes both checks; the verdicts are written as
        JSON bools and the run exits 0 with a whole summary."""
        monkeypatch.chdir(tmp_path)
        text = (
            "command = weights-check\noutput_dir = wout\n"
            "[problem]\nmode = radial\nn = 2\nweight = power\ntheta_w = 1.0\n"
        )
        path = tmp_path / "w.cfg"
        path.write_text(text)
        assert main(["weights-check", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "wout" / "summary.json").read_text())
        assert summary["muckenhoupt"]["passes"] is True
        assert summary["doubling"]["passes"] is True

    @pytest.mark.parametrize("weight", ["", "weight = power\ntheta_w = 0.0\n"],
                             ids=["none", "power-0"])
    @pytest.mark.parametrize("theta_mk", [2.0, 3.0])
    def test_weights_check_reads_theta_mk(self, tmp_path, weight, theta_mk):
        """The unit weight of weight = none is checked at the configured
        theta_mk, as the power weight with theta_w = 0 is: on the interval
        the Muckenhoupt constant of the unit weight is 2**theta_mk."""
        path = tmp_path / "w.cfg"
        path.write_text(
            f"command = weights-check\noutput_dir = {tmp_path / 'wout'}\n[problem]\n"
            f"mode = interval\n{weight}theta_mk = {theta_mk}\n"
        )
        assert main(["weights-check", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "wout" / "summary.json").read_text())
        assert summary["muckenhoupt"]["worst_constant"] == pytest.approx(2.0**theta_mk)

    @pytest.mark.parametrize("problem, n", [
        ("mode = interval\n", 1),
        ("mode = tensor2d\n", 2),
        ("mode = radial\nn = 3\n", 3),
        ("mode = radial\n", None),
    ], ids=["interval", "tensor2d", "radial", "radial-without-n"])
    def test_weights_check_dimension(self, tmp_path, problem, n):
        """weights-check runs in the grid's dimension; a radial problem
        without n fails as it does for every other command."""
        path = tmp_path / "w.cfg"
        path.write_text(
            f"command = weights-check\noutput_dir = {tmp_path / 'wout'}\n"
            f"[problem]\n{problem}weight = power\ntheta_w = 1.0\n"
        )
        code = main(["weights-check", "--config", str(path)])
        if n is None:
            assert code == EXIT_CONFIG
            error = json.loads((tmp_path / "wout" / "error.json").read_text())
            assert "n >= 2" in error["message"]
        else:
            assert code == EXIT_OK
            summary = json.loads((tmp_path / "wout" / "summary.json").read_text())
            assert summary["n"] == n

    @pytest.mark.parametrize("mode", ["interval", "tensor2d"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_dimension_is_read_only_on_radial_grids(self, tmp_path, eigensolves, command, mode):
        """The dimension of an interval or tensor grid is fixed by its mode,
        so n set beside it exits 2 with a config error.json naming its
        line, before anything runs."""
        out = tmp_path / "out"
        message = _config_error(command, f"command = {command}\noutput_dir = {out}\n"
                                f"[problem]\nmode = {mode}\nn = 3\n", out)
        assert f"line 5: mode = {mode} does not read 'n' in [problem]" in message
        assert eigensolves == []

    @pytest.mark.parametrize("line", ["kind = exponential", "time_offset = 1.0"])
    def test_decay_fit_offset_and_kind_are_not_keys(self, tmp_path, line):
        """decay-fit fits the algebraic decay exponent only and derives the
        time offset from the initial profile, so [decay] kind and
        time_offset are unknown keys: exit 2 naming the line."""
        out = tmp_path / "out"
        message = _config_error("decay-fit", f"command = decay-fit\noutput_dir = {out}\n"
                                "[problem]\nmode = radial\nn = 2\np = 3.0\n"
                                f"initial = barenblatt\n[decay]\n{line}\n", out)
        key = line.split(" =")[0]
        assert f"line 9: unknown key {key!r} in [decay]" in message

    def test_scan_without_steady_state_runs_in_full(self, tmp_path, monkeypatch):
        """A steady-state solve that does not converge is recorded in the
        summary, which then has no [a_sub, a_super], and every probe runs
        to its end: the scan's bracket and blow-up end are those of the
        certified scan, with no run certified."""
        def stalled(*args, **kwargs):
            raise ConvergenceError("eigensolver stalled at residual 1e-3")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("degenflow.cli.steady_state", stalled)
        assert _run(tmp_path, "s.cfg", SCAN_CFG.format(out="full"), "blowup-scan") == EXIT_OK
        summary = _summary(tmp_path / "full")
        assert summary["steady_state_error"] == "eigensolver stalled at residual 1e-3"
        assert not {"a_sub", "a_super", "certifies_midpoints"} & set(summary)
        assert all(run["certified_at"] is None for run in summary["runs"])
        assert (summary["a_decay"], summary["a_blowup"]) == (11.374454657912443,
                                                             11.810561477896204)
        for run in summary["runs"]:
            outcome = json.loads((tmp_path / "full" / "runs" / f"A_{run['amplitude']:.17g}"
                                  / "outcome.json").read_text())
            assert "certified_at" not in outcome

    def test_scan_flags_configured_values_that_contradict_the_steady_state(self, tmp_path,
                                                                           monkeypatch):
        """The summary lists the configured values whose full run blew up
        below a_sub or decayed above a_super: none on the scan-1d config,
        and both of its values when a patched run flips their kinds (6
        blows up, 20 decays), which leaves no ordered bracket."""
        monkeypatch.chdir(tmp_path)
        assert _run(tmp_path, "s.cfg", SCAN_CFG.format(out="plain"), "blowup-scan") == EXIT_OK
        assert _summary(tmp_path / "plain")["contradicting_values"] == []

        run = degenflow.cli.run_simulation
        flipped = {6.0: "BlowUp", 20.0: "Decayed"}

        def flipping(spec, **kwargs):
            outcome = run(spec, **kwargs)
            outcome.kind = flipped.get(spec.sup0, outcome.kind)
            return outcome

        monkeypatch.setattr("degenflow.cli.run_simulation", flipping)
        assert _run(tmp_path, "f.cfg", SCAN_CFG.format(out="flipped"),
                    "blowup-scan") == EXIT_UNDECIDED
        summary = _summary(tmp_path / "flipped")
        assert summary["a_sub"] > 6.0 and summary["a_super"] < 20.0
        assert summary["contradicting_values"] == [6.0, 20.0]

    def test_scan_on_the_coarse_weighted_ball_runs_in_full(self, tmp_path, monkeypatch):
        """Unpatched: on the ball n = 3 at resolution 9 with weight |x| and
        sigma = 1.5, the steady state stalls (eigensolver tests), so the
        scan records the stall, reports no [a_sub, a_super], certifies no
        probe and still brackets the threshold from its full runs."""
        monkeypatch.chdir(tmp_path)
        text = (SCAN_CFG.format(out="ball")
                .replace("mode = interval\nresolution = 64\n",
                         "mode = radial\nn = 3\nresolution = 9\n")
                .replace("p = 2.0\n", "p = 2.0\nweight = power\ntheta_w = 1.0\n")
                .replace("sigma = 2.0", "sigma = 1.5").replace("t_end = 3.0", "t_end = 5.0")
                .replace("values = 6.0, 20.0\nrel_tol = 0.05",
                         "values = 1.0, 200.0\nrel_tol = 0.2"))
        assert _run(tmp_path, "b.cfg", text, "blowup-scan") == EXIT_OK
        summary = _summary(tmp_path / "ball")
        assert summary["steady_state_error"].startswith("eigensolver stalled at residual")
        assert not {"a_sub", "a_super", "certifies_midpoints"} & set(summary)
        assert all(run["certified_at"] is None for run in summary["runs"])
        assert summary["a_decay"] < summary["a_blowup"]

    def test_stalled_eigen_writes_its_best_iterate(self, tmp_path, monkeypatch):
        """An eigen run below round-off (tol 1e-12 on tensor 16, p = 3)
        exits 3 with a numerical error.json and, beside it, the best
        iterate's eigenpair.json with its residual history and counts."""
        monkeypatch.chdir(tmp_path)
        text = (EIGEN_CFG.format(out="stall")
                .replace("mode = interval", "mode = tensor2d")
                .replace("resolution = 64\np = 2.0\n",
                         "resolution = 16\np = 3.0\nweight = power\ntheta_w = 1.0\n")
                + "\n[eigen]\ntol = 1e-12\n")
        assert _run(tmp_path, "e.cfg", text, "eigen") == EXIT_NUMERICAL
        out = tmp_path / "stall"
        assert sorted(os.listdir(out)) == ["eigenpair.json", "error.json",
                                           "resolved_config.txt"]
        error = json.loads((out / "error.json").read_text())
        assert (error["error_kind"], error["error_type"]) == ("numerical", "ConvergenceError")
        pair = json.loads((out / "eigenpair.json").read_text())
        history = pair["residual_history"]
        assert pair["residual"] == min(history) == history[pair["iterations"]] > 1e-12
        assert pair["quotient_evals"] >= len(history)
        assert f"after {pair['iterations']} accepted iterations" in error["message"]

    @pytest.mark.parametrize("command, text, residual, iterations", [
        ("solve", "command = solve\noutput_dir = stall\n[problem]\nmode = tensor2d\n"
                  "resolution = 16\np = 3.0\nweight = power\ntheta_w = 1.0\nreaction = power\n"
                  "sigma = 3.0\nt_end = 0.01\ndt0 = 1e-3\n[eigen]\ntol = 1e-12\n",
         "6.335e-10", 40),
        ("blowup-scan", SCAN_CFG.format(out="stall") + "[eigen]\ntol = 1e-15\n",
         "6.818e-14", 9),
    ], ids=["solve", "blowup-scan"])
    def test_stalled_eigensolve_of_a_run_writes_its_best_iterate(self, tmp_path, monkeypatch,
                                                                 command, text, residual,
                                                                 iterations):
        """solve and blowup-scan, like eigen, leave a stalled eigensolve's
        best iterate as eigenpair.json beside error.json, run nothing
        further and exit 3: a tensor 16, p = 3 solve at tol 1e-12 and
        scan-1d's config at tol 1e-15, both below round-off."""
        monkeypatch.chdir(tmp_path)
        assert _run(tmp_path, "s.cfg", text, command) == EXIT_NUMERICAL
        out = tmp_path / "stall"
        assert sorted(os.listdir(out)) == ["eigenpair.json", "error.json",
                                           "resolved_config.txt"]
        error = json.loads((out / "error.json").read_text())
        assert error["error_type"] == "ConvergenceError"
        assert f"stalled at residual {residual}" in error["message"]
        pair = json.loads((out / "eigenpair.json").read_text())
        assert pair["iterations"] == iterations
        assert pair["residual"] == min(pair["residual_history"])

    def test_certified_blowup_end_that_completes_is_undecided(self, tmp_path, monkeypatch):
        """Certified verdicts are eventual ones.  Here every full run of a
        midpoint is made to end at t = 0.2, while 11.81, the bracket's
        blow-up end certified at t = 0, blows up near t = 0.41.  Its full
        rerun has not blown up by then, so there is no blow-up to fit C on:
        the scan exits 4 with that end as its undecided midpoint and no
        bracket, and its runs entry is the rerun's Completed with the
        probe's certified_at.  Every probe writes a directory of its own."""
        run_one = degenflow.cli._run_one

        def short_full_runs(cfg, grid, weight, eigenpair, out_dir, certificate=None):
            sections = {name: dict(body) for name, body in cfg.sections.items()}
            if certificate is None and sections["problem"]["amplitude"] not in (6.0, 20.0):
                sections["problem"]["t_end"] = 0.2
            cfg = degenflow.cli.ExperimentConfig(cfg.command, cfg.output_dir, sections)
            return run_one(cfg, grid, weight, eigenpair, out_dir, certificate)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(degenflow.cli, "_run_one", short_full_runs)
        assert _run(tmp_path, "s.cfg", SCAN_CFG.format(out="short"),
                    "blowup-scan") == EXIT_UNDECIDED
        summary = _summary(tmp_path / "short")
        runs = {run["amplitude"]: run for run in summary["runs"]}
        end = runs[summary["undecided_midpoint"]]
        assert end["amplitude"] == pytest.approx(11.8106, rel=1e-5)
        assert end["kind"] == "Completed" and end["certified_at"] == 0.0
        assert not {"a_decay", "a_blowup", "C_fit"} & set(summary)
        outcome = json.loads((tmp_path / "short" / "runs" / f"A_{end['amplitude']:.17g}"
                              / "outcome.json").read_text())
        assert outcome["kind"] == "Completed" and "certified_at" not in outcome
        assert outcome["final_time"] == pytest.approx(0.2)
        assert (runs[6.0]["kind"], runs[20.0]["kind"]) == ("Decayed", "BlowUp")
        assert len(list((tmp_path / "short" / "runs").iterdir())) == len(runs)
        for a in runs:
            probe = json.loads((tmp_path / "short" / "runs" / f"A_{a:.17g}"
                                / "outcome.json").read_text())
            assert probe["amplitude"] == a

    def test_scan_at_p3_solves_the_steady_state_to_the_eigen_default(self, tmp_path,
                                                                       monkeypatch):
        """At p = 3 the steady state certifies nothing, so the scan solves
        it to the eigensolver's default tol for p, reports [a_sub, a_super]
        and runs every probe in full; at p = 2 on an interval it solves to
        STEADY_STATE_TOL."""
        tols = []

        def recorded(*args, tol):
            tols.append(tol)
            return steady_state(*args, tol=tol)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("degenflow.cli.steady_state", recorded)
        text = (SCAN_CFG.format(out="p3").replace("resolution = 64", "resolution = 32")
                .replace("p = 2.0", "p = 3.0").replace("sigma = 2.0", "sigma = 3.0")
                .replace("t_end = 3.0", "t_end = 0.05").replace("values = 6.0, 20.0",
                                                                  "values = 20.0, 60.0"))
        assert _run(tmp_path, "s.cfg", text, "blowup-scan") in (EXIT_OK, EXIT_UNDECIDED)
        summary = _summary(tmp_path / "p3")
        assert tols == [None]
        assert summary["certifies_midpoints"] is False
        assert summary["a_sub"] < summary["a_super"]
        assert all(run["certified_at"] is None for run in summary["runs"])
        text = SCAN_CFG.format(out="p2").replace("values = 6.0, 20.0", "values = 20.0")
        assert _run(tmp_path, "s2.cfg", text, "blowup-scan") == EXIT_UNDECIDED
        assert tols == [None, STEADY_STATE_TOL]

    def test_undecided_scan_exit_code(self, tmp_path, monkeypatch):
        """A scan whose bracket cannot reach the tolerance in the probe
        budget exits with the undecided code."""
        monkeypatch.chdir(tmp_path)
        text = (
            "command = blowup-scan\noutput_dir = scout\n"
            "[problem]\nmode = interval\nresolution = 16\np = 2.0\n"
            "reaction = power\nalpha0 = 1.0\nsigma = 2.0\ninitial = sin\n"
            "t_end = 0.02\ndt0 = 1e-3\n"
            "[controls]\ndt_max = 5e-3\n"
            "[scan]\nvalues = 1.0, 2.0\nrel_tol = 0.05\n"
        )
        # both probes complete without decaying or blowing up: undecided
        assert _run(tmp_path, "sc.cfg", text, "blowup-scan") == EXIT_UNDECIDED

    @pytest.mark.parametrize("command, mode, p, extra", [
        ("eigen", "interval", 401.0, ""),
        ("solve", "interval", 401.0,
         "reaction = power\ninitial = sin\nt_end = 0.05\ndt0 = 1e-3\n"),
        ("eigen", "tensor2d", 401.0, ""),
    ], ids=["eigen", "solve", "eigen-tensor2d"])
    def test_singular_stiffness_is_numerical_error(self, tmp_path, command, mode, p, extra):
        """The weight |x|**400 underflows to 0 on the faces next to the
        origin, which makes the interior stiffness singular, or on tensor
        grids the eigensolver's weight scaling undefined: exit 3 with a
        numerical error.json.  Every command but weights-check needs
        theta_w < p, checked at parse time, so these run at p = 401; the
        eigensolver factors the p = 2 stiffness whatever p is."""
        path = tmp_path / "z.cfg"
        path.write_text(
            f"command = {command}\noutput_dir = {tmp_path / 'zout'}\n[problem]\n"
            f"mode = {mode}\nresolution = 32\np = {p}\n"
            f"weight = power\ntheta_w = 400\n{extra}"
        )
        assert main([command, "--config", str(path)]) == EXIT_NUMERICAL
        error = json.loads((tmp_path / "zout" / "error.json").read_text())
        assert error["error_kind"] == "numerical"
        assert error["error_type"] == "FactorError"
        assert "not positive definite at column 0" in error["message"]

    def test_barenblatt_at_time_zero_is_config_error(self, tmp_path):
        """The self-similar initial profile is undefined at reference time
        0: exit 2 with a config error.json."""
        path = tmp_path / "b.cfg"
        path.write_text(
            f"command = solve\noutput_dir = {tmp_path / 'bout'}\n[problem]\n"
            "mode = radial\nn = 2\nextent = 4.0\nresolution = 32\np = 3.0\n"
            "initial = barenblatt\ninitial_time = 0.0\nt_end = 0.05\ndt0 = 1e-3\n"
        )
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
        error = json.loads((tmp_path / "bout" / "error.json").read_text())
        assert error["error_kind"] == "config"
        assert error["error_type"] == "ConfigError"
        assert "t > 0" in error["message"]

    @pytest.mark.parametrize("section, key", [
        ("controls", "newton_max"),
        ("controls", "growth_factor"),
        ("controls", "easy_iters"),
        ("controls", "max_growth_per_step"),
        ("controls", "eps_reg"),
        ("eigen", "max_iter"),
        ("verify", "front_margin"),
        ("verify", "dt_rel"),
        ("verify", "reference_time"),
        ("weights", "cap"),
        ("sweep", "parameter"),
        ("eigen", "normalization"),
        ("weights", "mu"),
        ("weights", "radius_pairs"),
    ])
    def test_solver_constant_is_not_a_key(self, tmp_path, section, key):
        """The Newton limit, the step-size growth rule, the eigensolver
        iteration limit, the residual-check margins and the weight-class cap
        are constants of their modules, and the sweep, the eigenfunction
        normalization, the weights-check exponent (it is [problem] mu) and
        its doubling pairs (the closed-form check takes the pair (2, 1))
        are not settable: a config that sets one exits 2 with error.json
        naming the line."""
        text = EIGEN_CFG.format(out=tmp_path / "out") + f"\n[{section}]\n{key} = 1\n"
        message = _config_error("eigen", text, tmp_path / "out")
        lines = text.splitlines()
        if section in ("sweep", "weights"):  # the whole section is gone
            expected = f"line {lines.index(f'[{section}]') + 1}: unknown section [{section}]"
        else:
            expected = f"line {lines.index(f'{key} = 1') + 1}: unknown key {key!r}"
        assert expected in message

    @pytest.mark.parametrize("mode, amplitude", [("interval", 1e4), ("radial", 1e5),
                                                 ("tensor2d", 1e5)])
    def test_large_sin_data_vanish_on_the_boundary(self, tmp_path, mode, amplitude):
        """sin(pi) and cos(pi / 2) are about 1e-16 in floating point, so the
        sin data are set to 0.0 on the Dirichlet nodes: a solve at a large
        amplitude runs instead of failing the boundary check."""
        out = tmp_path / "out"
        text = (SOLVE_CFG.format(out=out)
                .replace("mode = interval", f"mode = {mode}" + "\nn = 2" * (mode == "radial"))
                .replace("amplitude = 1.0", f"amplitude = {amplitude}"))
        assert _run(tmp_path, "s.cfg", text, "solve") == EXIT_OK
        assert _summary(out)["kind"] == "Completed"

    @pytest.mark.parametrize("line", [
        "resolution = inf",
        "t_end = -inf",
        "amplitude = nan",
        "snapshot_times = 0.01, inf",
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, line):
        """A number that is not finite exits 2 with error.json naming its
        line, before any run starts."""
        out = tmp_path / "out"
        message = _config_error("solve", f"command = solve\noutput_dir = {out}\n[problem]\n"
                                f"{line}\n", out)
        assert "line 4: bad value" in message

    @pytest.mark.parametrize("line", ["u_cap = -5.0", "newton_tol = 0", "newton_tol = -1e-10"],
                             ids=["u_cap", "newton_tol-zero", "newton_tol-negative"])
    def test_bad_step_control_is_config_error(self, tmp_path, line):
        """The blow-up cap and the Newton tolerance are not [controls] keys
        (the cap is timestepper.CAP_FACTOR times the initial sup), so
        setting one exits 2 with a config error.json naming its line and no
        trajectory."""
        out = tmp_path / "out"
        text = SOLVE_CFG.format(out=out) + f"{line}\n"
        key = line.split(" =")[0]
        assert _config_error("solve", text, out) == (
            f"line {len(text.splitlines())}: unknown key {key!r} in [controls]")

    def test_snapshot_time_outside_the_run_is_config_error(self, tmp_path):
        """A snapshot time outside [0, t_end] exits 2 with a config
        error.json naming the first such time, and writes no snapshot."""
        out = tmp_path / "out"
        text = SOLVE_CFG.format(out=out).replace(
            "dt0 = 1e-3\n", "dt0 = 1e-3\nsnapshot_times = 0.005, 0.5, -1.0\n")
        assert "snapshot time 0.5 outside [0, t_end = 0.05]" in _config_error("solve", text, out)

    @pytest.mark.parametrize("old, new, message", [
        ("dt_max = 2e-2", "dt_max = 2e-2\nnewton_tol = 0",
         "unknown key 'newton_tol' in [controls]"),
        ("dt_max = 2e-2", "dt_max = 2e-2\nu_cap = -5", "unknown key 'u_cap' in [controls]"),
        ("dt_max = 2e-2", "dt_max = 2e-2\ndt_min = 1.0", "unknown key 'dt_min' in [controls]"),
        ("dt0 = 1e-3", "dt0 = 1.0", "need 1e-12 <= dt0 <= dt_max"),
        ("t_end = 3.0", "t_end = 0", "t_end must be positive"),
        ("dt0 = 1e-3", "dt0 = 1e-3\nsnapshot_times = 0.5, 4.0",
         "snapshot time 4.0 outside [0, t_end = 3.0]"),
        ("values = 6.0, 20.0", "values = -6.0, 20.0", "scan values must be positive, got -6.0"),
        ("values = 6.0, 20.0", "values = 6.0, 0, 20.0", "scan values must be positive, got 0.0"),
        ("rel_tol = 0.05", "rel_tol = 0", "scan rel_tol must be positive"),
    ], ids=["newton_tol", "u_cap", "dt_min", "dt0", "t_end", "snapshot_times",
            "values-negative", "values-zero", "rel_tol"])
    def test_bad_schedule_fails_at_parse_time(self, tmp_path, eigensolves, old, new, message):
        """A removed [controls] key (the step floor, the blow-up cap and the
        Newton tolerance are timestepper constants), a dt0 outside
        [DT_MIN, dt_max], a t_end
        that is not positive, a snapshot time outside [0, t_end], and a scan
        amplitude or rel_tol that is not positive exit 2 at parse time with
        a config error.json naming the line of the key at fault: a scan
        computes no eigenpair and writes nothing else.  The scan bisects
        geometrically and stops on its bracket's ratio, which for the
        amplitudes -6 and 20 read -3.33 and counted as converged."""
        out = tmp_path / "out"
        text = SCAN_CFG.format(out=out).replace(f"{old}\n", f"{new}\n")
        lineno = text.splitlines().index(new.splitlines()[-1]) + 1
        assert _config_error("blowup-scan", text, out).startswith(f"line {lineno}: {message}")
        assert eigensolves == []

    def test_scan_without_values_fails_at_parse_time(self, tmp_path):
        """A scan needs its amplitudes: exit 2 with nothing else written."""
        out = tmp_path / "out"
        text = SCAN_CFG.format(out=out).replace("values = 6.0, 20.0\n", "")
        assert _config_error("blowup-scan", text, out) == "blowup-scan needs [scan] values"

    @pytest.mark.parametrize("tol", ["0", "-1", "1", "10"])
    @pytest.mark.parametrize("command", ["eigen", "blowup-scan", "solve"])
    def test_eigen_tol_outside_the_unit_interval_fails_at_parse_time(self, tmp_path, eigensolves,
                                                                     command, tol):
        """An [eigen] tol of 0 or below stalls the eigensolver and one of 1
        or more accepts its start, so every command that reads [eigen] (a
        solve with a reaction term among them) exits 2 at parse time naming
        the line, before any eigensolve, with nothing written but
        error.json."""
        out = tmp_path / "out"
        base = {"eigen": EIGEN_CFG, "blowup-scan": SCAN_CFG,
                "solve": SOLVE_CFG.replace("amplitude = 1.0\n",
                                           "amplitude = 1.0\nreaction = power\n")}[command]
        text = base.format(out=out) + f"\n[eigen]\ntol = {tol}\n"
        lineno = text.splitlines().index(f"tol = {tol}") + 1
        assert _config_error(command, text, out) == (
            f"line {lineno}: eigensolver tol must lie in (0, 1), got {float(tol)}")
        assert eigensolves == []

    @pytest.mark.parametrize("command, text, line, message", [
        ("blowup-scan", SCAN_CFG.replace("reaction = power\nsigma = 2.0\n", "reaction = none\n"),
         "reaction = none", "blowup-scan needs a reaction term"),
        ("verify-exact", VERIFY_CFG.replace("mode = radial\nn = 2\n", "mode = tensor2d\n"),
         "mode = tensor2d", "verify-exact runs on radial or interval grids"),
        ("verify-exact", VERIFY_CFG.replace("p = 3.0", "p = 2.0"), "p = 2.0",
         "verify-exact needs p > 2"),
        ("verify-exact", VERIFY_CFG.replace("16, 32, 64", "16, 32"), "resolutions = 16, 32",
         "verify-exact needs at least 3 resolutions"),
        ("decay-fit", DECAY_CFG.replace("p = 3.0\n", "p = 3.0\nreaction = power\n"),
         "reaction = power", "decay-fit fits the unforced flow: reaction must be none"),
        ("blowup-scan", SCAN_CFG.replace("sigma = 2.0", "sigma = 1.0"), "sigma = 1.0",
         "blowup-scan with reaction = power needs sigma > p - 1, got sigma = 1.0, p = 2.0"),
        ("blowup-scan", SCAN_CFG.replace("p = 2.0", "p = 3.0"), "sigma = 2.0",
         "blowup-scan with reaction = power needs sigma > p - 1, got sigma = 2.0, p = 3.0"),
        ("blowup-scan", SCAN_CFG.replace("reaction = power", "reaction = exp_forced"),
         "reaction = exp_forced", "blowup-scan needs reaction = power: exp_forced blows up "
         "every positive amplitude, so there is no threshold"),
        ("eigen", EIGEN_CFG.replace("mode = interval", "mode = square"), "mode = square",
         "bad value for 'mode': expected one of interval, radial, tensor2d, got 'square'"),
        ("eigen", EIGEN_CFG.replace("p = 2.0", "p = 2.0\nweight = bogus"), "weight = bogus",
         "bad value for 'weight': expected one of none, power, got 'bogus'"),
        ("solve", SOLVE_CFG.replace("initial = sin", "initial = sin\nreaction = cubic"),
         "reaction = cubic",
         "bad value for 'reaction': expected one of none, power, exp_forced, got 'cubic'"),
        ("decay-fit", DECAY_CFG.replace("p = 3.0\n", "p = 3.0\nweight = power\ntheta_w = 5\n"),
         "theta_w = 5", "weight exponent theta_w must lie in [0, p); got 5.0 with p=3.0"),
        ("solve", SOLVE_CFG.replace("p = 2.0\n", "p = 3.0\nweight = power\ntheta_w = -1\n"),
         "theta_w = -1", "weight exponent theta_w must lie in [0, p); got -1.0 with p=3.0"),
        ("blowup-scan", SCAN_CFG.replace("sigma = 2.0\n", "sigma = 2.0\namplitude = 7.5\n"),
         "amplitude = 7.5",
         "blowup-scan does not read 'amplitude' in [problem]: it probes the [scan] values"),
        ("eigen", EIGEN_CFG.replace("p = 2.0", "p = 3.0\nweight = power\ntheta_w = 5"),
         "theta_w = 5", "weight exponent theta_w must lie in [0, p); got 5.0 with p=3.0"),
        ("eigen", EIGEN_CFG.replace("p = 2.0", "p = 1.5"), "p = 1.5", "p must be >= 2, got 1.5"),
        ("verify-exact", VERIFY_CFG + "sample_times = 1.0, -3.0\n", "sample_times = 1.0, -3.0",
         "sample times must be positive, got -3.0"),
        ("verify-exact", VERIFY_CFG.replace("16, 32, 64", "2, 32, 64"), "resolutions = 2, 32, 64",
         "resolutions must be at least 4 cells, got 2"),
        ("solve", SOLVE_CFG.replace("resolution = 32", "resolution = 3"), "resolution = 3",
         "resolution must be at least 4 cells, got 3"),
        ("eigen", EIGEN_CFG.replace("extent = 1.0", "extent = 0.0"), "extent = 0.0",
         "extent must be positive, got 0.0"),
    ], ids=["scan-reaction", "verify-mode", "verify-p", "verify-resolutions", "decay-reaction",
            "scan-sigma-below", "scan-sigma-at", "scan-exp-forced", "mode", "weight", "reaction",
            "theta_w-above-p", "theta_w-negative", "scan-amplitude", "eigen-theta_w-above-p",
            "p-below-2", "verify-sample-times", "verify-resolution-below-4", "resolution-below-4",
            "extent"])
    def test_command_checks_fail_at_parse_time(self, tmp_path, command, text, line, message):
        """A scan without a reaction term, with a power reaction at
        sigma <= p - 1 or with the exp_forced reaction, neither of which has
        an amplitude threshold to bracket, a
        verify-exact on a tensor grid, at p = 2, with fewer than three
        resolutions, a resolution below 4 or a sample time that is not
        positive, a grid extent that is not positive or a resolution below
        4, a decay fit with a reaction term, p below 2 and a
        power weight exponent theta_w outside [0, p) in any command but
        weights-check, a scan that sets its own amplitude (its probes run the [scan]
        values), and a mode, weight or
        reaction outside its choices exit 2 at parse time with a config
        error.json naming the line of the key at fault and nothing else
        written, not even resolved_config.txt."""
        out = tmp_path / "out"
        text = text.format(out=out)
        lineno = text.splitlines().index(line) + 1
        assert _config_error(command, text, out) == f"line {lineno}: {message}"

    @pytest.mark.parametrize("lines, key", [
        ("window_start = 5.0\nwindow_end = 1.0", "window_start"),
        ("window_start = 3.0\nwindow_end = 3.0", "window_start"),
        ("window_start = 20.0", "window_start"),
        ("window_end = 0.5", "window_end"),
    ], ids=["reversed", "empty", "start-past-default-end", "end-before-default-start"])
    def test_bad_decay_window_fails_at_parse_time(self, tmp_path, monkeypatch, lines, key):
        """A [decay] window whose start is not before its end, with the
        defaults 1 and 10 filling in an unset end, exits 2 at parse time
        naming the line of the first key set, before any time step,
        instead of failing the fit after the whole run."""
        calls = []
        monkeypatch.setattr("degenflow.cli.run_simulation",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "out"
        text = (f"command = decay-fit\noutput_dir = {out}\n[problem]\nmode = radial\nn = 2\n"
                "extent = 8.0\nresolution = 24\np = 3.0\ninitial = barenblatt\n"
                f"t_end = 1.0\ndt0 = 1e-3\n[decay]\n{lines}\n")
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(key))
        assert _config_error("decay-fit", text, out).startswith(
            f"line {lineno}: need window_start < window_end")
        assert calls == []

    def test_solve_summary_carries_the_outcome(self, tmp_path):
        """The solve summary and outcome.json write the same outcome fields
        with the same values; outcome.json adds the final time and the
        amplitude."""
        out = tmp_path / "out"
        assert _run(tmp_path, "s.cfg", SOLVE_CFG.format(out=out), "solve") == EXIT_OK
        summary = _summary(out)
        outcome = json.loads((out / "outcome.json").read_text())
        shared = set(summary) - {"schema_version", "config"}
        assert shared == set(outcome) - {"final_time", "amplitude"}
        assert {k: summary[k] for k in shared} == {k: outcome[k] for k in shared}

    @pytest.mark.parametrize("shape", ["zero", "barenblatt_verbatim"])
    def test_removed_initial_shape_is_config_error(self, tmp_path, shape):
        """Only sin and barenblatt are initial shapes: zero never leaves zero
        and the verbatim profile is not a solution.  Either exits 2 at parse
        time naming its line, with nothing written but error.json."""
        out = tmp_path / "out"
        text = (f"command = solve\noutput_dir = {out}\n[problem]\nmode = radial\nn = 2\n"
                f"extent = 4.0\nresolution = 16\np = 3.0\ninitial = {shape}\n")
        assert _config_error("solve", text, out) == (
            f"line 9: bad value for 'initial': expected one of sin, barenblatt, got {shape!r}")

    def test_exp_forced_blows_up_before_bound(self, tmp_path):
        """Criterion 7 through the CLI: an exponentially forced solve blows
        up no later than the bound T_bound of its fitted forcing."""
        out = tmp_path / "out"
        text = (f"command = solve\noutput_dir = {out}\n[problem]\nmode = interval\n"
                "resolution = 32\np = 2.0\nreaction = exp_forced\nc6 = 1.0\nsigma = 2.0\n"
                "initial = sin\namplitude = 2.0\nt_end = 1.0\ndt0 = 1e-3\n"
                "[controls]\ndt_max = 1e-2\n")
        assert _run(tmp_path, "x.cfg", text, "solve") == EXIT_OK
        summary = _summary(out)
        assert summary["kind"] == "BlowUp"
        assert summary["psi0"] > 0.0
        assert summary["T_est"] <= summary["T_bound"]

    def test_decay_fit_rejects_reaction(self, tmp_path):
        """decay-fit fits the decay exponent of the unforced flow, so a
        reaction term is a config error (exit 2), not a fit of whatever the
        forced run did."""
        out = tmp_path / "out"
        text = (f"command = decay-fit\noutput_dir = {out}\n[problem]\nmode = radial\nn = 2\n"
                "extent = 8.0\nresolution = 24\np = 3.0\ninitial = barenblatt\n"
                "reaction = exp_forced\nc6 = 1.0\nsigma = 2.0\nt_end = 1.0\ndt0 = 1e-3\n")
        assert "reaction must be none" in _config_error("decay-fit", text, out)

    def test_verify_exact_reads_no_step_controls(self, tmp_path):
        """verify-exact takes no time step, so a [controls] key is a config
        error naming its line rather than a setting that does nothing;
        without it, sample_times default to 1, 3 and 10."""
        text = (
            f"command = verify-exact\noutput_dir = {tmp_path / 'vout'}\n[problem]\n"
            "mode = radial\nn = 2\nextent = 8.0\np = 3.0\n"
            "[verify]\nresolutions = 16, 32, 64\n"
        )
        path = tmp_path / "v.cfg"
        path.write_text(text + "[controls]\ndt_max = 1e-5\n")
        assert main(["verify-exact", "--config", str(path)]) == EXIT_CONFIG
        error = json.loads((tmp_path / "vout" / "error.json").read_text())
        assert "line 11: verify-exact does not read [controls]" in error["message"]
        path.write_text(text)
        assert main(["verify-exact", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "vout" / "summary.json").read_text())
        assert summary["sample_times"] == [1.0, 3.0, 10.0]

    def test_weights_check_steep_power_weight(self, tmp_path):
        """|x|**300 with its natural mu = 301 doubles exactly: the normalized
        ratio is 1, taken as one power of s/h, not as a quotient of ball
        masses that underflow or overflow a float at moderate radii."""
        path = tmp_path / "w.cfg"
        path.write_text(
            f"command = weights-check\noutput_dir = {tmp_path / 'wout'}\n[problem]\n"
            "mode = interval\nweight = power\ntheta_w = 300\n"
        )
        assert main(["weights-check", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "wout" / "summary.json").read_text())
        assert summary["mu"] == 301.0
        assert summary["doubling"]["passes"] is True
        assert summary["doubling"]["worst_ratio"] == 1.0

    # (problem lines, Muckenhoupt (passes, message, constant, ess-sup
    # ratio), doubling (passes, message, ratio, slope)); None is an inf,
    # which the JSON writer stores as null
    @pytest.mark.parametrize("problem, mk, db", [
        ("mode = radial\nn = 2\ntheta_w = 1.0\ntheta_mk = 2.0",
         (True, "ok", 13.15947253478581, 0.47746482927568606), (True, "ok", 1.0, 0.0)),
        ("mode = radial\nn = 2\ntheta_w = -0.5\ntheta_mk = 2.0",
         (False, "constant exceeds cap", 10.527578027828648, None), (True, "ok", 1.0, 0.0)),
        ("mode = radial\nn = 3\ntheta_w = 0.5\ntheta_mk = 10.0",
         (False, "constant exceeds cap", 1686554.2501977265, 0.2785211504108169),
         (True, "ok", 1.0, 0.0)),
        ("mode = radial\nn = 2\ntheta_w = 2.5\ntheta_mk = 2.0",
         (False, "mass or dual mass diverges", None, None), (True, "ok", 1.0, 0.0)),
        ("mode = radial\nn = 3\ntheta_w = 1.0\ntheta_mk = 3.0\nmu = 1.0333333333333332",
         (True, "ok", 79.37606830156754, 0.3183098861837907),
         (False, "normalized ratio grows with scale separation", 1.8660659830736153,
          0.9000000000000004)),
    ], ids=["passes", "negative-theta", "cap", "dual-diverges", "mu-below-natural"])
    def test_weights_check_verdict_table(self, tmp_path, problem, mk, db):
        """weights-check writes the verdicts, messages and constants pinned
        here for a passing weight, a negative exponent (unbounded ess sup),
        a constant above the cap, a diverging dual mass and mu 0.3 below
        its natural value."""
        path = tmp_path / "w.cfg"
        path.write_text(f"command = weights-check\noutput_dir = {tmp_path / 'wout'}\n"
                        f"[problem]\nweight = power\n{problem}\n")
        assert main(["weights-check", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "wout" / "summary.json").read_text())
        for name, fields, expected in (
                ("muckenhoupt", ("passes", "message", "worst_constant", "worst_esssup_ratio"), mk),
                ("doubling", ("passes", "message", "worst_ratio", "tail_slope"), db)):
            got = [summary[name][f] for f in fields]
            assert got[:2] == list(expected[:2])
            for value, pinned in zip(got[2:], expected[2:]):
                if pinned is None:
                    assert value is None
                else:
                    assert value == pytest.approx(pinned, rel=1e-13, abs=1e-300)
        assert "tail_growth" not in summary["muckenhoupt"]

    def test_weights_check_non_integrable_weight(self, tmp_path):
        """A weight |x|**theta_w with theta_w <= -n has no finite ball
        mass: weights-check exits 3 with a numerical error.json."""
        path = tmp_path / "w.cfg"
        path.write_text(f"command = weights-check\noutput_dir = {tmp_path / 'wout'}\n"
                        "[problem]\nmode = interval\nweight = power\ntheta_w = -1.5\n")
        assert main(["weights-check", "--config", str(path)]) == EXIT_NUMERICAL
        error = json.loads((tmp_path / "wout" / "error.json").read_text())
        assert error == {
            "error_kind": "numerical",
            "error_type": "DivergenceError",
            "message": "weight |x|**(-1.5) is not integrable near the origin in dimension 1",
        }

    def test_eigen_rejects_problem_keys_it_never_reads(self, tmp_path):
        """eigen takes no time step and has no reaction or initial data, so
        each such [problem] key is a config error naming its line, one
        line at a time until only foreign sections are left."""
        lines = [
            "command = eigen", f"output_dir = {tmp_path / 'out'}", "[problem]",
            "mode = interval", "resolution = 32", "reaction = power", "amplitude = 2.0",
            "t_end = 0.5", "[controls]", "dt_max = 7", "[scan]", "values = 1.0, 2.0",
            "[verify]", "resolutions = 16, 32",
        ]
        path = tmp_path / "e.cfg"
        for key in ("reaction", "amplitude", "t_end"):
            path.write_text("\n".join(lines) + "\n")
            assert main(["eigen", "--config", str(path)]) == EXIT_CONFIG
            error = json.loads((tmp_path / "out" / "error.json").read_text())
            lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(key))
            assert f"line {lineno}: eigen does not read {key!r} in [problem]" in error["message"]
            lines.remove(lines[lineno - 1])
        path.write_text("\n".join(lines) + "\n")
        assert main(["eigen", "--config", str(path)]) == EXIT_CONFIG
        error = json.loads((tmp_path / "out" / "error.json").read_text())
        assert "line 7: eigen does not read [controls]" in error["message"]

    @pytest.mark.parametrize("setting, key, value", [
        ("reaction = power", "c6", "5"),
        ("reaction = exp_forced", "alpha0", "2"),
        ("reaction = none", "sigma", "3"),
        ("weight = none", "theta_w", "1.5"),
    ])
    def test_key_unread_by_reaction_or_weight_kind_is_config_error(
            self, tmp_path, setting, key, value):
        """A [problem] key that the chosen reaction family or weight kind
        never reads exits 2 with a config error.json naming its line.  The
        unit weight of weight = none is the power weight at theta_w = 0, so
        theta_w = 0 agrees with it and runs."""
        out = tmp_path / "out"
        text = SOLVE_CFG.format(out=out).replace("[controls]", f"{setting}\n{{}}[controls]")
        message = _config_error("solve", text.format(f"{key} = {value}\n"), out)
        assert f"line 14: {setting} does not read {key!r} in [problem]" in message
        if key == "theta_w":
            assert _run(tmp_path, "s.cfg", text.format("theta_w = 0.0\n"), "solve") == EXIT_OK

    @pytest.mark.parametrize("command, lines, setting", [
        ("solve", "initial = sin\ninitial_time = 5.0", "initial = sin"),
        ("blowup-scan", "reaction = power\ninitial_time = 5.0", "initial = sin"),
        ("decay-fit", "initial = sin\ninitial_time = 7.0", "initial = sin"),
        ("solve", "mu = 3.0", "solve"),
        ("solve", "initial = barenblatt\nmu = 5.0", "solve"),
        ("blowup-scan", "reaction = power\nmu = 3.0", "blowup-scan"),
        ("verify-exact", "mu = 5.0", "verify-exact"),
    ])
    def test_key_of_another_initial_profile_or_check_is_config_error(
            self, tmp_path, command, lines, setting):
        """initial_time is read only by the self-similar initial profile,
        and mu only by the decay exponents of decay-fit and the doubling
        check of weights-check; the self-similar profiles do not read mu.
        Set where it is unread, either exits 2 with a config error.json
        naming its line, before anything runs."""
        out = tmp_path / "out"
        message = _config_error(command, f"command = {command}\noutput_dir = {out}\n"
                                f"[problem]\nmode = radial\nn = 2\np = 3.0\n{lines}\n", out)
        key = lines.splitlines()[-1].split(" =")[0]
        line = 6 + len(lines.splitlines())
        assert f"line {line}: {setting} does not read {key!r} in [problem]" in message

    @pytest.mark.parametrize("command, text, sections, dropped", [
        ("solve", SOLVE_CFG, {"", "problem", "controls"},
         {"alpha0", "sigma", "c6", "initial_time", "mu"}),
        ("solve", SOLVE_CFG.replace("p = 2.0", "p = 2.0\nreaction = power\nsigma = 3.0"),
         {"", "problem", "controls", "eigen"}, {"c6"}),
        ("eigen", EIGEN_CFG + "[eigen]\ntol = 1e-6\n", {"", "problem", "eigen"},
         {"reaction", "alpha0", "sigma", "c6", "initial", "amplitude", "initial_time",
          "t_end", "dt0"}),
        ("weights-check", "command = weights-check\noutput_dir = {out}\n[problem]\n"
         "mode = interval\nweight = power\ntheta_w = 1.0\n", {"", "problem"},
         {"extent", "resolution", "p", "reaction", "alpha0", "sigma", "c6", "initial",
          "amplitude", "initial_time", "t_end", "dt0"}),
    ], ids=["solve", "reacting-solve", "eigen", "weights-check"])
    def test_config_echo_lists_only_what_the_command_reads(
            self, tmp_path, command, text, sections, dropped):
        """resolved_config.txt, the summary's config block and the CSV
        config headers list the sections the command reads and, in
        [problem], only the keys that the command, its reaction family and
        its weight kind read."""
        out = tmp_path / "out"
        path = tmp_path / "c.cfg"
        path.write_text(text.format(out=out))
        assert main([command, "--config", str(path)]) == EXIT_OK
        echoes = [json.loads((out / "summary.json").read_text())["config"]]
        for csv in sorted(out.glob("*.csv")):
            header = re.search(r"^# config: (.*)$", csv.read_text(), re.M)
            if header:
                echoes.append(json.loads(header.group(1)))
        assert len(echoes) == (2 if command == "solve" else 1)
        for echo in echoes:
            assert set(echo["sections"]) == sections
            assert not dropped & set(echo["sections"]["problem"])
            assert {"mode", "p", "resolution"} - dropped <= set(echo["sections"]["problem"])
        resolved = (out / "resolved_config.txt").read_text()
        named = set(re.findall(r"^\[(\w+)\]$", resolved, re.M))
        assert named == {s for s, body in echoes[0]["sections"].items() if s and body}
        keys = set(re.findall(r"^(\w+) = ", resolved, re.M))
        assert not dropped & keys
        if command == "eigen":
            assert echoes[0]["sections"]["eigen"]["tol"] == 1e-6

    @pytest.mark.parametrize("line", ["reaction = power", "amplitude = 2.0", "t_end = 0.5",
                                      "extent = 7.0", "resolution = 8", "p = 5.0"])
    def test_weights_check_rejects_evolution_keys(self, tmp_path, line):
        """weights-check classifies the weight alone, so a [problem] key of
        an evolution, of the grid's size or of the operator's power p is a
        config error naming its line."""
        out = tmp_path / "out"
        message = _config_error("weights-check", f"command = weights-check\noutput_dir = {out}\n"
                                f"[problem]\nmode = interval\n{line}\n", out)
        key = line.split(" =")[0]
        assert f"line 5: weights-check does not read {key!r} in [problem]" in message

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "weights-check"])
    def test_theta_mk_is_read_only_by_weights_check(self, tmp_path, command):
        """theta_mk is the exponent of the Muckenhoupt check, which only
        weights-check runs, so every other command that has it set exits 2
        with a config error.json naming its line, before anything runs."""
        out = tmp_path / "out"
        message = _config_error(command, f"command = {command}\noutput_dir = {out}\n"
                                "[problem]\nmode = interval\ntheta_mk = 3.0\n", out)
        assert f"line 5: {command} does not read 'theta_mk' in [problem]" in message

    @pytest.mark.parametrize("line", [
        "resolution = 64", "reaction = power", "alpha0 = 2.0", "sigma = 3.0", "c6 = 2.0",
        "initial = sin", "amplitude = 2.0", "initial_time = 1.0", "t_end = 0.5",
        "dt0 = 1e-3", "snapshot_times = 0.1",
    ])
    def test_verify_exact_rejects_problem_keys_it_never_reads(self, tmp_path, line):
        """verify-exact builds its grids at the [verify] resolutions and
        takes no time step, so resolution and each [problem] key of an
        evolution is a config error naming its line."""
        out = tmp_path / "out"
        message = _config_error("verify-exact", f"command = verify-exact\noutput_dir = {out}\n"
                                f"[problem]\nmode = radial\nn = 2\np = 3.0\n{line}\n", out)
        key = line.split(" =")[0]
        assert f"line 7: verify-exact does not read {key!r} in [problem]" in message

    @pytest.mark.parametrize("command, section", [
        (command, section)
        for command in COMMANDS
        for section in FOREIGN_SECTIONS
        if section not in SECTIONS_READ[command]
    ])
    def test_foreign_section_is_config_error(self, tmp_path, command, section):
        """A key set in a section the command never reads exits 2 with a
        config error.json naming its line, before anything runs.  solve
        without a reaction computes no eigenpair, so [eigen] is foreign to
        it too.  A removed section is unknown to every command, and the
        error names the line of its header."""
        out = tmp_path / "out"
        message = _config_error(command, f"command = {command}\noutput_dir = {out}\n[problem]\n"
                                f"mode = interval\n[{section}]\n{FOREIGN_SECTIONS[section]}\n",
                                out)
        if section in REMOVED_SECTIONS:
            expected = f"line 5: unknown section [{section}]"
        else:
            expected = f"line 6: {command} does not read [{section}]"
        assert expected in message


def _src_env(**extra):
    src = str(Path(degenflow.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                **extra)


def _loaded_by_cli_import(*modules, run="", command=None, config=None):
    """Those of modules that are in sys.modules after a fresh interpreter
    imports the CLI and then executes the statements run, or runs command
    on the config file config and checks that it exits 0."""
    if command is not None:
        run = f"assert degenflow.cli.main([{command!r}, '--config', {str(config)!r}]) == 0"
    code = (f"import sys, degenflow.cli\n{run}\n"
            f"print(*(m for m in {modules!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


# one small config of each command, for the import checks
SMALL_CFGS = {
    "eigen": EIGEN_CFG,
    "solve": ("command = solve\noutput_dir = {out}\n[problem]\nmode = tensor2d\n"
              "resolution = 8\np = 3.0\nweight = power\ntheta_w = 1.0\nt_end = 0.01\n"
              "dt0 = 1e-3\n"),
    "blowup-scan": SCAN_CFG,
    "verify-exact": VERIFY_CFG,
    "weights-check": ("command = weights-check\noutput_dir = {out}\n[problem]\n"
                      "mode = interval\nweight = power\ntheta_w = 1.0\n"),
    "decay-fit": DECAY_CFG,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_no_scipy_python_layer_in_any_command(tmp_path, command):
    """Every command runs on scipy's compiled kernels alone, its LAPACK and
    CSR extension modules loaded by file path: neither scipy.sparse nor
    scipy.linalg nor the scipy._lib they share, about 0.2 s of start-up,
    is ever imported."""
    path = tmp_path / "c.cfg"
    path.write_text(SMALL_CFGS[command].format(out=tmp_path / "out"))
    assert not _loaded_by_cli_import("scipy.sparse", "scipy.linalg", "scipy._lib",
                                     command=command, config=path)


def test_cli_import_leaves_scipy_integrate_unloaded():
    """scipy.integrate is slow to import and the package needs none of it,
    so importing the CLI must not load it."""
    assert not _loaded_by_cli_import("scipy.integrate")


def test_cli_import_leaves_scipy_fft_unloaded(tmp_path):
    """The tensor eigensolver loads scipy's compiled pocketfft by file path
    for its sine transforms, so neither importing the CLI nor a tensor
    eigensolve imports scipy.fft, or the scipy.special it pulls in:
    together about 0.1 s of start-up."""
    path = tmp_path / "e.cfg"
    path.write_text(
        f"command = eigen\noutput_dir = {tmp_path / 'e'}\n[problem]\nmode = tensor2d\n"
        "resolution = 16\np = 3.0\nweight = power\ntheta_w = 1.0\n"
    )
    run = f"assert degenflow.cli.main(['eigen', '--config', {str(path)!r}]) == 0"
    assert not _loaded_by_cli_import("scipy.fft", "scipy.special", run=run)
    assert (tmp_path / "e" / "eigenpair.json").exists()


def test_tensor_eigen_is_blas_thread_independent(tmp_path):
    """A tensor eigensolve writes the same eigenpair.json with one BLAS thread
    as with two.  At 103 x 103 unknowns OpenBLAS splits a dot product across
    its threads, so BLAS inner products there changed the iteration count
    with the thread count."""
    path = tmp_path / "e.cfg"
    path.write_text(
        "command = eigen\noutput_dir = e\n[problem]\nmode = tensor2d\nresolution = 104\n"
        "p = 3.0\nweight = power\ntheta_w = 1.0\n[eigen]\ntol = 1e-7\n"
    )
    runs = []
    for threads in ("1", "2"):
        env = _src_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads_{threads}"
        args = [sys.executable, "-m", "degenflow", "eigen", "--config", str(path),
                "--out", str(out)]
        runs.append((subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL), out))
    for proc, _ in runs:
        assert proc.wait(timeout=120) == EXIT_OK
    one, two = ((out / "eigenpair.json").read_bytes() for _, out in runs)
    assert one == two
