"""Config parsing, command dispatch, exit codes, and artifact determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import degenflow
from degenflow.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNDECIDED,
    main,
    parse_config,
)
from degenflow.errors import ConfigError

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


class TestParseConfig:
    def test_defaults_fill_in(self):
        cfg = parse_config("command = eigen\noutput_dir = out\n")
        assert cfg.command == "eigen"
        assert cfg.sections["problem"]["resolution"] == 128
        assert cfg.sections["problem"]["p"] == 2.0
        assert cfg.sections["controls"]["dt_min"] == 1e-12

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

    def test_comments_and_blanks_ignored(self):
        text = "# top\ncommand = eigen\n\noutput_dir = o\n[problem]\n# note\nresolution = 16\n"
        cfg = parse_config(text)
        assert cfg.sections["problem"]["resolution"] == 16

    def test_float_list(self):
        text = ("command = solve\noutput_dir = o\n[problem]\n"
                "snapshot_times = 0.1, 0.2, 0.4\n")
        cfg = parse_config(text)
        assert cfg.sections["problem"]["snapshot_times"] == [0.1, 0.2, 0.4]

    def test_readme_configs_parse(self):
        """Every ini block of the README is a config parse_config accepts, so
        the documented examples cannot keep a key the schema dropped."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)
        assert blocks
        for block in blocks:
            parse_config(block)

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
        monkeypatch.chdir(tmp_path)
        text = (
            "command = weights-check\noutput_dir = wout\n"
            "[problem]\nmode = radial\nn = 2\nextent = 4.0\nweight = power\ntheta_w = 1.0\n"
        )
        path = tmp_path / "w.cfg"
        path.write_text(text)
        assert main(["weights-check", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "wout" / "summary.json").read_text())
        assert summary["muckenhoupt"]["passes"] is True
        assert summary["doubling"]["passes"] is True

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
            f"[problem]\n{problem}extent = 4.0\nweight = power\ntheta_w = 1.0\n"
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

    def test_weights_check_tabulated(self, tmp_path):
        """A tabulated weight's check verdicts are numpy bools; they are
        written as JSON bools and the run exits 0 with a whole summary."""
        csv = tmp_path / "w.csv"
        csv.write_text("0,1\n0.5,2\n1,3\n")
        path = tmp_path / "w.cfg"
        path.write_text(
            f"command = weights-check\noutput_dir = {tmp_path / 'wout'}\n[problem]\n"
            f"mode = radial\nn = 2\nweight = tabulated\nweight_csv = {csv}\n"
        )
        assert main(["weights-check", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "wout" / "summary.json").read_text())
        assert isinstance(summary["muckenhoupt"]["passes"], bool)

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
        path = tmp_path / "sc.cfg"
        path.write_text(text)
        # both probes complete without decaying or blowing up: undecided
        assert main(["blowup-scan", "--config", str(path)]) == EXIT_UNDECIDED

    @pytest.mark.parametrize("command, base, sweep", [
        ("eigen", EIGEN_CFG, "parameter = p\nvalues = 2.0, 3.0\n"),
        ("solve", SOLVE_CFG, "parameter = mode\nvalues = 1.0\n"),
        ("solve", SOLVE_CFG, "parameter = snapshot_times\nvalues = 0.01\n"),
        ("solve", SOLVE_CFG, "parameter = resolution\nvalues = 16.5, 32\n"),
    ], ids=["eigen", "string-key", "list-key", "non-integer"])
    def test_unusable_sweep_is_config_error(self, tmp_path, command, base, sweep):
        """A sweep the command would ignore, over a key whose values are not
        numbers, or with a value the key does not accept fails at parse time
        with exit 2 and error.json."""
        path = tmp_path / "sw.cfg"
        path.write_text(base.format(out=tmp_path / "cfg_out") + "\n[sweep]\n" + sweep)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        error = json.loads((out / "error.json").read_text())
        assert error["error_kind"] == "config"
        assert "sweep" in error["message"]
        assert sorted(os.listdir(out)) == ["error.json"]

    @pytest.mark.parametrize("command, mode, extra", [
        ("eigen", "interval", ""),
        ("solve", "interval", "reaction = power\ninitial = sin\nt_end = 0.05\ndt0 = 1e-3\n"),
        ("eigen", "tensor2d", ""),
    ], ids=["eigen", "solve", "eigen-tensor2d"])
    def test_singular_stiffness_is_numerical_error(self, tmp_path, command, mode, extra):
        """A tabulated weight that vanishes on part of the domain makes the
        interior stiffness singular, or on tensor grids the eigensolver's
        weight scaling undefined: exit 3 with a numerical error.json."""
        csv = tmp_path / "w.csv"
        csv.write_text("0,1\n0.3,1\n0.4,0\n1,0\n")
        path = tmp_path / "z.cfg"
        path.write_text(
            f"command = {command}\noutput_dir = {tmp_path / 'zout'}\n[problem]\n"
            f"mode = {mode}\nresolution = 32\np = 2.0\n"
            f"weight = tabulated\nweight_csv = {csv}\n{extra}"
        )
        assert main([command, "--config", str(path)]) == EXIT_NUMERICAL
        error = json.loads((tmp_path / "zout" / "error.json").read_text())
        assert error["error_kind"] == "numerical"
        assert error["error_type"] == "FactorError"
        assert "not positive definite" in error["message"]

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
    ])
    def test_solver_constant_is_not_a_key(self, tmp_path, section, key):
        """The Newton limit, the step-size growth rule, the eigensolver
        iteration limit, the residual-check margins and the weight-class cap
        are constants of their modules: a config that sets one exits 2 with
        error.json naming the line."""
        text = EIGEN_CFG.format(out=tmp_path / "out") + f"\n[{section}]\n{key} = 1\n"
        path = tmp_path / "k.cfg"
        path.write_text(text)
        assert main(["eigen", "--config", str(path)]) == EXIT_CONFIG
        error = json.loads((tmp_path / "out" / "error.json").read_text())
        lineno = text.splitlines().index(f"{key} = 1") + 1
        assert f"line {lineno}: unknown key {key!r}" in error["message"]
        assert sorted(os.listdir(tmp_path / "out")) == ["error.json"]

    def test_verify_exact_reads_no_step_controls(self, tmp_path):
        """verify-exact takes no time step, so a [controls] dt_max below the
        default dt0 does not stop it; sample_times default to 1, 3 and 10."""
        path = tmp_path / "v.cfg"
        path.write_text(
            f"command = verify-exact\noutput_dir = {tmp_path / 'vout'}\n[problem]\n"
            "mode = radial\nn = 2\nextent = 8.0\np = 3.0\n"
            "[verify]\nresolutions = 16, 32, 64\n[controls]\ndt_max = 1e-5\n"
        )
        assert main(["verify-exact", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "vout" / "summary.json").read_text())
        assert summary["sample_times"] == [1.0, 3.0, 10.0]

    def test_sweep_runs_are_separate(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = SOLVE_CFG.format(out="sw") + "\n[sweep]\nparameter = amplitude\nvalues = 0.5, 1.5\n"
        path = tmp_path / "sw.cfg"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "sw" / "summary.json").read_text())
        assert len(summary["runs"]) == 2
        assert (tmp_path / "sw" / "runs" / "amplitude_0.5" / "outcome.json").exists()
        assert (tmp_path / "sw" / "runs" / "amplitude_1.5" / "outcome.json").exists()


def _src_env(**extra):
    src = str(Path(degenflow.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                **extra)


def _loaded_by_cli_import(module):
    code = f"import sys, degenflow.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_integrate_unloaded():
    """scipy.integrate is slow to import and only the weights-check
    quadrature needs it, so importing the CLI must not load it."""
    assert not _loaded_by_cli_import("scipy.integrate")


def test_cli_import_leaves_scipy_fft_unloaded():
    """scipy.fft costs about 0.1 s to import and only tensor eigensolves
    need it, so it must not land in every command's start-up."""
    assert not _loaded_by_cli_import("scipy.fft")


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
