"""Command line front end: config parsing, experiment orchestration, and
deterministic artifact output.

Config files are line-oriented ``key = value`` with ``[section]`` headers.
Unknown keys, and keys set twice, are rejected with the offending line
number.  Each command writes its own artifacts and returns its summary
body; run_command alone writes summary.json.  Artifacts are reproducible:
JSON is written with sorted keys, floats use repr-faithful formatting,
iteration orders are fixed, and nothing embeds a timestamp.

Exit codes: 0 success, 2 config or usage error, 3 numerical failure,
4 undecided scan.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .discretization import Field, build_grid, grid_dimension, integrate, write_field_csv
from .eigensolver import (STEADY_STATE_TOL, check_tol, smallest_eigenpair, steady_state,
                          unstable_mode)
from .errors import ConfigError, ConvergenceError, DegenflowError
from .jsonio import write_json
from .plap_operator import ReactionSpec
from .timestepper import (KIND_BLOWUP, KIND_DECAYED, ProblemSpec, bisect_dichotomy,
                          certificate_holds, check_rel_tol, run_simulation)
from .weight_models import WeightSpec, check_doubling, check_muckenhoupt

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNDECIDED = 4

# verify-exact's grids and sample times where [verify] sets none
_VERIFY_RESOLUTIONS = (64, 128, 256)
_VERIFY_SAMPLE_TIMES = (1.0, 3.0, 10.0)


def _as_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _as_int(raw):
    value = _as_float(raw)
    if value != int(value):
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(value)


def _choice(*names):
    """Converter for a key that takes one of names, in any letter case; it
    returns the value lowercased."""
    def convert(raw):
        value = raw.lower()
        if value not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {raw!r}")
        return value
    return convert


def _list_of(convert):
    """Converter for a nonempty comma-separated list of convert's values."""
    def convert_list(raw):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ValueError("expected a nonempty comma-separated list")
        return [convert(p) for p in parts]
    return convert_list


# Section schema: key -> (converter, default); a None default leaves it unset.
_SCHEMA = {
    "": {
        "command": (str, None),
        "output_dir": (str, None),
    },
    "problem": {
        "mode": (_choice("interval", "radial", "tensor2d"), "interval"),
        "extent": (_as_float, 1.0),
        "resolution": (_as_int, 128),
        "n": (_as_int, None),
        "p": (_as_float, 2.0),
        "weight": (_choice("none", "power"), "none"),
        "theta_w": (_as_float, 0.0),
        "theta_mk": (_as_float, 2.0),
        "mu": (_as_float, None),
        "reaction": (_choice("none", "power", "exp_forced"), "none"),
        "alpha0": (_as_float, 1.0),
        "sigma": (_as_float, 2.0),
        "c6": (_as_float, 1.0),
        "initial": (_choice("sin", "barenblatt"), "sin"),
        "amplitude": (_as_float, 1.0),
        "initial_time": (_as_float, 1.0),
        "t_end": (_as_float, 1.0),
        "dt0": (_as_float, 1e-4),
        "snapshot_times": (_list_of(_as_float), None),
    },
    "controls": {
        "dt_max": (_as_float, 0.1),
    },
    "eigen": {
        "tol": (_as_float, None),
    },
    "scan": {
        "values": (_list_of(_as_float), None),
        "rel_tol": (_as_float, 0.05),
    },
    "verify": {
        "resolutions": (_list_of(_as_int), None),
        "sample_times": (_list_of(_as_float), None),
    },
    "decay": {
        "window_start": (_as_float, 1.0),
        "window_end": (_as_float, 10.0),
    },
}

# The [problem] keys each reaction family never reads.
_REACTION_KEYS_UNREAD = {"none": ("alpha0", "sigma", "c6"), "power": ("c6",),
                         "exp_forced": ("alpha0",)}


def _reads(command, problem):
    """The sections command reads besides the top level, and the [problem]
    keys it never reads mapped to the setting that leaves them unread.  The
    unit weight (weight = none) is the power weight at theta_w = 0."""
    _run, sections, never_read = _COMMANDS[command]
    reaction = problem["reaction"]
    if command == "solve" and reaction != "none":
        sections += ("eigen",)
    unread = dict.fromkeys(_REACTION_KEYS_UNREAD[reaction], f"reaction = {reaction}")
    if problem["weight"] == "none" and problem["theta_w"] != 0.0:
        unread["theta_w"] = "weight = none"
    if problem["initial"] != "barenblatt":
        unread["initial_time"] = f"initial = {problem['initial']}"
    if problem["mode"] != "radial":
        unread["n"] = f"mode = {problem['mode']}"
    unread.update(dict.fromkeys(never_read, command))
    return sections, unread


@dataclass
class ExperimentConfig:
    command: str
    output_dir: str
    sections: dict = field(default_factory=dict)
    lines: dict = field(default_factory=dict)  # (section, key) -> line that sets it


def parse_config(text, command_override=None):
    """Parse a config document into an ExperimentConfig.

    Unknown sections or keys, malformed lines, type mismatches, keys set
    twice in a section or in a section the command does not read, and
    [problem] keys that the command, its reaction family or its weight kind
    never reads raise ConfigError naming the line.  command_override (from
    argv) must agree with an in-file command when both are given.
    """
    sections = {name: dict() for name in _SCHEMA}
    try:
        return _parse_sections(text, sections, command_override)
    except ConfigError as exc:
        # lets main report the error into the output directory it names
        exc.output_dir = sections[""].get("output_dir")
        raise


def _parse_sections(text, sections, command_override):
    current = ""
    explicit = {}  # (section, key) -> line of each key the file sets
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SCHEMA or current == "":
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip().lower()
        value = raw_value.strip()
        schema = _SCHEMA[current]
        if key not in schema:
            where = f"[{current}]" if current else "top level"
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {where}")
        if (current, key) in explicit:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line "
                              f"{explicit[current, key]}")
        converter, _default = schema[key]
        try:
            sections[current][key] = converter(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        explicit[current, key] = lineno

    for name, schema in _SCHEMA.items():
        for key, (_conv, default) in schema.items():
            sections[name].setdefault(key, default)

    command = sections[""]["command"]
    if command_override is not None:
        if command is not None and command != command_override:
            raise ConfigError(
                f"config says command = {command}, command line says {command_override}"
            )
        command = command_override
    if command is None:
        raise ConfigError("no command given (config key 'command' or argv)")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")

    reads, unread = _reads(command, sections["problem"])
    for (name, key), lineno in explicit.items():
        if name and name not in reads:
            raise ConfigError(f"line {lineno}: {command} does not read [{name}] ({key!r})")
        if name == "problem" and key in unread:
            raise ConfigError(f"line {lineno}: {unread[key]} does not read {key!r} in [problem]")

    out = sections[""]["output_dir"] or "degenflow-out"
    cfg = ExperimentConfig(command=command, output_dir=out, sections=sections, lines=explicit)
    _check_values(cfg, reads)
    return cfg


def _at_line(exc, lines):
    """The ConfigError exc prefixed with the line that sets the first of its
    keys that the file sets, or exc itself when the file sets none."""
    found = [line for key in exc.keys for (_name, k), line in lines.items() if k == key]
    return ConfigError(f"line {found[0]}: {exc}") if found else exc


def _check_values(cfg, reads):
    """The checks of the sections read that need no data, each made by the
    object the value configures: the grid (only its dimension in
    weights-check, which builds none), the ProblemSpec exponent checks (but
    in weights-check, which reads no p and takes any theta_w), barenblatt
    data's and the schedule checks, the weight, the eigensolver tol, the
    scan, the reaction term, verify-exact's grid mode, p, resolutions and
    sample times, and decay-fit's reaction term and window.  A bad value
    fails at parse time, before any work, naming the line of its key."""
    sections = cfg.sections
    prob = sections["problem"]
    try:
        if cfg.command == "weights-check":
            grid_dimension(prob["mode"], prob["n"])
        else:
            dim = _build_grid(cfg).dim
            ProblemSpec.check_exponents(prob["p"], prob["theta_w"])
            if prob["initial"] == "barenblatt":
                diag._check_barenblatt_args(prob["initial_time"], _exponents(cfg, dim))
        WeightSpec.power(prob["theta_w"], prob["theta_mk"])
        if "controls" in reads:
            ProblemSpec.check_schedule(prob["t_end"], prob["dt0"],
                                       sections["controls"]["dt_max"],
                                       prob["snapshot_times"] or ())
        if "eigen" in reads and sections["eigen"]["tol"] is not None:
            check_tol(sections["eigen"]["tol"])
        if "scan" in reads:
            _check_scan(sections["scan"], prob, ("problem", "amplitude") in cfg.lines)
        # after _check_scan, whose sigma message names the threshold
        _build_reaction(cfg)
        if "verify" in reads:
            if prob["mode"] not in ("radial", "interval"):
                raise ConfigError("verify-exact runs on radial or interval grids", keys=("mode",))
            if not prob["p"] > 2.0:
                raise ConfigError("verify-exact needs p > 2", keys=("p",))
            resolutions = sections["verify"]["resolutions"] or _VERIFY_RESOLUTIONS
            if len(resolutions) < 3:
                raise ConfigError("verify-exact needs at least 3 resolutions",
                                  keys=("resolutions",))
            if min(resolutions) < 4:
                raise ConfigError(f"resolutions must be at least 4 cells, got {min(resolutions)}",
                                  keys=("resolutions",))
            earliest = min(sections["verify"]["sample_times"] or _VERIFY_SAMPLE_TIMES)
            if not earliest > 0.0:
                raise ConfigError(f"sample times must be positive, got {earliest}",
                                  keys=("sample_times",))
        if "decay" in reads:
            if prob["reaction"] != "none":
                raise ConfigError("decay-fit fits the unforced flow: reaction must be none",
                                  keys=("reaction",))
            _decay_window(cfg)
    except ConfigError as exc:
        raise _at_line(exc, cfg.lines)


def _decay_window(cfg):
    """decay-fit's window and the time offset its run starts at, initial_time
    with barenblatt data and else 0.  ConfigError for a window that holds at
    most one of the run's shifted times, or sin data's t = 0, which has no log."""
    prob = cfg.sections["problem"]
    start, end = cfg.sections["decay"]["window_start"], cfg.sections["decay"]["window_end"]
    offset = prob["initial_time"] if prob["initial"] == "barenblatt" else 0.0
    last = prob["t_end"] + offset
    if not start < end:
        raise ConfigError(f"need window_start < window_end, got [{start}, {end}]",
                          keys=("window_start", "window_end"))
    if not start < last:
        raise ConfigError(f"decay window [{start}, {end}] starts at or after the run's last "
                          f"shifted time {last}", keys=("window_start", "t_end"))
    if not end > offset:
        raise ConfigError(f"decay window [{start}, {end}] ends at or before the run's first "
                          f"shifted time {offset}", keys=("window_end", "initial_time"))
    if prob["initial"] == "sin" and not start > 0.0:
        raise ConfigError(f"decay window needs window_start > 0 with initial = sin, got {start}",
                          keys=("window_start",))
    return (start, end), offset


def _check_scan(scan, prob, sets_amplitude):
    """Raise ConfigError unless the problem has a power reaction term with
    alpha0 > 0 and sigma > p - 1 (exp_forced blows up at every amplitude,
    and alpha0 <= 0 or sigma <= p - 1 at none) and no amplitude of its own,
    and [scan] sets values, all positive, and a rel_tol that check_rel_tol
    accepts: the scan probes those amplitudes, bisects geometrically and
    stops on its bracket's ratio."""
    if prob["reaction"] == "none":
        raise ConfigError("blowup-scan needs a reaction term", keys=("reaction",))
    if prob["reaction"] == "exp_forced":
        raise ConfigError("blowup-scan needs reaction = power: exp_forced blows up every "
                          "positive amplitude, so there is no threshold", keys=("reaction",))
    if not prob["alpha0"] > 0.0:
        raise ConfigError(f"blowup-scan needs alpha0 > 0, got {prob['alpha0']}: without the "
                          "reaction every amplitude decays", keys=("alpha0",))
    if not prob["sigma"] > prob["p"] - 1.0:
        raise ConfigError(f"blowup-scan with reaction = power needs sigma > p - 1, got "
                          f"sigma = {prob['sigma']}, p = {prob['p']}", keys=("sigma", "p"))
    if sets_amplitude:
        raise ConfigError("blowup-scan does not read 'amplitude' in [problem]: it probes the "
                          "[scan] values", keys=("amplitude",))
    if scan["values"] is None:
        raise ConfigError("blowup-scan needs [scan] values")
    bad = [a for a in scan["values"] if not a > 0.0]
    if bad:
        raise ConfigError(f"scan values must be positive, got {bad[0]}", keys=("values",))
    check_rel_tol(scan["rel_tol"])


def _fmt_value(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return ", ".join(_fmt_value(v) for v in value)
    return str(value)


def resolved_config_text(cfg):
    """Canonical echo of the config as the command reads it (sorted)."""
    lines = [f"command = {cfg.command}", f"output_dir = {cfg.output_dir}"]
    sections = _config_payload(cfg)["sections"]
    for name in sorted(s for s in sections if s and sections[s]):
        lines.append("")
        lines.append(f"[{name}]")
        for key in sorted(sections[name]):
            lines.append(f"{key} = {_fmt_value(sections[name][key])}")
    return "\n".join(lines) + "\n"


def _config_payload(cfg):
    """The sections the command reads, without unread or unset keys."""
    reads, unread = _reads(cfg.command, cfg.sections["problem"])
    sections = {
        name: {k: v for k, v in body.items()
               if v is not None and not (name == "problem" and k in unread)}
        for name, body in cfg.sections.items()
        if name == "" or name in reads
    }
    return {"command": cfg.command, "output_dir": cfg.output_dir, "sections": sections}


def _csv_header(cfg):
    return (
        f"schema_version = {SCHEMA_VERSION}",
        "config: " + json.dumps(_config_payload(cfg), sort_keys=True),
    )


# ------------------------------------------------------------ problem build


def _build_weight(cfg):
    """None, the unit weight, for weight = none and the power weight at
    theta_w = 0; _reads rejects weight = none with another theta_w."""
    prob = cfg.sections["problem"]
    if prob["theta_w"] == 0.0:
        return None
    return WeightSpec.power(prob["theta_w"])


def _build_grid(cfg):
    prob = cfg.sections["problem"]
    return build_grid(prob["mode"], prob["extent"], prob["resolution"], n=prob["n"])


def _exponents(cfg, n):
    prob = cfg.sections["problem"]
    mu = prob["mu"] if prob["mu"] is not None else WeightSpec.power(prob["theta_w"]).natural_mu(n)
    return diag.Exponents(n=n, p=prob["p"], mu=mu, theta_w=prob["theta_w"])


def _initial_values(cfg, grid):
    prob = cfg.sections["problem"]
    a = prob["amplitude"]
    ext = grid.extent
    if prob["initial"] == "barenblatt":
        vals = a * diag.barenblatt_corrected(grid.radius(), prob["initial_time"],
                                             _exponents(cfg, grid.dim))
    elif grid.mode == "interval":
        vals = a * np.sin(np.pi * grid.axes[0] / ext)
    elif grid.mode == "tensor2d":
        x, y = grid.axes
        vals = a * np.sin(np.pi * x / ext)[:, None] * np.sin(np.pi * y / ext)[None, :]
    else:
        vals = a * np.cos(0.5 * np.pi * grid.axes[0] / ext)
    # sin(pi) and cos(pi / 2) are not 0.0 in floating point
    vals[grid.boundary_mask] = 0.0
    return vals


def _build_reaction(cfg, eigenpair=None):
    prob = cfg.sections["problem"]
    if prob["reaction"] == "none":
        return ReactionSpec.none()
    if prob["reaction"] == "power":
        return ReactionSpec.power(prob["alpha0"], prob["sigma"])
    lambda1 = eigenpair.eigenvalue if eigenpair is not None else 0.0
    return ReactionSpec.exp_forced(prob["c6"], prob["sigma"], lambda1)


def _build_problem(cfg, grid, weight, eigenpair):
    prob = cfg.sections["problem"]
    initial = Field(grid, _initial_values(cfg, grid))
    snaps = tuple(prob["snapshot_times"] or ())
    return ProblemSpec(
        grid=grid,
        weight=weight,
        p=prob["p"],
        reaction=_build_reaction(cfg, eigenpair),
        initial=initial,
        t_end=prob["t_end"],
        dt0=prob["dt0"],
        dt_max=cfg.sections["controls"]["dt_max"],
        snapshot_times=snaps,
    )


def _solve_eigen(cfg, grid, weight, out=None):
    """The config's eigenpair.  A stalled solve leaves its best iterate's
    record, residual history included, in out, beside the error.json that
    main writes."""
    try:
        return smallest_eigenpair(grid, weight, cfg.sections["problem"]["p"],
                                  tol=cfg.sections["eigen"]["tol"])
    except ConvergenceError as exc:
        if out is not None and exc.best is not None:
            exc.best.to_json(out / "eigenpair.json")
        raise


# -------------------------------------------------------------- subcommands


def _cmd_eigen(cfg, out):
    pair = _solve_eigen(cfg, _build_grid(cfg), _build_weight(cfg), out)
    pair.to_csv(out / "eigenfunction.csv")
    pair.to_json(out / "eigenpair.json")
    return {
        "lambda1": pair.eigenvalue,
        "residual": pair.residual,
        "iterations": pair.iterations,
    }, EXIT_OK


def _run_one(cfg, grid, weight, eigenpair, out_dir, certificate=None, fit_window=False):
    spec = _build_problem(cfg, grid, weight, eigenpair)
    outcome = run_simulation(spec, eigenpair=eigenpair, certificate=certificate,
                             fit_window=fit_window)
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome.trajectory.to_csv(out_dir / "trajectory.csv", header_lines=_csv_header(cfg))
    outcome.to_json(out_dir / "outcome.json",
                    extra={"amplitude": cfg.sections["problem"]["amplitude"]})
    for ts in sorted(outcome.trajectory.snapshots):
        snap = outcome.trajectory.snapshots[ts]
        write_field_csv(snap, out_dir / f"snapshot_t{ts:.6g}.csv",
                        header_lines=_csv_header(cfg) + (f"t = {ts:.17g}",))
    return outcome


def _cmd_solve(cfg, out):
    prob = cfg.sections["problem"]
    grid = _build_grid(cfg)
    weight = _build_weight(cfg)
    if prob["reaction"] == "none":
        return _run_one(cfg, grid, weight, None, out).payload(), EXIT_OK
    eigenpair = _solve_eigen(cfg, grid, weight, out)
    outcome = _run_one(cfg, grid, weight, eigenpair, out)
    body = outcome.payload()
    lam1 = body["lambda1"] = eigenpair.eigenvalue
    if prob["reaction"] == "power":
        body.update(diag.bernoulli_comparison(outcome.trajectory, lam1, prob["sigma"],
                                              g0=body["g0"]))
    else:
        body.update(diag.exp_forced_comparison(outcome.trajectory, lam1, prob["sigma"]))
    return body, EXIT_OK


def _steady_state_bracket(cfg, spec, eigenpair, body):
    """Add to body [a_sub, a_super], the range of U / phi0 over the interior
    nodes for the steady state U and the data phi0 of spec, at amplitude 1,
    and g0 at both; with the unit weight, where U certifies, also nu1 and
    a_lin (unstable_mode).  Return U if it certifies the runs of spec
    (certificate_holds; only then is it solved to STEADY_STATE_TOL), else
    None; a steady state that does not converge is recorded in body instead."""
    prob = cfg.sections["problem"]
    grid, weight, phi0 = spec.grid, spec.weight, spec.initial.values
    certifies = certificate_holds(spec)
    try:
        u = steady_state(grid, weight, prob["p"], prob["alpha0"], prob["sigma"],
                         tol=STEADY_STATE_TOL if certifies else None)
    except ConvergenceError as exc:
        body["steady_state_error"] = str(exc)
        return None
    with np.errstate(divide="ignore"):
        ratio = u.values.ravel()[grid.interior] / phi0.ravel()[grid.interior]
    g0_unit = integrate(Field(grid, phi0 * eigenpair.eigenfunction.values), weight)
    body.update(a_sub=ratio.min(), a_super=ratio.max(), g0_sub=ratio.min() * g0_unit,
                g0_super=ratio.max() * g0_unit)
    body["certifies_midpoints"] = certifies
    if certifies and weight is None:
        # A phi0 meets the tangent <e, u - U>_V = 0 of U's stable manifold
        body["nu1"], mode = unstable_mode(u, prob["alpha0"], prob["sigma"])
        body["a_lin"] = (integrate(Field(grid, mode.values * u.values))
                         / integrate(Field(grid, mode.values * phi0)))
    return u if certifies else None


def _cmd_blowup_scan(cfg, out):
    """Bisect for the critical amplitude (bisect_dichotomy) and fit the
    Bernoulli comparison on the bracket's blow-up end.  Every probe ends at
    the eventual verdict certified by the steady state U
    (_steady_state_bracket); with the unit weight the midpoints start
    around U's prediction a_lin.  Certified blow-ups of a configured value
    and of the bracket's end run again, keeping the probe's certified_at:
    the former in full for its T_est, the latter, like every midpoint, up
    to where run_simulation's fit_window proves the blow-up past the states
    C is fitted on.  A blow-up end whose rerun does not blow up by t_end is
    the undecided midpoint, with no bracket.  Where [a_sub, a_super] was
    found, contradicting_values lists the configured values that, run to
    their end, blew up below a_sub or decayed above a_super."""
    grid = _build_grid(cfg)
    weight = _build_weight(cfg)
    scan = cfg.sections["scan"]

    def with_amplitude(a):
        # each probe runs, and echoes, its own config: the scan's with
        # amplitude a
        sections = {name: dict(body) for name, body in cfg.sections.items()}
        sections["problem"]["amplitude"] = a
        return ExperimentConfig(cfg.command, cfg.output_dir, sections)

    eigenpair = _solve_eigen(cfg, grid, weight, out)
    lam1 = eigenpair.eigenvalue
    body = {"lambda1": lam1, "rel_tol": scan["rel_tol"]}
    # the scan config's amplitude is the default 1: _check_scan rejects a set one
    certificate = _steady_state_bracket(cfg, _build_problem(cfg, grid, weight, None),
                                        eigenpair, body)

    def probe(a, certify=True):
        return _run_one(with_amplitude(a), grid, weight, eigenpair,
                        out / "runs" / f"A_{a:.17g}", certificate if certify else None,
                        fit_window=a not in scan["values"])

    runs, bracket, undecided = bisect_dichotomy(probe, scan["values"], scan["rel_tol"],
                                                body.get("a_lin"))
    certified = {a: oc.certified_at for a, oc in runs.items()}
    for a in sorted(runs):
        if (certified[a] is not None and runs[a].kind == KIND_BLOWUP
                and (a in scan["values"] or bracket is not None and a == bracket[1])):
            runs[a] = probe(a, certify=False)
    if bracket is not None and runs[bracket[1]].kind != KIND_BLOWUP:
        # it blows up after t_end, so there is no blow-up to fit C on
        bracket, undecided = None, bracket[1] if undecided is None else undecided
    body.update(undecided_midpoint=undecided,
                runs=[{"amplitude": a, "kind": runs[a].kind, "certified_at": certified[a],
                       "g0": runs[a].trajectory.weighted_mass[0], "T_est": runs[a].t_est}
                      for a in sorted(runs)])
    if "a_sub" in body:
        body["contradicting_values"] = [
            a for a in sorted(set(scan["values"]))
            if runs[a].kind == KIND_BLOWUP and a < body["a_sub"]
            or runs[a].kind == KIND_DECAYED and a > body["a_super"]]
    if bracket is not None:
        a_lo, a_hi = bracket
        body.update(a_decay=a_lo, a_blowup=a_hi, bracket_ratio=a_hi / a_lo,
                    g0_decay=runs[a_lo].trajectory.weighted_mass[0],
                    g0_blowup=runs[a_hi].trajectory.weighted_mass[0])
        body.update(diag.bernoulli_comparison(runs[a_hi].trajectory, lam1,
                                              cfg.sections["problem"]["sigma"]))
        if "threshold_operative" in body:
            body["g0_decay_le_operative"] = bool(body["g0_decay"] <= body["threshold_operative"])
    return body, EXIT_OK if bracket is not None and undecided is None else EXIT_UNDECIDED


def _cmd_verify_exact(cfg, out):
    prob = cfg.sections["problem"]
    ver = cfg.sections["verify"]
    resolutions = ver["resolutions"] or _VERIFY_RESOLUTIONS
    sample_times = ver["sample_times"] or _VERIFY_SAMPLE_TIMES
    weight = _build_weight(cfg)
    variants = {
        diag.VARIANT_VERBATIM: diag.barenblatt_exact,
        diag.VARIANT_CORRECTED: diag.barenblatt_corrected,
    }

    rows = [f"# {line}\n" for line in _csv_header(cfg)] + ["variant,resolution,residual\n"]
    exps = _exponents(cfg, grid_dimension(prob["mode"], prob["n"]))
    report = {}
    for name in sorted(variants):
        residuals = []
        for res in resolutions:
            grid = build_grid(prob["mode"], prob["extent"], res, n=prob["n"])
            residuals.append(diag.residual_check(
                lambda g, t: variants[name](g.radius(), t, exps), grid, weight, prob["p"],
                sample_times))
            rows.append(f"{name},{res},{residuals[-1]:.17g}\n")
        ratios = [a / b if b > 0 else float("inf") for a, b in zip(residuals, residuals[1:])]
        report[name] = {"residuals": residuals, "resolutions": list(resolutions),
                        "ratios": ratios,
                        "converges": bool(ratios and all(q >= 1.5 for q in ratios))}
    (out / "residuals.csv").write_text("".join(rows))

    convergent = [name for name in sorted(report) if report[name]["converges"]]
    return {
        "variants": report,
        "convergent_variant": convergent[0] if len(convergent) == 1 else
        (convergent if convergent else "none"),
        "sample_times": list(sample_times),
    }, EXIT_OK


def _cmd_weights_check(cfg, out):
    prob = cfg.sections["problem"]
    # the unit weight of weight = none is the power weight at theta_w = 0
    weight = WeightSpec.power(prob["theta_w"], prob["theta_mk"])
    n = grid_dimension(prob["mode"], prob["n"])
    mu = _exponents(cfg, n).mu
    return {
        "n": n,
        "mu": mu,
        "muckenhoupt": asdict(check_muckenhoupt(weight, n)),
        "doubling": asdict(check_doubling(weight, n, mu, [(2.0, 1.0)])),
    }, EXIT_OK


def _cmd_decay_fit(cfg, out):
    grid = _build_grid(cfg)
    outcome = _run_one(cfg, grid, _build_weight(cfg), None, out)
    exps = _exponents(cfg, grid.dim)
    window, offset = _decay_window(cfg)
    fit = diag.decay_exponent_fit(outcome.trajectory, window, time_offset=offset)
    body = {
        "kind": outcome.kind,
        "fit": fit,
        "window": list(window),
        "time_offset": offset,
        "predicted_n_over_beta": -exps.n / exps.beta,
        "predicted_n_over_k": (-exps.n / exps.k) if exps.k != 0 else None,
        "beta": exps.beta,
        "k": exps.k,
    }
    body["gap_to_beta"] = abs(fit["exponent"] - body["predicted_n_over_beta"])
    if body["predicted_n_over_k"] is not None:
        body["gap_to_k"] = abs(fit["exponent"] - body["predicted_n_over_k"])
    return body, EXIT_OK


# Each command: the function that runs it, the sections it reads besides
# the top level, and the [problem] keys it never reads.  solve reads
# [eigen] too when a reaction term makes it compute the eigenpair
# (_reads).  A key set in any other section, or a [problem] key the
# command never reads, is a config error, not a silent no-op: eigen,
# verify-exact and weights-check take no time step and have no reaction
# or initial data, only decay-fit and weights-check read mu (the
# self-similar profiles do not), verify-exact builds its grids at the
# [verify] resolutions, and only weights-check reads theta_mk and builds
# no grid.
_EVOLUTION_KEYS = ("reaction", "alpha0", "sigma", "c6", "initial", "amplitude",
                   "initial_time", "t_end", "dt0", "snapshot_times")
_COMMANDS = {
    "eigen": (_cmd_eigen, ("problem", "eigen"), ("mu", "theta_mk") + _EVOLUTION_KEYS),
    "solve": (_cmd_solve, ("problem", "controls"), ("mu", "theta_mk")),
    "blowup-scan": (_cmd_blowup_scan, ("problem", "controls", "eigen", "scan"),
                    ("mu", "theta_mk")),
    "verify-exact": (_cmd_verify_exact, ("problem", "verify"),
                     ("mu", "resolution", "theta_mk") + _EVOLUTION_KEYS),
    "weights-check": (_cmd_weights_check, ("problem",),
                      ("extent", "resolution", "p") + _EVOLUTION_KEYS),
    "decay-fit": (_cmd_decay_fit, ("problem", "controls", "decay"), ("theta_mk",)),
}
COMMANDS = tuple(_COMMANDS)


def run_command(cfg):
    """Execute a parsed config; returns the process exit code.

    It writes resolved_config.txt, runs the command, which writes its own
    artifacts and returns (body, exit code), and then writes summary.json:
    the schema version and the config echo, then body.  A command that
    raises leaves no summary.json."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.txt").write_text(resolved_config_text(cfg))
    try:
        body, code = _COMMANDS[cfg.command][0](cfg, out)
    except ConfigError as exc:
        raise _at_line(exc, cfg.lines)
    write_json(out / "summary.json",
               {"schema_version": SCHEMA_VERSION, "config": _config_payload(cfg), **body})
    return code


# what -h and --help print; its first line heads every usage error
USAGE = f"""\
usage: degenflow <command> --config FILE [--out DIR] [--jobs 1]

Numerical lab for degenerate weighted p-Laplacian diffusion.

commands: {", ".join(COMMANDS)}

options, each also written --name=value, before or after the command:
  --config FILE  the config file (required)
  --out DIR      output directory, in place of the config's output_dir
  --jobs N       must be 1: runs are sequential
  -h, --help     print this text and exit
"""


def _parse_argv(argv):
    """The command, --config, --out (None when absent) and --jobs (1 when
    absent) of argv.  ValueError names the misuse: an unknown token, a
    missing value, an option or command given twice, no command, no
    --config, or a --jobs that is not an integer."""
    args = {}
    tokens = iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        if name in ("--config", "--out", "--jobs"):
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("--"):
                    raise ValueError(f"{name} needs a value")
        elif token in COMMANDS:
            name, value = "command", token
        elif token.startswith("-"):
            raise ValueError(f"unknown option {token!r}")
        else:
            raise ValueError(f"unknown command {token!r}; expected one of {', '.join(COMMANDS)}")
        if name in args:
            raise ValueError(f"{name} given twice")
        args[name] = value
    for name in ("command", "--config"):
        if name not in args:
            raise ValueError(f"no {name} given")
    jobs = args.get("--jobs", "1")
    try:
        jobs = int(jobs)
    except ValueError:
        raise ValueError(f"--jobs needs an integer, got {jobs!r}") from None
    return args["command"], args["--config"], args.get("--out"), jobs


def main(argv=None):
    """Run the command line argv (sys.argv's arguments when None); returns the
    exit code.  -h or --help prints USAGE; a misused command line prints the
    usage line and the reason to stderr, writes nothing and returns 2."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return EXIT_OK
    try:
        command, config, out, jobs = _parse_argv(argv)
    except ValueError as exc:
        print(f"{USAGE.splitlines()[0]}\ndegenflow: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        text = Path(config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    effective_out = out
    try:
        cfg = parse_config(text, command_override=command)
        if out is not None:
            cfg.output_dir = out
        effective_out = cfg.output_dir
        if jobs != 1:
            raise ConfigError(f"--jobs must be 1 (runs are sequential), got {jobs}")
        return run_command(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        _try_error_report(effective_out or getattr(exc, "output_dir", None), "config", exc)
        return EXIT_CONFIG
    except DegenflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        _try_error_report(effective_out, "numerical", exc)
        return EXIT_NUMERICAL


def _try_error_report(out_dir, kind, exc):
    if not out_dir:
        return
    try:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        write_json(path / "error.json", {
            "error_kind": kind,
            "error_type": type(exc).__name__,
            "message": str(exc),
        })
    except OSError:
        pass
