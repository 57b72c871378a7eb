"""Command line front end: config parsing, experiment orchestration, and
deterministic artifact output.

Config files are line-oriented ``key = value`` with ``[section]`` headers.
Unknown keys are rejected with the offending line number.  Artifacts are
reproducible: JSON is written with sorted keys, floats use repr-faithful
formatting, iteration orders are fixed, and nothing embeds a timestamp.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 undecided
scan.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .discretization import Field, build_grid, grid_dimension, integrate, write_field_csv
from .eigensolver import STEADY_STATE_TOL, check_tol, smallest_eigenpair, steady_state
from .errors import ConfigError, ConvergenceError, DegenflowError
from .jsonio import write_json
from .plap_operator import ReactionSpec
from .timestepper import (KIND_BLOWUP, KIND_DECAYED, ProblemSpec, bisect_dichotomy,
                          certificate_holds, run_simulation)
from .weight_models import WeightSpec, check_doubling, check_muckenhoupt

SCHEMA_VERSION = 1

COMMANDS = ("eigen", "solve", "blowup-scan", "verify-exact", "weights-check", "decay-fit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNDECIDED = 4


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


def _list_items(raw):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a nonempty comma-separated list")
    return parts


def _as_float_list(raw):
    return [_as_float(p) for p in _list_items(raw)]


def _as_int_list(raw):
    return [_as_int(p) for p in _list_items(raw)]


# Section schema: key -> (converter, default).  None default means optional
# with no value; REQUIRED means the command validator enforces presence.
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
        "snapshot_times": (_as_float_list, None),
    },
    "controls": {
        "dt_max": (_as_float, 0.1),
    },
    "eigen": {
        "tol": (_as_float, None),
    },
    "scan": {
        "values": (_as_float_list, None),
        "rel_tol": (_as_float, 0.05),
    },
    "verify": {
        "resolutions": (_as_int_list, None),
        "sample_times": (_as_float_list, None),
    },
    "decay": {
        "window_start": (_as_float, 1.0),
        "window_end": (_as_float, 10.0),
    },
}

# The sections each command reads besides the top level.  solve reads
# [eigen] too when a reaction term makes it compute the eigenpair.  A key
# set in any other section is a config error, not a silent no-op.
_SECTIONS_READ = {
    "eigen": ("problem", "eigen"),
    "solve": ("problem", "controls"),
    "blowup-scan": ("problem", "controls", "eigen", "scan"),
    "verify-exact": ("problem", "verify"),
    "weights-check": ("problem",),
    "decay-fit": ("problem", "controls", "decay"),
}

# The [problem] keys a command never reads.  Setting one is a config error
# too: eigen, verify-exact and weights-check take no time step and have no
# reaction or initial data, only decay-fit and weights-check read mu (the
# self-similar profiles do not), verify-exact builds its grids at the
# [verify] resolutions, and only weights-check reads theta_mk and builds
# no grid.
_EVOLUTION_KEYS = ("reaction", "alpha0", "sigma", "c6", "initial", "amplitude",
                   "initial_time", "t_end", "dt0", "snapshot_times")
_PROBLEM_KEYS_UNREAD = {
    "eigen": ("mu", "theta_mk") + _EVOLUTION_KEYS,
    "solve": ("mu", "theta_mk"),
    "blowup-scan": ("mu", "theta_mk"),
    "verify-exact": ("mu", "resolution", "theta_mk") + _EVOLUTION_KEYS,
    "weights-check": ("extent", "resolution", "p") + _EVOLUTION_KEYS,
    "decay-fit": ("theta_mk",),
}

# The [problem] keys each reaction family never reads.
_REACTION_KEYS_UNREAD = {"none": ("alpha0", "sigma", "c6"), "power": ("c6",),
                         "exp_forced": ("alpha0",)}


def _reads(command, problem):
    """The sections command reads besides the top level, and the [problem]
    keys it never reads mapped to the setting that leaves them unread.  The
    unit weight (weight = none) is the power weight at theta_w = 0."""
    sections = _SECTIONS_READ[command]
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
    unread.update(dict.fromkeys(_PROBLEM_KEYS_UNREAD.get(command, ()), command))
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
    in a section the command does not read and [problem] keys that the
    command, its reaction family or its weight kind never reads raise
    ConfigError naming the line.  command_override (from argv) must agree
    with an in-file command when both are given.
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

    _check_values(sections, command, reads, explicit)

    out = sections[""]["output_dir"] or "degenflow-out"
    return ExperimentConfig(command=command, output_dir=out, sections=sections,
                            lines=explicit)


def _at_line(exc, lines):
    """The ConfigError exc prefixed with the line that sets the first of its
    keys that the file sets, or exc itself when the file sets none."""
    found = [line for key in exc.keys for (_name, k), line in lines.items() if k == key]
    return ConfigError(f"line {found[0]}: {exc}") if found else exc


def _check_values(sections, command, reads, explicit):
    """The checks of the sections read that need no grid or data: the grid
    extent and resolution, the ProblemSpec exponent checks (but in
    weights-check, which reads no p and takes any theta_w) and schedule
    checks, the eigensolver tol, the scan amplitudes, tolerance and
    reaction term, verify-exact's grid mode, p, resolutions and sample
    times, and decay-fit's window and reaction term.  They run at
    parse time so that a bad value fails before any work, naming the line
    of the key at fault."""
    prob = sections["problem"]
    try:
        # weights-check, which reads neither key, has rejected them if set
        if not prob["extent"] > 0.0:
            raise ConfigError(f"extent must be positive, got {prob['extent']}", keys=("extent",))
        if prob["resolution"] < 4:
            raise ConfigError(f"resolution must be at least 4 cells, got {prob['resolution']}",
                              keys=("resolution",))
        if command != "weights-check":
            ProblemSpec.check_exponents(prob["p"], prob["theta_w"])
        if "controls" in reads:
            ProblemSpec.check_schedule(prob["t_end"], prob["dt0"],
                                       sections["controls"]["dt_max"],
                                       prob["snapshot_times"] or ())
        if "eigen" in reads and sections["eigen"]["tol"] is not None:
            check_tol(sections["eigen"]["tol"])
        if "scan" in reads:
            _check_scan(sections["scan"], prob, ("problem", "amplitude") in explicit)
        if "verify" in reads:
            if prob["mode"] not in ("radial", "interval"):
                raise ConfigError("verify-exact runs on radial or interval grids", keys=("mode",))
            if not prob["p"] > 2.0:
                raise ConfigError("verify-exact needs p > 2", keys=("p",))
            resolutions = sections["verify"]["resolutions"] or [64, 128, 256]
            if len(resolutions) < 3:
                raise ConfigError("verify-exact needs at least 3 resolutions",
                                  keys=("resolutions",))
            if min(resolutions) < 4:
                raise ConfigError(f"resolutions must be at least 4 cells, got {min(resolutions)}",
                                  keys=("resolutions",))
            earliest = min(sections["verify"]["sample_times"] or [1.0])
            if not earliest > 0.0:
                raise ConfigError(f"sample times must be positive, got {earliest}",
                                  keys=("sample_times",))
        if "decay" in reads:
            if prob["reaction"] != "none":
                raise ConfigError("decay-fit fits the unforced flow: reaction must be none",
                                  keys=("reaction",))
            dec = sections["decay"]
            if not dec["window_start"] < dec["window_end"]:
                raise ConfigError(f"need window_start < window_end, got [{dec['window_start']}, "
                                  f"{dec['window_end']}]", keys=("window_start", "window_end"))
    except ConfigError as exc:
        raise _at_line(exc, explicit)


def _check_scan(scan, prob, sets_amplitude):
    """Raise ConfigError unless the problem has a power reaction term with
    sigma > p - 1 (exp_forced blows up at every amplitude and sigma <= p - 1
    at none) and no amplitude of its own, and [scan] sets values, all
    positive, and a positive rel_tol: the scan probes those amplitudes,
    bisects geometrically and stops on its bracket's ratio."""
    if prob["reaction"] == "none":
        raise ConfigError("blowup-scan needs a reaction term", keys=("reaction",))
    if prob["reaction"] == "exp_forced":
        raise ConfigError("blowup-scan needs reaction = power: exp_forced blows up every "
                          "positive amplitude, so there is no threshold", keys=("reaction",))
    if prob["reaction"] == "power" and not prob["sigma"] > prob["p"] - 1.0:
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
    if not scan["rel_tol"] > 0.0:
        raise ConfigError("scan rel_tol must be positive", keys=("rel_tol",))


def _fmt_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
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


def _summary(cfg, body):
    payload = {"schema_version": SCHEMA_VERSION, "config": _config_payload(cfg)}
    payload.update(body)
    return payload


def _csv_header(cfg):
    return (
        f"schema_version = {SCHEMA_VERSION}",
        "config: " + json.dumps(_config_payload(cfg), sort_keys=True),
    )


# ------------------------------------------------------------ problem build


def _build_weight(cfg):
    prob = cfg.sections["problem"]
    if prob["weight"] == "none":
        return None
    return WeightSpec.power(theta_w=prob["theta_w"], theta_mk=prob["theta_mk"])


def _build_grid(cfg):
    prob = cfg.sections["problem"]
    return build_grid(prob["mode"], prob["extent"], prob["resolution"], n=prob["n"])


def _exponents(cfg, grid, weight):
    prob = cfg.sections["problem"]
    n = grid.dim
    if weight is None:
        weight = WeightSpec.constant()
    mu = prob["mu"] if prob["mu"] is not None else weight.natural_mu(n)
    return diag.Exponents(n=n, p=prob["p"], mu=mu, theta_w=weight.theta_w)


def _initial_values(cfg, grid, weight):
    prob = cfg.sections["problem"]
    a = prob["amplitude"]
    ext = grid.extent
    if prob["initial"] == "barenblatt":
        vals = a * diag.barenblatt_corrected(grid.radius(), prob["initial_time"],
                                             _exponents(cfg, grid, weight))
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


def _build_reaction(cfg, eigenpair):
    prob = cfg.sections["problem"]
    if prob["reaction"] == "none":
        return ReactionSpec.none()
    if prob["reaction"] == "power":
        return ReactionSpec.power(prob["alpha0"], prob["sigma"])
    lambda1 = eigenpair.eigenvalue if eigenpair is not None else 0.0
    return ReactionSpec.exp_forced(prob["c6"], prob["sigma"], lambda1)


def _build_problem(cfg, grid, weight, eigenpair):
    prob = cfg.sections["problem"]
    initial = Field(grid, _initial_values(cfg, grid, weight))
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
    grid = _build_grid(cfg)
    weight = _build_weight(cfg)
    pair = _solve_eigen(cfg, grid, weight, out)
    pair.to_csv(out / "eigenfunction.csv")
    pair.to_json(out / "eigenpair.json")
    write_json(out / "summary.json", _summary(cfg, {
        "lambda1": pair.eigenvalue,
        "residual": pair.residual,
        "iterations": pair.iterations,
    }))
    return EXIT_OK


def _run_one(cfg, grid, weight, eigenpair, out_dir, certificate=None):
    spec = _build_problem(cfg, grid, weight, eigenpair)
    outcome = run_simulation(spec, eigenpair=eigenpair, certificate=certificate)
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome.trajectory.to_csv(out_dir / "trajectory.csv", header_lines=_csv_header(cfg))
    outcome.to_json(out_dir / "outcome.json",
                    extra={"amplitude": cfg.sections["problem"]["amplitude"]})
    for ts in sorted(outcome.trajectory.snapshots):
        snap = outcome.trajectory.snapshots[ts]
        write_field_csv(snap, out_dir / f"snapshot_t{ts:.6g}.csv",
                        header_lines=_csv_header(cfg) + (f"t = {ts:.17g}",))
    return outcome


def _solve_summary(cfg, outcome, eigenpair):
    prob = cfg.sections["problem"]
    body = outcome.payload()
    if eigenpair is not None:
        lam1 = body["lambda1"] = eigenpair.eigenvalue
        if prob["reaction"] == "power":
            body.update(diag.bernoulli_comparison(outcome.trajectory, lam1, prob["sigma"],
                                                  g0=body["g0"]))
        else:
            body.update(diag.exp_forced_comparison(outcome.trajectory, lam1, prob["sigma"]))
    return body


def _cmd_solve(cfg, out):
    grid = _build_grid(cfg)
    weight = _build_weight(cfg)
    prob = cfg.sections["problem"]
    eigenpair = None
    if prob["reaction"] != "none":
        eigenpair = _solve_eigen(cfg, grid, weight, out)
    outcome = _run_one(cfg, grid, weight, eigenpair, out)
    write_json(out / "summary.json", _summary(cfg, _solve_summary(cfg, outcome, eigenpair)))
    return EXIT_OK


def _steady_state_bracket(cfg, spec, eigenpair, body):
    """Add to body [a_sub, a_super], the range of U / phi0 over the interior
    nodes for the steady state U and the data phi0 of spec, at amplitude 1,
    and g0 at both.  Return U if it certifies the runs of spec (certificate_holds;
    only then is it solved to STEADY_STATE_TOL), else None; a steady state
    that does not converge is recorded in body instead."""
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
    return u if certifies else None


def _cmd_blowup_scan(cfg, out):
    """Bisect for the critical amplitude (bisect_dichotomy) and fit the
    Bernoulli comparison on the bracket's blow-up end.  The configured
    values run in full; the midpoints end at the eventual verdict certified
    by the steady state U (_steady_state_bracket).  A certified blow-up end
    is rerun in full for the fit, keeping its probe's certified_at; if it
    does not blow up by t_end, it is the undecided midpoint, with no bracket.
    Where [a_sub, a_super] was found, contradicting_values lists the
    configured values that blew up below a_sub or decayed above a_super."""
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
                        out / "runs" / f"A_{a:.17g}",
                        certificate if certify and a not in scan["values"] else None)

    runs, bracket, undecided = bisect_dichotomy(probe, scan["values"], scan["rel_tol"])
    certified = {a: oc.certified_at for a, oc in runs.items()}
    if bracket is not None and certified[bracket[1]] is not None:
        runs[bracket[1]] = probe(bracket[1], certify=False)
        if runs[bracket[1]].kind != KIND_BLOWUP:
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
    write_json(out / "summary.json", _summary(cfg, body))
    return EXIT_OK if bracket is not None and undecided is None else EXIT_UNDECIDED


def _cmd_verify_exact(cfg, out):
    prob = cfg.sections["problem"]
    ver = cfg.sections["verify"]
    resolutions = ver["resolutions"] or [64, 128, 256]
    sample_times = ver["sample_times"] or [1.0, 3.0, 10.0]
    weight = _build_weight(cfg)

    variants = {
        diag.VARIANT_VERBATIM: diag.barenblatt_exact,
        diag.VARIANT_CORRECTED: diag.barenblatt_corrected,
    }

    def residual_for(res, name):
        fn = variants[name]
        grid = build_grid(prob["mode"], prob["extent"], res, n=prob["n"])
        exps = _exponents(cfg, grid, weight)
        return diag.residual_check(
            lambda g, t: fn(g.radius(), t, exps), grid, weight, prob["p"], sample_times,
        )

    table = {name: [(res, residual_for(res, name)) for res in resolutions]
             for name in sorted(variants)}

    with open(out / "residuals.csv", "w") as fh:
        for line in _csv_header(cfg):
            fh.write(f"# {line}\n")
        fh.write("variant,resolution,residual\n")
        for name in sorted(table):
            for res, value in table[name]:
                fh.write(f"{name},{res},{value:.17g}\n")

    def ratios(seq):
        return [seq[i][1] / seq[i + 1][1] if seq[i + 1][1] > 0 else float("inf")
                for i in range(len(seq) - 1)]

    report = {}
    convergent = []
    for name in sorted(table):
        rr = ratios(table[name])
        report[name] = {
            "residuals": [v for _res, v in table[name]],
            "resolutions": [r for r, _v in table[name]],
            "ratios": rr,
            "converges": bool(rr and all(q >= 1.5 for q in rr)),
        }
        if report[name]["converges"]:
            convergent.append(name)
    body = {
        "variants": report,
        "convergent_variant": convergent[0] if len(convergent) == 1 else
        (convergent if convergent else "none"),
        "sample_times": list(sample_times),
    }
    write_json(out / "summary.json", _summary(cfg, body))
    return EXIT_OK


def _cmd_weights_check(cfg, out):
    prob = cfg.sections["problem"]
    weight = _build_weight(cfg)
    if weight is None:
        weight = WeightSpec.constant(prob["theta_mk"])
    n = grid_dimension(prob["mode"], prob["n"])
    mu = prob["mu"] if prob["mu"] is not None else weight.natural_mu(n)

    mk = check_muckenhoupt(weight, n)
    db = check_doubling(weight, n, mu, [(2.0, 1.0)])
    body = {
        "n": n,
        "mu": mu,
        "muckenhoupt": asdict(mk),
        "doubling": asdict(db),
    }
    write_json(out / "summary.json", _summary(cfg, body))
    return EXIT_OK


def _cmd_decay_fit(cfg, out):
    prob = cfg.sections["problem"]
    grid = _build_grid(cfg)
    weight = _build_weight(cfg)
    dec = cfg.sections["decay"]
    outcome = _run_one(cfg, grid, weight, None, out)
    exps = _exponents(cfg, grid, weight)

    # a barenblatt run starts at physical time initial_time
    offset = prob["initial_time"] if prob["initial"] == "barenblatt" else 0.0
    window = (dec["window_start"], dec["window_end"])
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
    write_json(out / "summary.json", _summary(cfg, body))
    return EXIT_OK


_DISPATCH = {
    "eigen": _cmd_eigen,
    "solve": _cmd_solve,
    "blowup-scan": _cmd_blowup_scan,
    "verify-exact": _cmd_verify_exact,
    "weights-check": _cmd_weights_check,
    "decay-fit": _cmd_decay_fit,
}


def run_command(cfg):
    """Execute a parsed config; returns the process exit code."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.txt").write_text(resolved_config_text(cfg))
    try:
        return _DISPATCH[cfg.command](cfg, out)
    except ConfigError as exc:
        raise _at_line(exc, cfg.lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="degenflow",
        description="Numerical lab for degenerate weighted p-Laplacian diffusion",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to config file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="must be 1: runs are sequential")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    effective_out = args.out
    try:
        cfg = parse_config(text, command_override=args.command)
        if args.out is not None:
            cfg.output_dir = args.out
        effective_out = cfg.output_dir
        if args.jobs != 1:
            raise ConfigError(f"--jobs must be 1 (runs are sequential), got {args.jobs}")
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
