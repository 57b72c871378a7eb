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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .discretization import Field, build_grid, grid_dimension, write_field_csv
from .eigensolver import check_tol, smallest_eigenpair
from .errors import ConfigError, DegenflowError
from .jsonio import write_json
from .plap_operator import ReactionSpec
from .timestepper import (
    KIND_BLOWUP,
    KIND_COMPLETED,
    KIND_DECAYED,
    ProblemSpec,
    StepControls,
    run_simulation,
)
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


def _as_str(raw):
    return raw


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
        "command": (_as_str, None),
        "output_dir": (_as_str, None),
    },
    "problem": {
        "mode": (_as_str, "interval"),
        "extent": (_as_float, 1.0),
        "resolution": (_as_int, 128),
        "n": (_as_int, None),
        "p": (_as_float, 2.0),
        "weight": (_as_str, "none"),
        "theta_w": (_as_float, 0.0),
        "theta_mk": (_as_float, 2.0),
        "mu": (_as_float, None),
        "reaction": (_as_str, "none"),
        "alpha0": (_as_float, 1.0),
        "sigma": (_as_float, 2.0),
        "c6": (_as_float, 1.0),
        "initial": (_as_str, "sin"),
        "amplitude": (_as_float, 1.0),
        "initial_time": (_as_float, 1.0),
        "t_end": (_as_float, 1.0),
        "dt0": (_as_float, 1e-4),
        "snapshot_times": (_as_float_list, None),
    },
    "controls": {
        "dt_min": (_as_float, 1e-12),
        "dt_max": (_as_float, 0.1),
        "u_cap": (_as_float, 0.0),
        "newton_tol": (_as_float, 1e-10),
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
    reaction = problem["reaction"].lower()
    if command == "solve" and reaction != "none":
        sections += ("eigen",)
    unread = dict.fromkeys(_REACTION_KEYS_UNREAD.get(reaction, ()), f"reaction = {reaction}")
    if problem["weight"].lower() == "none" and problem["theta_w"] != 0.0:
        unread["theta_w"] = "weight = none"
    if problem["initial"].lower() != "barenblatt":
        unread["initial_time"] = f"initial = {problem['initial'].lower()}"
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

    if not sections["problem"]["p"] >= 2.0:
        raise ConfigError(f"p must be >= 2, got {sections['problem']['p']}")
    _check_values(sections, reads, explicit)

    out = sections[""]["output_dir"] or "degenflow-out"
    return ExperimentConfig(command=command, output_dir=out, sections=sections,
                            lines=explicit)


def _at_line(exc, lines):
    """The ConfigError exc prefixed with the line that sets the first of its
    keys that the file sets, or exc itself when the file sets none."""
    found = [line for key in exc.keys for (_name, k), line in lines.items() if k == key]
    return ConfigError(f"line {found[0]}: {exc}") if found else exc


def _check_values(sections, reads, explicit):
    """The checks of the sections read that need no grid or data: the
    StepControls and ProblemSpec schedule checks, the eigensolver tol, the
    scan amplitudes, tolerance and reaction term, verify-exact's grid mode,
    p and resolutions, and decay-fit's window and reaction term.  They run
    at parse time so that a bad value fails before any work, naming the
    line of the key at fault."""
    prob = sections["problem"]
    try:
        if "controls" in reads:
            ProblemSpec.check_schedule(prob["t_end"], prob["dt0"],
                                       StepControls(**sections["controls"]),
                                       prob["snapshot_times"] or ())
        if "eigen" in reads and sections["eigen"]["tol"] is not None:
            check_tol(sections["eigen"]["tol"])
        if "scan" in reads:
            if prob["reaction"].lower() == "none":
                raise ConfigError("blowup-scan needs a reaction term", keys=("reaction",))
            _check_scan(sections["scan"])
        if "verify" in reads:
            if prob["mode"] not in ("radial", "interval"):
                raise ConfigError("verify-exact runs on radial or interval grids", keys=("mode",))
            if not prob["p"] > 2.0:
                raise ConfigError("verify-exact needs p > 2", keys=("p",))
            if len(sections["verify"]["resolutions"] or [64, 128, 256]) < 3:
                raise ConfigError("verify-exact needs at least 3 resolutions",
                                  keys=("resolutions",))
        if "decay" in reads:
            if prob["reaction"].lower() != "none":
                raise ConfigError("decay-fit fits the unforced flow: reaction must be none",
                                  keys=("reaction",))
            dec = sections["decay"]
            if not dec["window_start"] < dec["window_end"]:
                raise ConfigError(f"need window_start < window_end, got [{dec['window_start']}, "
                                  f"{dec['window_end']}]", keys=("window_start", "window_end"))
    except ConfigError as exc:
        raise _at_line(exc, explicit)


def _check_scan(scan):
    """Raise ConfigError unless [scan] sets values, all positive, and a
    positive rel_tol: the scan bisects geometrically, at the square root of
    its bracket's product, and stops on the ratio of the bracket's ends."""
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
    kind = prob["weight"].lower()
    if kind == "none":
        return None
    if kind == "power":
        return WeightSpec.power(theta_w=prob["theta_w"], theta_mk=prob["theta_mk"])
    raise ConfigError(f"unknown weight kind {prob['weight']!r}")


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
    shape = prob["initial"].lower()
    a = prob["amplitude"]
    ext = grid.extent
    if shape == "sin":
        if grid.mode == "interval":
            x = grid.axes[0]
            return a * np.sin(np.pi * x / ext)
        if grid.mode == "tensor2d":
            x, y = grid.axes
            return a * np.sin(np.pi * x / ext)[:, None] * np.sin(np.pi * y / ext)[None, :]
        r = grid.axes[0]
        return a * np.cos(0.5 * np.pi * r / ext)
    if shape == "barenblatt":
        exps = _exponents(cfg, grid, weight)
        vals = a * diag.barenblatt_corrected(grid.radius(), prob["initial_time"], exps)
        vals[grid.boundary_mask] = 0.0
        return vals
    raise ConfigError(f"unknown initial shape {prob['initial']!r}")


def _build_reaction(cfg, eigenpair):
    prob = cfg.sections["problem"]
    family = prob["reaction"].lower()
    if family == "none":
        return ReactionSpec.none()
    if family == "power":
        return ReactionSpec.power(prob["alpha0"], prob["sigma"])
    if family == "exp_forced":
        lambda1 = eigenpair.eigenvalue if eigenpair is not None else 0.0
        return ReactionSpec.exp_forced(prob["c6"], prob["sigma"], lambda1)
    raise ConfigError(f"unknown reaction family {prob['reaction']!r}")


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
        controls=StepControls(**cfg.sections["controls"]),
        snapshot_times=snaps,
    )


def _solve_eigen(cfg, grid, weight):
    return smallest_eigenpair(grid, weight, cfg.sections["problem"]["p"],
                              tol=cfg.sections["eigen"]["tol"])


# -------------------------------------------------------------- subcommands


def _cmd_eigen(cfg, out):
    grid = _build_grid(cfg)
    weight = _build_weight(cfg)
    pair = _solve_eigen(cfg, grid, weight)
    pair.to_csv(out / "eigenfunction.csv")
    pair.to_json(out / "eigenpair.json")
    write_json(out / "summary.json", _summary(cfg, {
        "lambda1": pair.eigenvalue,
        "residual": pair.residual,
        "iterations": pair.iterations,
    }))
    return EXIT_OK


def _run_one(cfg, grid, weight, eigenpair, out_dir):
    spec = _build_problem(cfg, grid, weight, eigenpair)
    outcome = run_simulation(spec, eigenpair=eigenpair)
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome.trajectory.to_csv(out_dir / "trajectory.csv", header_lines=_csv_header(cfg))
    outcome.to_json(out_dir / "outcome.json",
                    extra={"amplitude": cfg.sections["problem"]["amplitude"]})
    for ts in sorted(outcome.trajectory.snapshots):
        snap = outcome.trajectory.snapshots[ts]
        write_field_csv(snap, out_dir / f"snapshot_t{ts:.6g}.csv",
                        header_lines=_csv_header(cfg) + (f"t = {ts:.17g}",))
    return outcome


def _comparison(trajectory, lambda1, sigma, g0=None):
    """The comparison constant C fitted on trajectory and both blow-up
    thresholds it gives; with g0, also the blow-up of the comparison ODE
    from g0.  A failed fit or ODE adds C_fit_error instead."""
    body = {}
    try:
        fit = diag.fit_bernoulli_constant(trajectory, lambda1, sigma)
        thresholds = diag.blowup_threshold(lambda1, fit["C"], sigma)
        body["C_fit"] = fit["C"]
        body["threshold_operative"] = thresholds["operative"]
        body["threshold_paper"] = thresholds["paper_value"]
        if g0 is not None:
            ode = diag.bernoulli_blowup(diag.OdeParams(lambda1, fit["C"], sigma, g0))
            body["T_bernoulli"] = ode["T"]
            body["bernoulli_blows_up"] = ode["blows_up"]
    except DegenflowError as exc:
        body["C_fit_error"] = str(exc)
    return body


def _solve_summary(cfg, outcome, eigenpair):
    prob = cfg.sections["problem"]
    body = outcome.payload()
    if eigenpair is not None:
        body["lambda1"] = eigenpair.eigenvalue
        if prob["reaction"].lower() == "power":
            body.update(_comparison(outcome.trajectory, eigenpair.eigenvalue,
                                    prob["sigma"], g0=body["g0"]))
        if prob["reaction"].lower() == "exp_forced":
            try:
                fit = diag.fit_exp_forced_constant(
                    outcome.trajectory, eigenpair.eigenvalue, prob["sigma"]
                )
                body["C8_fit"] = fit["C8"]
                body["psi0"] = fit["psi0"]
                body["T_bound"] = diag.exp_forced_bound(
                    fit["psi0"], fit["C8"], prob["sigma"]
                )
            except DegenflowError as exc:
                body["C8_fit_error"] = str(exc)
    return body


def _cmd_solve(cfg, out):
    grid = _build_grid(cfg)
    weight = _build_weight(cfg)
    prob = cfg.sections["problem"]
    eigenpair = None
    if prob["reaction"].lower() != "none":
        # the problem's checks, u_cap's among them, run before the eigensolve
        _build_problem(cfg, grid, weight, None)
        eigenpair = _solve_eigen(cfg, grid, weight)
    outcome = _run_one(cfg, grid, weight, eigenpair, out)
    write_json(out / "summary.json", _summary(cfg, _solve_summary(cfg, outcome, eigenpair)))
    return EXIT_OK


def _cmd_blowup_scan(cfg, out):
    grid = _build_grid(cfg)
    weight = _build_weight(cfg)
    prob = cfg.sections["problem"]
    scan = cfg.sections["scan"]
    values, rel_tol = scan["values"], scan["rel_tol"]

    def with_amplitude(a):
        # each probe runs, and echoes, its own config: the scan's with
        # amplitude a
        sections = {name: dict(body) for name, body in cfg.sections.items()}
        sections["problem"]["amplitude"] = a
        return ExperimentConfig(cfg.command, cfg.output_dir, sections)

    # u_cap must exceed the largest probe's initial sup, checked before any work
    _build_problem(with_amplitude(max(values, key=abs)), grid, weight, None)
    eigenpair = _solve_eigen(cfg, grid, weight)
    lam1 = eigenpair.eigenvalue

    def probe(a):
        return _run_one(with_amplitude(a), grid, weight, eigenpair,
                        out / "runs" / f"A_{a:.8g}")

    results = {a: probe(a) for a in sorted(set(values))}

    undecided_mid = None
    while True:
        decayed = [a for a, oc in results.items() if oc.kind == KIND_DECAYED]
        blown = [a for a, oc in results.items() if oc.kind == KIND_BLOWUP]
        if not decayed or not blown:
            break
        a_lo, a_hi = max(decayed), min(blown)
        if a_lo >= a_hi:
            break  # non-monotone classifications; report as-is
        if a_hi / a_lo <= 1.0 + rel_tol:
            break
        mid = math.sqrt(a_lo * a_hi)
        oc = probe(mid)
        results[mid] = oc
        if oc.kind == KIND_COMPLETED:
            undecided_mid = mid
            break

    decayed = [a for a, oc in results.items() if oc.kind == KIND_DECAYED]
    blown = [a for a, oc in results.items() if oc.kind == KIND_BLOWUP]
    runs_table = [
        {"amplitude": a, "kind": results[a].kind,
         "g0": results[a].trajectory.weighted_mass[0], "T_est": results[a].t_est}
        for a in sorted(results)
    ]

    body = {"lambda1": lam1, "rel_tol": rel_tol, "runs": runs_table,
            "undecided_midpoint": undecided_mid}
    status = EXIT_UNDECIDED
    if decayed and blown and max(decayed) < min(blown):
        a_lo, a_hi = max(decayed), min(blown)
        lo_run, hi_run = results[a_lo], results[a_hi]
        body["a_decay"] = a_lo
        body["a_blowup"] = a_hi
        body["bracket_ratio"] = a_hi / a_lo
        body["g0_decay"] = lo_run.trajectory.weighted_mass[0]
        body["g0_blowup"] = hi_run.trajectory.weighted_mass[0]
        body.update(_comparison(hi_run.trajectory, lam1, prob["sigma"]))
        if "threshold_operative" in body:
            body["g0_decay_le_operative"] = bool(
                body["g0_decay"] <= body["threshold_operative"]
            )
        if a_hi / a_lo <= 1.0 + rel_tol:
            status = EXIT_OK
    write_json(out / "summary.json", _summary(cfg, body))
    return status


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
        "muckenhoupt": {
            "passes": mk.passes,
            "worst_constant": mk.worst_constant,
            "worst_esssup_ratio": mk.worst_esssup_ratio,
            "message": mk.message,
        },
        "doubling": {
            "passes": db.passes,
            "worst_ratio": db.worst_ratio,
            "tail_slope": db.tail_slope,
            "message": db.message,
        },
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
    offset = prob["initial_time"] if prob["initial"].lower() == "barenblatt" else 0.0
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
