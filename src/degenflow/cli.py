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
from .discretization import Field, build_grid, write_field_csv
from .eigensolver import NORMALIZE_MASS, NORMALIZE_P_NORM, smallest_eigenpair
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
from .weight_models import (
    WeightSpec,
    check_doubling,
    check_muckenhoupt,
    load_weight_csv,
)

SCHEMA_VERSION = 1

COMMANDS = ("eigen", "solve", "blowup-scan", "verify-exact", "weights-check", "decay-fit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNDECIDED = 4


def _as_float(raw):
    return float(raw)


def _as_int(raw):
    value = float(raw)
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
    return [float(p) for p in _list_items(raw)]


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
        "weight_csv": (_as_str, None),
        "reaction": (_as_str, "none"),
        "alpha0": (_as_float, 1.0),
        "sigma": (_as_float, 2.0),
        "c3": (_as_float, 0.0),
        "c4": (_as_float, 0.0),
        "m": (_as_float, 2.0),
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
        "normalization": (_as_str, NORMALIZE_MASS),
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
        "kind": (_as_str, diag.FIT_ALGEBRAIC),
        "time_offset": (_as_float, None),
    },
    "weights": {
        "radii": (_as_float_list, None),
        "radius_pairs": (_as_float_list, None),
        "mu": (_as_float, None),
    },
    "sweep": {
        "parameter": (_as_str, None),
        "values": (_as_float_list, None),
    },
}


@dataclass
class ExperimentConfig:
    command: str
    output_dir: str
    sections: dict = field(default_factory=dict)


def parse_config(text, command_override=None):
    """Parse a config document into an ExperimentConfig.

    Unknown sections or keys, malformed lines, and type mismatches raise
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

    if not sections["problem"]["p"] >= 2.0:
        raise ConfigError(f"p must be >= 2, got {sections['problem']['p']}")
    sweep = sections["sweep"]
    if (sweep["parameter"] is None) != (sweep["values"] is None):
        raise ConfigError("sweep needs both 'parameter' and 'values'")
    if sweep["parameter"] is not None:
        if command != "solve":
            raise ConfigError(f"[sweep] applies to solve only, not {command}")
        if sweep["parameter"] not in _SCHEMA["problem"]:
            raise ConfigError(f"sweep parameter {sweep['parameter']!r} is not a problem key")
        converter = _SCHEMA["problem"][sweep["parameter"]][0]
        if converter not in (_as_float, _as_int):
            raise ConfigError(f"sweep parameter {sweep['parameter']!r} is not numeric")
        try:
            sweep["values"] = [converter(value) for value in sweep["values"]]
        except ValueError as exc:
            raise ConfigError(f"bad sweep value for {sweep['parameter']!r}: {exc}") from exc

    out = sections[""]["output_dir"] or "degenflow-out"
    return ExperimentConfig(command=command, output_dir=out, sections=sections)


def _fmt_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return ", ".join(_fmt_value(v) for v in value)
    return str(value)


def resolved_config_text(cfg):
    """Canonical echo of the fully-resolved config (deterministic order)."""
    lines = [f"command = {cfg.command}", f"output_dir = {cfg.output_dir}"]
    for name in sorted(s for s in cfg.sections if s):
        body = {k: v for k, v in cfg.sections[name].items() if v is not None}
        if not body:
            continue
        lines.append("")
        lines.append(f"[{name}]")
        for key in sorted(body):
            lines.append(f"{key} = {_fmt_value(body[key])}")
    return "\n".join(lines) + "\n"


def _config_payload(cfg):
    return {
        "command": cfg.command,
        "output_dir": cfg.output_dir,
        "sections": {
            name: {k: v for k, v in body.items() if v is not None}
            for name, body in cfg.sections.items()
        },
    }


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
    if kind == "tabulated":
        if not prob["weight_csv"]:
            raise ConfigError("weight = tabulated needs weight_csv")
        return load_weight_csv(prob["weight_csv"], theta_mk=prob["theta_mk"])
    raise ConfigError(f"unknown weight kind {prob['weight']!r}")


def _build_grid(cfg):
    prob = cfg.sections["problem"]
    return build_grid(prob["mode"], prob["extent"], prob["resolution"], n=prob["n"])


def _ambient_dimension(grid):
    return 1 if grid.mode == "interval" else grid.dim


def _exponents(cfg, grid):
    prob = cfg.sections["problem"]
    n = _ambient_dimension(grid)
    weight = _build_weight(cfg)
    if prob["mu"] is not None:
        mu = prob["mu"]
    elif weight is not None:
        mu = weight.natural_mu(n)
    else:
        mu = 1.0
    theta = prob["theta_w"] if prob["weight"].lower() == "power" else 0.0
    return diag.Exponents(n=n, p=prob["p"], mu=mu, theta_w=theta)


def _initial_values(cfg, grid, amplitude=None):
    prob = cfg.sections["problem"]
    shape = prob["initial"].lower()
    a = amplitude if amplitude is not None else prob["amplitude"]
    ext = grid.extent
    if shape == "zero":
        return np.zeros(grid.shape)
    if shape == "sin":
        if grid.mode == "interval":
            x = grid.axes[0]
            return a * np.sin(np.pi * x / ext)
        if grid.mode == "tensor2d":
            x, y = grid.axes
            return a * np.sin(np.pi * x / ext)[:, None] * np.sin(np.pi * y / ext)[None, :]
        r = grid.axes[0]
        return a * np.cos(0.5 * np.pi * r / ext)
    if shape in ("barenblatt", "barenblatt_verbatim"):
        exps = _exponents(cfg, grid)
        fn = (
            diag.barenblatt_corrected
            if shape == "barenblatt"
            else diag.barenblatt_exact
        )
        vals = a * fn(grid.radius(), prob["initial_time"], exps)
        vals[grid.boundary_mask] = 0.0
        return vals
    raise ConfigError(f"unknown initial shape {prob['initial']!r}")


def _build_reaction(cfg, lambda1_ref=0.0):
    prob = cfg.sections["problem"]
    family = prob["reaction"].lower()
    if family == "none":
        return ReactionSpec.none()
    if family == "power":
        return ReactionSpec.power(prob["alpha0"], prob["sigma"])
    if family == "bounded_power":
        return ReactionSpec.bounded_power(prob["c3"], prob["c4"], prob["m"], prob["sigma"])
    if family == "exp_forced":
        return ReactionSpec.exp_forced(prob["c6"], prob["sigma"], lambda1_ref)
    raise ConfigError(f"unknown reaction family {prob['reaction']!r}")


def _build_problem(cfg, grid, weight, amplitude=None, lambda1_ref=0.0):
    prob = cfg.sections["problem"]
    initial = Field(grid, _initial_values(cfg, grid, amplitude))
    snaps = tuple(prob["snapshot_times"] or ())
    return ProblemSpec(
        grid=grid,
        weight=weight,
        p=prob["p"],
        reaction=_build_reaction(cfg, lambda1_ref),
        initial=initial,
        t_end=prob["t_end"],
        dt0=prob["dt0"],
        controls=StepControls(**cfg.sections["controls"]),
        snapshot_times=snaps,
    )


def _solve_eigen(cfg, grid, weight):
    e = cfg.sections["eigen"]
    if e["normalization"] not in (NORMALIZE_MASS, NORMALIZE_P_NORM):
        raise ConfigError(f"unknown normalization {e['normalization']!r}")
    return smallest_eigenpair(
        grid,
        weight,
        cfg.sections["problem"]["p"],
        tol=e["tol"],
        normalization=e["normalization"],
    )


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
        "normalization": pair.normalization,
    }))
    return EXIT_OK


def _run_one(cfg, grid, weight, amplitude, eigenpair, lambda1_ref, out_dir):
    spec = _build_problem(cfg, grid, weight, amplitude, lambda1_ref)
    outcome = run_simulation(spec, eigenpair=eigenpair)
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome.trajectory.to_csv(out_dir / "trajectory.csv", header_lines=_csv_header(cfg))
    g0 = outcome.trajectory.weighted_mass[0]
    used_amplitude = (amplitude if amplitude is not None
                      else cfg.sections["problem"]["amplitude"])
    outcome.to_json(out_dir / "outcome.json",
                    extra={"amplitude": used_amplitude, "g0": g0})
    for ts in sorted(outcome.trajectory.snapshots):
        snap = outcome.trajectory.snapshots[ts]
        write_field_csv(snap, out_dir / f"snapshot_t{ts:.6g}.csv",
                        header_lines=_csv_header(cfg) + (f"t = {ts:.17g}",))
    return outcome


def _solve_summary(cfg, outcome, eigenpair):
    prob = cfg.sections["problem"]
    body = {
        "kind": outcome.kind,
        "T_est": outcome.t_est,
        "T_lo": outcome.t_lo,
        "T_hi": outcome.t_hi,
        "rate_fit": outcome.rate_fit,
        "steps": outcome.steps,
        "newton_iters_total": outcome.newton_iters_total,
        "factorizations": outcome.factorizations,
        "final_sup": outcome.trajectory.sup_abs_u[-1],
        "g0": outcome.trajectory.weighted_mass[0],
    }
    if eigenpair is not None:
        body["lambda1"] = eigenpair.eigenvalue
        if prob["reaction"].lower() == "power":
            try:
                fit = diag.fit_bernoulli_constant(
                    outcome.trajectory, eigenpair.eigenvalue, prob["sigma"]
                )
                thresholds = diag.blowup_threshold(
                    eigenpair.eigenvalue, fit["C"], prob["sigma"]
                )
                body["C_fit"] = fit["C"]
                body["threshold_operative"] = thresholds["operative"]
                body["threshold_paper"] = thresholds["paper_value"]
                ode = diag.bernoulli_blowup(diag.OdeParams(
                    eigenpair.eigenvalue, fit["C"], prob["sigma"], body["g0"]))
                body["T_bernoulli"] = ode["T"]
                body["bernoulli_blows_up"] = ode["blows_up"]
            except DegenflowError as exc:
                body["C_fit_error"] = str(exc)
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
    lambda1_ref = 0.0
    if prob["reaction"].lower() != "none":
        eigenpair = _solve_eigen(cfg, grid, weight)
        lambda1_ref = eigenpair.eigenvalue

    sweep = cfg.sections["sweep"]
    if sweep["parameter"] is None:
        outcome = _run_one(cfg, grid, weight, None, eigenpair, lambda1_ref, out)
        write_json(out / "summary.json",
                    _summary(cfg, _solve_summary(cfg, outcome, eigenpair)))
        return EXIT_OK

    param = sweep["parameter"]
    runs = []
    for value in sweep["values"]:
        sub = _with_problem_value(cfg, param, value)
        sub_grid = _build_grid(sub)
        sub_weight = _build_weight(sub)
        pair, ref = eigenpair, lambda1_ref
        if param in ("p", "resolution", "extent", "n", "theta_w") and pair is not None:
            pair = _solve_eigen(sub, sub_grid, sub_weight)
            ref = pair.eigenvalue
        oc = _run_one(sub, sub_grid, sub_weight, None, pair, ref,
                      out / "runs" / f"{param}_{value:.8g}")
        runs.append({param: value, "kind": oc.kind,
                     "g0": oc.trajectory.weighted_mass[0],
                     "final_sup": oc.trajectory.sup_abs_u[-1],
                     "T_est": oc.t_est})
    write_json(out / "summary.json", _summary(cfg, {"runs": runs}))
    return EXIT_OK


def _with_problem_value(cfg, key, value):
    sections = {name: dict(body) for name, body in cfg.sections.items()}
    sections["problem"][key] = value
    return ExperimentConfig(cfg.command, cfg.output_dir, sections)


def _cmd_blowup_scan(cfg, out):
    grid = _build_grid(cfg)
    weight = _build_weight(cfg)
    prob = cfg.sections["problem"]
    scan = cfg.sections["scan"]
    if prob["reaction"].lower() == "none":
        raise ConfigError("blowup-scan needs a reaction term")
    values = scan["values"]
    if not values:
        raise ConfigError("blowup-scan needs [scan] values")
    rel_tol = scan["rel_tol"]
    if not rel_tol > 0.0:
        raise ConfigError("scan rel_tol must be positive")

    eigenpair = _solve_eigen(cfg, grid, weight)
    lam1 = eigenpair.eigenvalue

    def probe(a):
        return _run_one(cfg, grid, weight, a, eigenpair, lam1,
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
        try:
            fit = diag.fit_bernoulli_constant(hi_run.trajectory, lam1, prob["sigma"])
            thresholds = diag.blowup_threshold(lam1, fit["C"], prob["sigma"])
            body["C_fit"] = fit["C"]
            body["threshold_operative"] = thresholds["operative"]
            body["threshold_paper"] = thresholds["paper_value"]
            body["g0_decay_le_operative"] = bool(
                body["g0_decay"] <= thresholds["operative"]
            )
        except DegenflowError as exc:
            body["C_fit_error"] = str(exc)
        if a_hi / a_lo <= 1.0 + rel_tol:
            status = EXIT_OK
    write_json(out / "summary.json", _summary(cfg, body))
    return status


def _cmd_verify_exact(cfg, out):
    prob = cfg.sections["problem"]
    ver = cfg.sections["verify"]
    if prob["mode"] not in ("radial", "interval"):
        raise ConfigError("verify-exact runs on radial or interval grids")
    if not prob["p"] > 2.0:
        raise ConfigError("verify-exact needs p > 2")
    resolutions = ver["resolutions"] or [64, 128, 256]
    if len(resolutions) < 3:
        raise ConfigError("verify-exact needs at least 3 resolutions")
    sample_times = ver["sample_times"] or [1.0, 3.0, 10.0]
    weight = _build_weight(cfg)

    variants = {
        diag.VARIANT_VERBATIM: diag.barenblatt_exact,
        diag.VARIANT_CORRECTED: diag.barenblatt_corrected,
    }

    def residual_for(res, name):
        fn = variants[name]
        grid = build_grid(prob["mode"], prob["extent"], res, n=prob["n"])
        exps = _exponents(cfg, grid)
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
    wts = cfg.sections["weights"]
    weight = _build_weight(cfg)
    if weight is None:
        weight = WeightSpec.constant()
    if prob["mode"] == "radial":
        # rejects a radial problem without an integer n >= 2, as every
        # command that builds the grid does
        n = _build_grid(cfg).dim
    elif prob["n"] is not None:
        n = prob["n"]
    else:
        n = 2 if prob["mode"] == "tensor2d" else 1
    radii = wts["radii"] or [prob["extent"] * f for f in (0.125, 0.25, 0.5, 1.0)]
    pair_list = wts["radius_pairs"]
    if pair_list:
        if len(pair_list) % 2:
            raise ConfigError("radius_pairs needs an even count: s1,h1,s2,h2,...")
        pairs = [(pair_list[i], pair_list[i + 1]) for i in range(0, len(pair_list), 2)]
    else:
        pairs = [(2.0 * r, r) for r in radii]
    mu = wts["mu"]
    if mu is None:
        mu = weight.natural_mu(n)

    mk = check_muckenhoupt(weight, n, radii)
    db = check_doubling(weight, n, mu, pairs)
    body = {
        "n": n,
        "mu": mu,
        "muckenhoupt": {
            "passes": mk.passes,
            "worst_constant": mk.worst_constant,
            "worst_esssup_ratio": mk.worst_esssup_ratio,
            "tail_growth": mk.tail_growth,
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
    grid = _build_grid(cfg)
    weight = _build_weight(cfg)
    prob = cfg.sections["problem"]
    dec = cfg.sections["decay"]
    outcome = _run_one(cfg, grid, weight, None, None, 0.0, out)
    exps = _exponents(cfg, grid)

    offset = dec["time_offset"]
    if offset is None:
        offset = (prob["initial_time"]
                  if prob["initial"].lower().startswith("barenblatt") else 0.0)
    window = (dec["window_start"], dec["window_end"])
    fit = diag.decay_exponent_fit(outcome.trajectory, window,
                                  kind=dec["kind"], time_offset=offset)
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
    return _DISPATCH[cfg.command](cfg, out)


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
