"""Configuration parsing, run orchestration and CSV emission.

Configs are flat INI documents; unknown sections or keys are rejected so a
typo cannot silently fall back to a default.  Every CSV starts with a
``# config=<sha256>`` line identifying the exact config file that produced
it, followed by a fixed header; output is deterministic for a given config.

Exit codes: 0 success, 2 config error, 3 blow-up, 4 boundary contamination
in strict mode.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import conservation, decay, experiments, momentum, virial
from .integrator import BlowUpError, StepperConfig, run as run_integrator
from .model import InitialData, ModelParams, SystemState, make_initial_data
from .spectral import SpectralGrid, h1_norm

__all__ = ["RunConfig", "ConfigError", "load_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_BOUNDARY = 4


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    grid: SpectralGrid
    stepper: StepperConfig
    params: ModelParams
    initial: InitialData
    virial: virial.VirialConfig
    window: decay.WindowSpec
    power_exponent: float
    output_dir: Path
    strict: bool
    config_hash: str


# the [initial] keys each family that an INI can build reads, besides "family"
_FAMILY_KEYS = {
    "zero": set(),
    "gaussian": {"amplitude_u", "amplitude_v", "width_u", "width_v"},
    "modulated_gaussian": {"amplitude_u", "amplitude_v", "width_u", "width_v", "carrier"},
    "kdv_soliton": {"speed"},
}

_KNOWN_KEYS = {
    "grid": {"n", "l"},
    "stepper": {"dt", "t_end", "scheme", "snapshot_stride"},
    "model": {"alpha", "beta", "gamma"},
    "initial": {"family"}.union(*_FAMILY_KEYS.values()),
    "virial": {"p1", "p2", "theta2", "theta3"},
    "window": {"p", "m", "constant", "power_exponent"},
    "output": {"directory", "strict"},
}


def _get(parser, section, key, cast, default):
    """The value of ``key`` cast by ``cast``, else ``default``; a value that
    does not parse, or a non-finite number, is a ConfigError."""
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        value = parser.getboolean(section, key) if cast is bool else cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate an INI config; every module-level invariant is
    checked here so later stages can assume a consistent configuration."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    digest = hashlib.sha256(text.encode()).hexdigest()

    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(parser.options(section)) - _KNOWN_KEYS[section]
        if extra:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(extra)}")
    family = _get(parser, "initial", "family", str, "gaussian")
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"[initial] family must be one of {sorted(_FAMILY_KEYS)}, "
                          f"got {family!r}")
    if parser.has_section("initial"):
        unread = set(parser.options("initial")) - {"family"} - _FAMILY_KEYS[family]
        if unread:
            raise ConfigError(f"[initial] family {family!r} does not read {sorted(unread)}")

    try:
        grid = SpectralGrid(
            _get(parser, "grid", "n", int, 1024),
            _get(parser, "grid", "l", float, 64.0),
        )
        stepper = StepperConfig(
            dt=_get(parser, "stepper", "dt", float, 1e-3),
            t_end=_get(parser, "stepper", "t_end", float, 1.0),
            scheme=_get(parser, "stepper", "scheme", str, "strang"),
            snapshot_stride=_get(parser, "stepper", "snapshot_stride", int, 100),
        )
        stepper.n_steps  # raises unless t_end is a whole number of dt steps
        params = ModelParams(
            alpha=_get(parser, "model", "alpha", float, 1.0),
            beta=_get(parser, "model", "beta", float, 0.0),
            gamma=_get(parser, "model", "gamma", float, 1.0),
        )
        initial = InitialData(
            family=family,
            amplitude_u=_get(parser, "initial", "amplitude_u", float, 1.0),
            amplitude_v=_get(parser, "initial", "amplitude_v", float, 1.0),
            width_u=_get(parser, "initial", "width_u", float, 1.0),
            width_v=_get(parser, "initial", "width_v", float, 1.0),
            carrier=_get(parser, "initial", "carrier", float, 0.0),
            speed=_get(parser, "initial", "speed", float, 1.0),
        )
        vir = virial.VirialConfig(
            p1=_get(parser, "virial", "p1", float, 0.25),
            p2=_get(parser, "virial", "p2", float, 2.5),
            theta2=_get(parser, "virial", "theta2", float, 1.0),
            theta3=_get(parser, "virial", "theta3",
                        lambda raw: raw if raw == "auto" else float(raw), "auto"),
        )
        window = decay.WindowSpec(
            exponent=_get(parser, "window", "p", float, 0.5),
            center_exponent=_get(parser, "window", "m", float, 0.0),
            window_constant=_get(parser, "window", "constant", float, 1.0),
        )
        power_exponent = _get(parser, "window", "power_exponent", float, 0.5)
        if not (0.0 < power_exponent < 1.0):
            raise ValueError(f"power_exponent must lie in (0, 1), got {power_exponent}")
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        grid=grid,
        stepper=stepper,
        params=params,
        initial=initial,
        virial=vir,
        window=window,
        power_exponent=power_exponent,
        output_dir=Path(_get(parser, "output", "directory", str, "out")),
        strict=_get(parser, "output", "strict", bool, False),
        config_hash=digest,
    )


def _open_csv(path: Path, config_hash: str, header: list[str]):
    """The file at ``path`` with its config line and header written, and a
    function writing one row of numbers to it: each as ``%.17g`` (so
    booleans read 1 and 0), comma-separated, each row ending in CRLF."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", newline="")
    fh.write(f"# config={config_hash}\n")
    fh.write(",".join(header) + "\r\n")
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    return fh, lambda *values: fh.write(row % values)


def _checked(fn, *args):
    """``fn(*args)``; a ValueError (degenerate parameters or initial data)
    becomes a ConfigError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _initial_state(cfg: RunConfig) -> SystemState:
    """The configured initial state.  Data with a boundary tail above
    decay.BOUNDARY_TOLERANCE, or a nonpositive width or soliton speed, is a
    config error."""
    return _checked(make_initial_data, cfg.initial, cfg.grid, decay.BOUNDARY_TOLERANCE)


def _cmd_run(cfg: RunConfig) -> int:
    """Writes rows while stepping and holds no snapshot past its callback:
    the residual window keeps numbers (t, J2, J3 and the identity pieces),
    a virial.csv row waits two snapshots for its window and a flags.csv row
    one, so that the last finite snapshot of a blow-up can carry the flag."""
    params, vcfg = cfg.params, cfg.virial
    _checked(vcfg.theta3_value, params)
    state0 = _initial_state(cfg)
    slope = _checked(momentum.predicted_slope, state0, params)
    c_gn = conservation.estimate_gn_constant(cfg.grid)
    phi = (conservation.phi_smallness(h1_norm(state0.u), h1_norm(state0.v), params, c_gn).phi
           if params.full_regime else np.nan)
    accumulators = decay.make_accumulators()

    out = cfg.output_dir
    fh_i, w_i = _open_csv(out / "invariants.csv", cfg.config_hash,
                          ["t", "mass", "q", "energy", "u_h1", "v_h1", "margin"])
    fh_v, w_v = _open_csv(out / "virial.csv", cfg.config_hash,
                          ["t", "J2", "J3", "res_prop2", "res_prop3", "res_combined"])
    fh_d, w_d = _open_csv(out / "decay.csv", cfg.config_hash,
                          ["t", "window_p", "window_m", "E_mixed", "E_coupling",
                           "E_gradu", "E_gradv", "E_uk", "E_vk", "acc_mixed",
                           "acc_coupling", "acc_gradu", "acc_gradv", "acc_quartic"])
    fh_m, w_m = _open_csv(out / "moments.csv", cfg.config_hash,
                          ["t", "B", "Umom", "F", "predicted_slope"])
    fh_f, w_f = _open_csv(out / "flags.csv", cfg.config_hash,
                          ["t", "boundary_mass", "blowup", "window_clipped"])

    window = deque(maxlen=5)  # virial.WindowEntry of the latest snapshots
    flags_row = None  # the newest flags.csv row
    written = 0
    boundary_hit = False
    power = 2.0 + cfg.power_exponent

    def virial_row(entry, residuals=(np.nan,) * 3):
        w_v(entry.time, entry.j2, entry.j3, *residuals)

    def residual_columns():
        """prop2, prop3 and combined residuals at the window's centre; nan
        under 5 snapshots, after an uneven last stride or before t = 2."""
        try:
            r2, r3 = virial.window_residuals(window)
        except ValueError:
            return (np.nan,) * 3
        return r2.residual, r3.residual, (
            r2.residual + r3.residual if vcfg.theta3 == "auto" else np.nan)

    def on_snapshot(s):
        nonlocal written, boundary_hit, flags_row
        written += 1
        wt = virial.Weights(s.grid, vcfg, s.time) if s.time > 0 else None
        window.append(virial.window_entry(s, vcfg, params, wt))
        if len(window) >= 3:
            virial_row(window[-3], residual_columns())

        inv = conservation.invariant_sample(s, params)
        margin = phi - (inv.u_h1 + inv.v_h1) if np.isfinite(phi) else np.nan
        w_i(s.time, inv.mass, inv.q_momentum, inv.energy, inv.u_h1, inv.v_h1, margin)

        clipped = False
        if s.time > 0:
            kinds = {}
            for kind in ("mixed", "coupling", "grad_u", "grad_v"):
                we = decay.windowed_energy(s, cfg.window, kind, params)
                kinds[kind] = we.value
                clipped = clipped or we.clipped
            e_uk = decay.windowed_energy(s, cfg.window, "power_u", params, power).value
            e_vk = decay.windowed_energy(s, cfg.window, "power_v", params, power).value
        else:
            kinds = dict.fromkeys(("mixed", "coupling", "grad_u", "grad_v"), np.nan)
            e_uk = e_vk = np.nan
        if s.time >= 2:
            decay.weighted_accumulator_step(
                s, vcfg, params, accumulators, cfg.power_exponent, weights=wt
            )
        acc = [accumulators[tag].value for tag in
               ("mixed_kdv", "schrodinger_coupling", "gradient_u", "gradient_v", "quartic_u")]
        w_d(s.time, cfg.window.exponent, cfg.window.center_exponent,
            kinds["mixed"], kinds["coupling"], kinds["grad_u"], kinds["grad_v"],
            e_uk, e_vk, *acc)

        bmass = decay.boundary_mass(s)
        ms = momentum.moment_sample(s, params, slope, boundary=bmass)
        w_m(s.time, ms.b_moment, ms.u_moment, ms.f_moment, ms.predicted_slope_f)

        boundary_hit = boundary_hit or bmass > decay.BOUNDARY_TOLERANCE
        if flags_row is not None:
            w_f(*flags_row)
        flags_row = [s.time, bmass, False, clipped]

    blowup_time = None
    try:
        try:
            run_integrator(state0, cfg.stepper, params, on_snapshot=on_snapshot,
                           keep_snapshots=False)
        except BlowUpError as exc:
            blowup_time = exc.time
        for entry in list(window)[-2:]:
            virial_row(entry)
        flags_row[2] = blowup_time is not None  # the last finite snapshot
        w_f(*flags_row)
    finally:
        for fh in (fh_i, fh_v, fh_d, fh_m, fh_f):
            fh.close()

    if blowup_time is not None:
        print(f"blow-up detected at t={blowup_time:g}", file=sys.stderr)
        return EXIT_BLOWUP
    if cfg.strict and boundary_hit:
        print("boundary contamination in strict mode", file=sys.stderr)
        return EXIT_BOUNDARY
    print(f"run complete: {written} snapshots written to {out}")
    return EXIT_OK


def _cmd_verify_identities(cfg: RunConfig) -> int:
    _checked(cfg.virial.theta3_value, cfg.params)
    rows = experiments.identity_window(_initial_state(cfg), cfg.params, cfg.virial,
                                       [2e-3, 1e-3, 5e-4], max(cfg.stepper.t_end, 3.0),
                                       cfg.stepper.scheme)
    print(f"{'dt':>10} {'|res_prop2|':>14} {'|res_prop3|':>14} {'|res_combined|':>15}")
    for dt, a, b, c, _ in rows:
        print(f"{dt:>10.1e} {a:>14.6e} {b:>14.6e} {c:>15.6e}")
    print("observed orders (successive halvings):")
    for j in range(1, len(rows)):
        # a nan residual (combined identity not run) gives a nan order
        orders = [np.log2(rows[j - 1][k] / rows[j][k]) if rows[j][k] != 0 else np.inf
                  for k in (1, 2, 3)]
        print(f"  dt {rows[j - 1][0]:.1e} -> {rows[j][0]:.1e}: "
              f"prop2 {orders[0]:.2f}  prop3 {orders[1]:.2f}  combined {orders[2]:.2f}")
    if cfg.virial.theta3 == "auto":
        print(f"cancellation coefficient: {rows[-1][4]:.3e}")
    return EXIT_OK


def _cmd_scan_decay(cfg: RunConfig) -> int:
    scan = experiments.decay_scan(_initial_state(cfg), cfg.stepper, cfg.params, cfg.window,
                                  cfg.virial, cfg.power_exponent)
    for label, vals in (("mixed", scan.mixed), ("grad_v", scan.grad_v)):
        report = decay.liminf_tracker(scan.times, vals)
        print(f"{label}: running min {report.running_min:.6e}, "
              f"block minima {[f'{m:.3e}' for m in report.block_minima]}, "
              f"log-log slope {report.loglog_slope:.3f}, decayed={report.decayed}")
    for tag in decay.ACCUMULATOR_TAGS:
        print(f"accumulator {tag}: {scan.accumulators[tag].value:.6e}")
    return EXIT_OK


def _cmd_check_smallness(cfg: RunConfig) -> int:
    state0 = _initial_state(cfg)
    c_gn = conservation.estimate_gn_constant(cfg.grid)
    report = _checked(conservation.phi_smallness, h1_norm(state0.u), h1_norm(state0.v),
                      cfg.params, c_gn)
    print(f"C_gn (L4 interpolation) = {report.c_gn:.12g}")
    print(f"C (main form)           = {report.c_abg:.12g}")
    print(f"C (summary form)        = {report.c_abg_intro:.12g}")
    print(f"Phi                     = {report.phi:.12g}")
    print(f"-beta*Phi               = {report.criterion_lhs:.12g}")
    print(f"alpha*gamma             = {report.criterion_rhs:.12g}")
    print(f"criterion satisfied     = {report.satisfied}")
    return EXIT_OK


def _cmd_convergence(cfg: RunConfig) -> int:
    state0 = _initial_state(cfg)
    err_u, err_v = experiments.analytic_errors(cfg.grid)
    print(f"free-Schrodinger L2 error at t=1: {err_u:.3e}")
    print(f"KdV soliton L2 shape error at t=5: {err_v:.3e}")

    # self-convergence of Q and E drifts under dt halving
    drifts = experiments.drift_halving(state0, cfg.params, (4e-3, 2e-3, 1e-3), 5.0)
    print(f"{'dt':>10} {'|Q drift|':>14} {'|E drift|':>14}")
    for dt, dq, de in drifts:
        print(f"{dt:>10.1e} {dq:>14.6e} {de:>14.6e}")
    for j in range(1, len(drifts)):
        rq = drifts[j - 1][1] / max(drifts[j][1], 1e-300)
        re = drifts[j - 1][2] / max(drifts[j][2], 1e-300)
        print(f"  halving {j}: Q ratio {rq:.2f}, E ratio {re:.2f}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "verify-identities": _cmd_verify_identities,
    "scan-decay": _cmd_scan_decay,
    "check-smallness": _cmd_check_smallness,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skdv",
        description="Pseudospectral Schrodinger-KdV simulator and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to an INI config file")
    args = parser.parse_args(argv)

    try:
        return _COMMANDS[args.command](load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"blow-up detected at t={exc.time:g}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
