"""Configuration parsing, the output files and the exit codes.

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
import contextlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The interpreter's built-in SHA-256: ``hashlib`` would load OpenSSL's
# libcrypto (3.6-3.8 MB resident on Linux) for one digest of a few hundred
# bytes.  The digest is the same either way.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import conservation, decay, experiments, momentum, virial
from .integrator import BlowUpError, StepperConfig
from .model import BOUNDARY_TOLERANCE, InitialData, ModelParams, SystemState, make_initial_data
from .spectral import SpectralGrid

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

# section -> its keys as (key, cast, default) rows, in the field order of the
# constructor they build: a key is accepted exactly when it is read.  [window]
# ends in power_exponent, beside WindowSpec's fields.
_SCHEMA = {
    "grid": (("n", int, 1024), ("l", float, 64.0)),
    "stepper": (("dt", float, 1e-3), ("t_end", float, 1.0), ("scheme", str, "strang"),
                ("snapshot_stride", int, 100)),
    "model": (("alpha", float, 1.0), ("beta", float, 0.0), ("gamma", float, 1.0)),
    "initial": (("family", str, "gaussian"), ("amplitude_u", float, 1.0),
                ("amplitude_v", float, 1.0), ("width_u", float, 1.0), ("width_v", float, 1.0),
                ("carrier", float, 0.0), ("speed", float, 1.0)),
    "virial": (("p1", float, 0.25), ("p2", float, 2.5), ("theta2", float, 1.0),
               ("theta3", lambda raw: raw if raw == "auto" else float(raw), "auto")),
    "window": (("p", float, 0.5), ("m", float, 0.0), ("constant", float, 1.0),
               ("power_exponent", float, 0.5)),
    "output": (("directory", str, "out"), ("strict", bool, False)),
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
    digest = sha256(text.encode()).hexdigest()

    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(parser.options(section)) - {key for key, _, _ in _SCHEMA[section]}
        if extra:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(extra)}")
    values = {section: [_get(parser, section, *row) for row in rows]
              for section, rows in _SCHEMA.items()}
    family = values["initial"][0]
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"[initial] family must be one of {sorted(_FAMILY_KEYS)}, "
                          f"got {family!r}")
    if parser.has_section("initial"):
        unread = set(parser.options("initial")) - {"family"} - _FAMILY_KEYS[family]
        if unread:
            raise ConfigError(f"[initial] family {family!r} does not read {sorted(unread)}")

    try:
        grid = SpectralGrid(*values["grid"])
        stepper = StepperConfig(*values["stepper"])
        stepper.n_steps  # raises unless t_end is a whole number of dt steps
        params = ModelParams(*values["model"])
        initial = InitialData(*values["initial"])
        vir = virial.VirialConfig(*values["virial"])
        *window_fields, power_exponent = values["window"]
        window = decay.WindowSpec(*window_fields)
        if not (0.0 < power_exponent < 1.0):
            raise ValueError(f"power_exponent must lie in (0, 1), got {power_exponent}")
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    output_dir, strict = values["output"]
    return RunConfig(
        grid=grid,
        stepper=stepper,
        params=params,
        initial=initial,
        virial=vir,
        window=window,
        power_exponent=power_exponent,
        output_dir=Path(output_dir),
        strict=strict,
        config_hash=digest,
    )


def _open_csv(files: contextlib.ExitStack, path: Path, config_hash: str, header: tuple[str, ...]):
    """A function writing one row of numbers to the file at ``path``, opened
    on ``files`` with its config line and header written: each number as
    ``%.17g`` (so booleans read 1 and 0), comma-separated, each row ending
    in CRLF."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = files.enter_context(open(path, "w", newline=""))
    fh.write(f"# config={config_hash}\n")
    fh.write(",".join(header) + "\r\n")
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    return lambda *values: fh.write(row % values)


def _checked(fn, *args):
    """``fn(*args)``; a ValueError (degenerate parameters, initial data or
    grid) becomes a ConfigError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _initial_state(cfg: RunConfig) -> SystemState:
    """The configured initial state.  Data with a boundary tail above
    BOUNDARY_TOLERANCE, or a nonpositive width or soliton speed, is a
    config error."""
    return _checked(make_initial_data, cfg.initial, cfg.grid)


def _cmd_run(cfg: RunConfig) -> int:
    """Writes the rows of experiments.run_tables to experiments.CSV_COLUMNS'
    files; a blow-up propagates to ``main``, which exits with EXIT_BLOWUP."""
    params = cfg.params
    _checked(cfg.virial.theta3_value, params)
    state0 = _initial_state(cfg)
    slope = _checked(momentum.predicted_slope, state0, params)
    phi = _checked(conservation.phi_smallness, state0, params).phi if params.full_regime else np.nan

    with contextlib.ExitStack() as files:
        write = {name: _open_csv(files, cfg.output_dir / name, cfg.config_hash, columns)
                 for name, columns in experiments.CSV_COLUMNS.items()}
        written, bmass = experiments.run_tables(
            state0, cfg.stepper, params, cfg.virial, cfg.window, cfg.power_exponent, phi, slope,
            lambda name, row: write[name](*row))

    if cfg.strict and bmass > BOUNDARY_TOLERANCE:
        print("boundary contamination in strict mode", file=sys.stderr)
        return EXIT_BOUNDARY
    print(f"run complete: {written} snapshots written to {cfg.output_dir}")
    return EXIT_OK


def _cmd_verify_identities(cfg: RunConfig) -> int:
    _checked(cfg.virial.theta3_value, cfg.params)
    rows = experiments.identity_window(_initial_state(cfg), cfg.params, cfg.virial,
                                       [2e-3, 1e-3, 5e-4], max(cfg.stepper.t_end, 3.0),
                                       cfg.stepper.scheme)
    print(f"{'dt':>10} {'|res_prop2|':>14} {'|res_prop3|':>14} {'|res_combined|':>15}")
    for dt, a, b, c, *_ in rows:
        print(f"{dt:>10.1e} {a:>14.6e} {b:>14.6e} {c:>15.6e}")
    print("observed orders (successive halvings):")
    for j in range(1, len(rows)):
        # a nan residual (combined identity not run) gives a nan order
        orders = [np.log2(rows[j - 1][k] / rows[j][k]) if rows[j][k] != 0 else np.inf
                  for k in (1, 2, 3)]
        print(f"  dt {rows[j - 1][0]:.1e} -> {rows[j][0]:.1e}: "
              f"prop2 {orders[0]:.2f}  prop3 {orders[1]:.2f}  combined {orders[2]:.2f}")
    bmass = rows[-1][5]
    print(f"boundary mass at the centre (finest dt): {bmass:.3e}")
    if bmass > BOUNDARY_TOLERANCE:
        print(f"  above {BOUNDARY_TOLERANCE:g}: the box edge, not the splitting, "
              f"may set these residuals and orders")
    if cfg.virial.theta3 == "auto":
        print(f"cancellation coefficient: {rows[-1][4]:.3e}")
    return EXIT_OK


def _cmd_scan_decay(cfg: RunConfig) -> int:
    if cfg.stepper.t_end < virial.T_START:
        raise ConfigError(f"scan-decay starts at t = {virial.T_START:g}, "
                          f"got t_end = {cfg.stepper.t_end:g}")
    scan = experiments.decay_scan(_initial_state(cfg), cfg.stepper, cfg.params, cfg.window,
                                  cfg.virial, cfg.power_exponent)
    for label, vals in (("mixed", scan.mixed), ("grad_v", scan.grad_v)):
        report = decay.liminf_tracker(scan.times, vals)
        print(f"{label}: running min {report.running_min:.6e}, "
              f"block minima {[f'{m:.3e}' for m in report.block_minima]}, "
              f"log-log slope {report.loglog_slope:.3f}, decayed={report.decayed}")
    for tag, value in scan.acc_rows[-1].items():
        print(f"accumulator {tag}: {value:.6e}")
    edge = (f"first above {BOUNDARY_TOLERANCE:g} at t = {scan.edge_time:g}"
            if np.isfinite(scan.edge_time) else f"never above {BOUNDARY_TOLERANCE:g}")
    print(f"boundary mass: largest {scan.largest_boundary_mass:.3e}, {edge}")
    return EXIT_OK


def _cmd_check_smallness(cfg: RunConfig) -> int:
    report = _checked(conservation.phi_smallness, _initial_state(cfg), cfg.params)
    print(f"C_gn (L4 interpolation) = {report.c_gn:.12g}")
    print(f"C (main form)           = {report.c_abg:.12g}")
    print(f"Phi                     = {report.phi:.12g}")
    if not report.applicable:
        print("criterion satisfied     = n/a (needs beta < 0 and alpha*gamma > 0)")
        return EXIT_OK
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
