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
import csv
import hashlib
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import conservation, decay, momentum, virial
from .integrator import BlowUpError, StepperConfig, run as run_integrator
from .model import InitialData, ModelParams, SystemState, kdv_soliton_profile, make_initial_data
from .spectral import ComplexField, RealField, SpectralGrid, h1_norm

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


_KNOWN_KEYS = {
    "grid": {"n", "l"},
    "stepper": {"dt", "t_end", "scheme", "snapshot_stride"},
    "model": {"alpha", "beta", "gamma"},
    "initial": {
        "family", "amplitude_u", "amplitude_v", "width_u", "width_v", "carrier", "speed",
    },
    "virial": {"p1", "p2", "theta2", "theta3"},
    "window": {"p", "m", "constant", "power_exponent"},
    "output": {"directory", "strict"},
}


def _get(parser, section, key, cast, default):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    return default


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
            family=_get(parser, "initial", "family", str, "gaussian"),
            amplitude_u=_get(parser, "initial", "amplitude_u", float, 1.0),
            amplitude_v=_get(parser, "initial", "amplitude_v", float, 1.0),
            width_u=_get(parser, "initial", "width_u", float, 1.0),
            width_v=_get(parser, "initial", "width_v", float, 1.0),
            carrier=_get(parser, "initial", "carrier", float, 0.0),
            speed=_get(parser, "initial", "speed", float, 1.0),
        )
        theta3_raw = _get(parser, "virial", "theta3", str, "auto")
        vir = virial.VirialConfig(
            p1=_get(parser, "virial", "p1", float, 0.25),
            p2=_get(parser, "virial", "p2", float, 2.5),
            theta2=_get(parser, "virial", "theta2", float, 1.0),
            theta3="auto" if theta3_raw == "auto" else float(theta3_raw),
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
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", newline="")
    fh.write(f"# config={config_hash}\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    return fh, writer


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _checked(fn, *args):
    """``fn(*args)``; a ValueError (degenerate parameters) becomes a ConfigError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class _VirialEntry(NamedTuple):
    """What the residual window keeps of one snapshot."""

    time: float
    j2: float
    j3: float
    pieces: tuple | None  # (_j2_pieces, _j3_pieces) at t >= 2, else None


def _window_residuals(window, cfg: RunConfig):
    """prop2, prop3 and combined residuals at the centre of a window of
    _VirialEntry; nan unless it is complete and evenly spaced."""
    try:
        h = virial._window_times(window)
    except ValueError:  # under 5 snapshots, uneven last stride, or a centre before t = 2
        return (np.nan,) * 3
    centre = window[2]
    p2, p3 = centre.pieces
    r2 = virial._prop2_sample(centre.time, h, p2, virial._dt4([e.j2 for e in window], h))
    r3 = virial._prop3_sample(centre.time, h, p3, virial._dt4([e.j3 for e in window], h))
    return r2.residual, r3.residual, (
        r2.residual + r3.residual if cfg.virial.theta3 == "auto" else np.nan)


def _cmd_run(cfg: RunConfig) -> int:
    """Writes rows while stepping and holds no snapshot past its callback:
    the residual window keeps numbers (t, J2, J3 and the identity pieces),
    a virial.csv row waits two snapshots for its window and a flags.csv row
    one, so that the last finite snapshot of a blow-up can carry the flag."""
    params, vcfg = cfg.params, cfg.virial
    _checked(vcfg.theta3_value, params)
    state0 = make_initial_data(cfg.initial, cfg.grid, boundary_threshold=1e-6)
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

    window = deque(maxlen=5)  # _VirialEntry of the latest snapshots
    flags_row = None  # the newest flags.csv row
    written = 0
    boundary_hit = False
    power = 2.0 + cfg.power_exponent

    def virial_row(entry, residuals=(np.nan,) * 3):
        w_v.writerow(map(_fmt, [entry.time, entry.j2, entry.j3, *residuals]))

    def on_snapshot(s):
        nonlocal written, boundary_hit, flags_row
        written += 1
        wt, j2, j3, pieces = None, np.nan, np.nan, None
        if s.time > 0:
            wt = virial._Weights(s.grid, vcfg, s.time)
            j2 = virial.functional_J2(s, vcfg, params, weights=wt)
            j3 = virial.functional_J3(s, vcfg, params, weights=wt)
        if s.time >= 2:
            pieces = (virial._j2_pieces(s, vcfg, params, wt),
                      virial._j3_pieces(s, vcfg, params, wt))
        window.append(_VirialEntry(s.time, j2, j3, pieces))
        if len(window) >= 3:
            virial_row(window[-3], _window_residuals(window, cfg))

        inv = conservation.invariant_sample(s, params)
        margin = phi - (inv.u_h1 + inv.v_h1) if np.isfinite(phi) else np.nan
        w_i.writerow(map(_fmt, [s.time, inv.mass, inv.q_momentum, inv.energy,
                                inv.u_h1, inv.v_h1, margin]))

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
        w_d.writerow(map(_fmt, [
            s.time, cfg.window.exponent, cfg.window.center_exponent,
            kinds["mixed"], kinds["coupling"], kinds["grad_u"], kinds["grad_v"],
            e_uk, e_vk, *acc,
        ]))

        bmass = decay.boundary_mass(s)
        ms = momentum.moment_sample(s, params, slope, boundary=bmass)
        w_m.writerow(map(_fmt, [s.time, ms.b_moment, ms.u_moment,
                                ms.f_moment, ms.predicted_slope_f]))

        boundary_hit = boundary_hit or bmass > 1e-6
        if flags_row is not None:
            w_f.writerow(map(_fmt, flags_row))
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
        w_f.writerow(map(_fmt, flags_row))
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
    params = cfg.params
    _checked(cfg.virial.theta3_value, params)
    state0 = make_initial_data(cfg.initial, cfg.grid, boundary_threshold=1e-6)
    t_center = max(cfg.stepper.t_end, 3.0)
    dts = [2e-3, 1e-3, 5e-4]
    rows = []
    for dt in dts:
        n_center = int(round(t_center / dt))
        stepper = StepperConfig(dt=dt, t_end=(n_center + 2) * dt,
                                scheme=cfg.stepper.scheme, snapshot_stride=1)
        last5 = deque(maxlen=5)
        run_integrator(state0, stepper, params, per_step=last5.append, keep_snapshots=False)
        window = list(last5)
        if cfg.virial.theta3 == "auto":
            rc = virial.identity_residual_combined(window, cfg.virial, params)
            r2, r3 = rc.prop2, rc.prop3
            combined, coeff = abs(rc.sample.residual), rc.coefficient_sum
        else:  # the mixed terms cancel only under theta3='auto'
            r2 = virial.identity_residual_prop2(window, cfg.virial, params)
            r3 = virial.identity_residual_prop3(window, cfg.virial, params)
            combined = coeff = np.nan
        rows.append((dt, abs(r2.residual), abs(r3.residual), combined, coeff))

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
    params = cfg.params
    state0 = make_initial_data(cfg.initial, cfg.grid, boundary_threshold=1e-6)
    accumulators = decay.make_accumulators()
    times, mixed_vals, gradv_vals = [], [], []

    def on_snapshot(s):
        if s.time <= 0:
            return
        times.append(s.time)
        mixed_vals.append(decay.windowed_energy(s, cfg.window, "mixed", params).value)
        gradv_vals.append(decay.windowed_energy(s, cfg.window, "grad_v", params).value)
        if s.time >= 2:
            decay.weighted_accumulator_step(
                s, cfg.virial, params, accumulators, cfg.power_exponent
            )

    try:
        run_integrator(state0, cfg.stepper, params, on_snapshot=on_snapshot,
                       keep_snapshots=False)
    except BlowUpError as exc:
        print(f"blow-up detected at t={exc.time:g}", file=sys.stderr)
        return EXIT_BLOWUP

    for label, vals in (("mixed", mixed_vals), ("grad_v", gradv_vals)):
        report = decay.liminf_tracker(times, vals)
        print(f"{label}: running min {report.running_min:.6e}, "
              f"block minima {[f'{m:.3e}' for m in report.block_minima]}, "
              f"log-log slope {report.loglog_slope:.3f}, decayed={report.decayed}")
    for tag in decay.ACCUMULATOR_TAGS:
        print(f"accumulator {tag}: {accumulators[tag].value:.6e}")
    return EXIT_OK


def _cmd_check_smallness(cfg: RunConfig) -> int:
    state0 = make_initial_data(cfg.initial, cfg.grid, boundary_threshold=1e-6)
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
    grid = cfg.grid
    x = grid.x

    # free Schrodinger evolution of exp(-x^2), closed form
    params_free = ModelParams(alpha=0.0, beta=0.0, gamma=0.0)
    u0 = np.exp(-(x**2)).astype(complex)
    state = SystemState(ComplexField(grid, u0), RealField(grid, np.zeros_like(x)), 0.0)
    res = run_integrator(state, StepperConfig(dt=1e-3, t_end=1.0, snapshot_stride=1000),
                         params_free, keep_snapshots=False)
    sigma = 1.0 + 4.0j * 1.0
    exact = np.exp(-(x**2) / sigma) / np.sqrt(sigma)
    err_u = float(np.sqrt(grid.spacing * np.sum(np.abs(res.final_state.u.samples - exact) ** 2)))
    print(f"free-Schrodinger L2 error at t=1: {err_u:.3e}")

    # decoupled KdV soliton, c = 1
    params_kdv = ModelParams(alpha=0.0, beta=0.0, gamma=0.0)
    v0 = kdv_soliton_profile(x, 1.0)
    state = SystemState(ComplexField(grid, np.zeros_like(x, dtype=complex)),
                        RealField(grid, v0), 0.0)
    res = run_integrator(state, StepperConfig(dt=5e-4, t_end=5.0, snapshot_stride=10000),
                         params_kdv, keep_snapshots=False)
    shift = np.argmin(np.abs(x - 5.0)) - np.argmin(np.abs(x))
    exact_v = np.roll(v0, shift)
    err_v = float(np.sqrt(grid.spacing * np.sum((res.final_state.v.samples - exact_v) ** 2)))
    print(f"KdV soliton L2 shape error at t=5: {err_v:.3e}")

    # self-convergence of Q and E drifts under dt halving
    params = cfg.params
    state0 = make_initial_data(cfg.initial, cfg.grid, boundary_threshold=1e-6)
    q0 = conservation.q_momentum(state0, params)
    e0 = conservation.energy(state0, params)
    print(f"{'dt':>10} {'|Q drift|':>14} {'|E drift|':>14}")
    drifts = []
    for dt in (4e-3, 2e-3, 1e-3):
        res = run_integrator(state0, StepperConfig(dt=dt, t_end=5.0, snapshot_stride=10**9),
                             params, keep_snapshots=False)
        dq = abs(conservation.q_momentum(res.final_state, params) - q0)
        de = abs(conservation.energy(res.final_state, params) - e0)
        drifts.append((dt, dq, de))
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
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"blow-up detected at t={exc.time:g}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
