"""Tests for the shared experiments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skdv.cli import load_config
from skdv.experiments import analytic_errors, decay_scan, drift_halving, identity_window
from skdv.model import BOUNDARY_TOLERANCE, InitialData, ModelParams, make_initial_data
from skdv.spectral import SpectralGrid
from skdv.virial import VirialConfig

ROOT = Path(__file__).resolve().parents[1]


def test_soliton_reference_off_the_grid():
    # 5/dx = 12.8 is not a whole number of cells, so a reference shifted
    # by whole cells would leave an error floor of its own
    _, err_v = analytic_errors(SpectralGrid(256, 50.0))
    assert err_v < 1e-3


@pytest.mark.parametrize("params, vcfg", [
    pytest.param(ModelParams(0.7, -0.3, 1.9), VirialConfig(), id="beta-negative"),
    pytest.param(ModelParams(2.0, 0.5, 0.4), VirialConfig(p1=0.2, p2=3.0, theta2=0.6),
                 id="other-weights"),
])
def test_identity_orders_off_the_unit_coefficients(params, vcfg):
    # criterion 06 off (alpha, beta, gamma) = (1, 1, 1) and the default
    # weights: the residuals still halve twice over per dt halving, and
    # theta3 = auto still cancels the mixed terms exactly, in a clean box
    grid = SpectralGrid(1024, 64.0)
    state0 = make_initial_data(
        InitialData(family="modulated_gaussian", amplitude_u=0.5, amplitude_v=0.4,
                    width_u=2.0, width_v=2.0, carrier=0.5), grid)
    rows = identity_window(state0, params, vcfg, (4e-3, 2e-3, 1e-3), 3.0)
    orders = [np.log2(rows[j - 1][k] / rows[j][k]) for j in (1, 2) for k in (1, 2, 3)]
    assert all(1.9 <= o <= 2.1 for o in orders), orders
    assert all(row[4] == 0 for row in rows)
    assert all(row[5] < BOUNDARY_TOLERANCE for row in rows)


def test_drift_halving_off_the_unit_coefficients():
    # criterion 02 at (alpha, beta, gamma) = (0.7, -0.3, 1.9), the beta < 0
    # case: the Q and E drifts still fall fourfold per dt halving
    grid = SpectralGrid(1024, 64.0)
    state0 = make_initial_data(
        InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.5,
                    width_u=2.0, width_v=2.0), grid)
    drifts = drift_halving(state0, ModelParams(0.7, -0.3, 1.9), (4e-3, 2e-3, 1e-3), 5.0)
    ratios = [drifts[j - 1][k] / drifts[j][k] for j in (1, 2) for k in (1, 2)]
    assert all(r >= 3.5 for r in ratios), ratios


def test_bench_decay_loop_is_the_decay_scan(tmp_path):
    # bench/child.py streams criterion 07's series through a decay loop of
    # its own; on criterion 07's data it must give decay_scan's numbers
    ini = tmp_path / "run.ini"
    ini.write_text("[grid]\nn = 1024\nl = 64.0\n\n"
                   "[stepper]\ndt = 0.01\nt_end = 3.0\nsnapshot_stride = 10\n\n"
                   "[model]\nalpha = 1.0\nbeta = 1.0\ngamma = 1.0\n\n"
                   "[initial]\nfamily = modulated_gaussian\namplitude_u = 0.25\n"
                   "amplitude_v = 0.0\nwidth_u = 1.0\ncarrier = 0.75\n\n"
                   "[window]\np = 0.5\n")
    job = {"mode": "run", "cli": False, "trace": False, "ini_path": str(ini),
           "result_path": str(tmp_path / "result.json")}
    (tmp_path / "job.json").write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(tmp_path / "job.json")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300)
    result = json.loads((tmp_path / "result.json").read_text())
    assert proc.returncode == 0 and result["ok"], result.get("error", proc.stderr)

    cfg = load_config(ini)
    scan = decay_scan(make_initial_data(cfg.initial, cfg.grid), cfg.stepper, cfg.params,
                      cfg.window, cfg.virial, cfg.power_exponent)
    series = result["series"]
    assert len(series["t"]) == 11  # t = 2.0 ... 3.0
    assert series["t"] == scan.times
    assert series["mixed"] == scan.mixed
    assert series["grad_v"] == scan.grad_v
    assert series["acc"] == scan.acc_rows
