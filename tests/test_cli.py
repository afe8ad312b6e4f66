"""Tests for config parsing, CSV emission and exit codes."""

import configparser
import gc
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

import skdv
from skdv import cli, conservation, decay, experiments, model, momentum, virial
from skdv.cli import (
    EXIT_BLOWUP,
    EXIT_BOUNDARY,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
)
from skdv.integrator import run
from skdv.model import make_initial_data

BASE_CONFIG = """\
[grid]
n = 256
l = 32.0

[stepper]
dt = 0.01
t_end = 0.1
snapshot_stride = 5

[model]
alpha = 1.0
beta = 0.0
gamma = 1.0

[initial]
family = gaussian
amplitude_u = 0.2
amplitude_v = 0.2

[output]
directory = {out}
"""

BLOWUP_CONFIG = """\
[grid]
n = 64
l = 16.0

[stepper]
dt = 0.5
t_end = 20.0

[model]
alpha = -1.0
beta = 2.0
gamma = -1.0

[initial]
family = gaussian
amplitude_u = 50.0
amplitude_v = 0.0
width_u = 2.0

[output]
directory = {out}
"""

EXPECTED_HEADERS = {
    "invariants.csv": "t,mass,q,energy,u_h1,v_h1,margin",
    "virial.csv": "t,J2,J3,res_prop2,res_prop3,res_combined",
    "decay.csv": ("t,window_p,window_m,E_mixed,E_coupling,E_gradu,E_gradv,"
                  "E_uk,E_vk,acc_mixed,acc_coupling,acc_gradu,acc_gradv,acc_quartic"),
    "moments.csv": "t,B,Umom,F,predicted_slope",
    "flags.csv": "t,boundary_mass,blowup,window_clipped",
}


def _rows(out, name):
    return [[float(x) for x in r.split(",")] for r in (out / name).read_text().splitlines()[2:]]


def _same(row, expected):
    """Bit-for-bit equality of a CSV row (written with 17 digits) and values."""
    assert len(row) == len(expected)
    for got, want in zip(row, expected):
        assert got == float(want) or (np.isnan(got) and np.isnan(want)), (row, expected)


def _bench_module(name, monkeypatch):
    """bench/<name>.py, loaded by path and only read: the benchmark is not a
    package.  It is registered for the test only (dataclasses look their
    module up while the class is built)."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _write_config(tmp_path, text=None, name="run.ini"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text if text is not None else BASE_CONFIG.format(out=out))
    return path, out


class TestLoadConfig:
    def test_defaults_and_values(self, tmp_path):
        path, out = _write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.grid.num_points == 256
        assert cfg.stepper.dt == 0.01
        assert cfg.params.alpha == 1.0
        assert cfg.virial.p1 == 0.25  # default
        assert cfg.window.exponent == 0.5  # default
        assert cfg.output_dir == out
        assert len(cfg.config_hash) == 64

    def test_unknown_section(self, tmp_path):
        path, _ = _write_config(tmp_path, "[grd]\nn = 64\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path, _ = _write_config(tmp_path, "[grid]\nn = 64\nresolution = 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unparsable_value(self, tmp_path):
        path, _ = _write_config(tmp_path, "[grid]\nn = sixty-four\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_physics_value(self, tmp_path):
        path, _ = _write_config(tmp_path, "[grid]\nn = 100\n")  # not a power of two
        with pytest.raises(ConfigError):
            load_config(path)

    def test_one_point_grid(self, tmp_path, capsys):
        # one point has no Nyquist mode for the dealiased products: rejected
        # before any stepping or output
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("n = 256", "n = 1").replace(
            "family = gaussian\namplitude_u = 0.2\namplitude_v = 0.2", "family = zero")
        path, out = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="power of two >= 2"):
            load_config(path)
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("value, strict", [
        ("true", True), ("on", True), ("1", True), ("false", False), ("no", False)])
    def test_boolean_values(self, tmp_path, value, strict):
        text = BASE_CONFIG.format(out=tmp_path / "out") + f"strict = {value}\n"
        path, _ = _write_config(tmp_path, text)
        assert load_config(path).strict is strict

    def test_boolean_typo_rejected(self, tmp_path, capsys):
        # a typo must not read as False
        text = BASE_CONFIG.format(out=tmp_path / "out") + "strict = ture\n"
        path, out = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=r"\[output\] strict"):
            load_config(path)
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("section, key, value", [
        ("model", "alpha", "nan"), ("virial", "theta2", "inf"), ("grid", "l", "inf"),
        ("virial", "theta3", "nan"), ("virial", "theta3", "-inf"), ("stepper", "dt", "nan"),
        ("initial", "amplitude_u", "inf"), ("window", "power_exponent", "nan"),
    ])
    def test_non_finite_values_rejected(self, tmp_path, capsys, section, key, value):
        # rejected where the value is read, before any stepping or output
        parser = configparser.ConfigParser()
        parser.read_string(BASE_CONFIG.format(out=tmp_path / "out"))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
        path, out = tmp_path / "run.ini", tmp_path / "out"
        with open(path, "w") as fh:
            parser.write(fh)
        assert main(["run", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: [{section}] {key}: ")
        assert captured.out == ""
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("family, keys", [
        ("gaussian", "carrier = 3.0"),  # read only by modulated_gaussian
        ("gaussian", "speed = 7.0"),  # read only by kdv_soliton
        ("kdv_soliton", "amplitude_u = 0.2"),
        ("zero", "width_v = 2.0"),
        ("sum", ""),  # not a family
        ("custom", ""),  # not a family
        ("nope", ""),
    ], ids=["gaussian-carrier", "gaussian-speed", "kdv_soliton-amplitude_u", "zero-width_v",
            "sum", "custom", "unknown"])
    def test_initial_keys_the_family_reads(self, tmp_path, family, keys):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "family = gaussian\namplitude_u = 0.2\namplitude_v = 0.2",
            f"family = {family}\n{keys}")
        path, _ = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=r"\[initial\] family"):
            load_config(path)

    README_CONFIG = re.search(r"```ini\n(.*?)```",
                              (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                              re.S).group(1)

    @pytest.mark.parametrize("text", [
        README_CONFIG,
        "# Schr\u00f6dinger\u2013KdV, \u03b1 = 1, \u00b5-scale\n" + BASE_CONFIG.format(out="out"),
    ], ids=["readme", "non-ascii-comment"])
    def test_config_hash_is_sha256_of_the_text(self, tmp_path, text):
        path, _ = _write_config(tmp_path, text)
        assert load_config(path).config_hash == hashlib.sha256(text.encode()).hexdigest()

    def test_run_loads_no_openssl(self, tmp_path):
        # the digest comes from the interpreter's own SHA-256, so a run never
        # maps OpenSSL's libcrypto through hashlib; a fresh process, because
        # this one may have loaded it for other reasons
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 64\nl = 16.0")
        path, out = _write_config(tmp_path, text)
        script = textwrap.dedent(f"""
            import sys
            from skdv import cli
            assert cli.main(["run", {str(path)!r}]) == 0
            print("_hashlib" in sys.modules)
        """)
        src = os.path.dirname(os.path.dirname(skdv.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        printed = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True).stdout
        assert (out / "decay.csv").exists()
        assert printed.splitlines()[-1] == "False"

    def test_seed_key_rejected(self, tmp_path):
        # nothing in a run is random, so a seed would be parsed and ignored
        text = BASE_CONFIG.format(out=tmp_path / "out") + "seed = 3\n"
        path, _ = _write_config(tmp_path, text)
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["run", str(path)]) == EXIT_CONFIG


# the value each schema key is set to in EVERY_KEY_CONFIG, none of them a
# default and no two alike, and where load_config must put it
EVERY_KEY = {
    ("grid", "n"): ("512", 512, lambda c: c.grid.num_points),
    ("grid", "l"): ("48.0", 48.0, lambda c: c.grid.half_length),
    ("stepper", "dt"): ("0.004", 0.004, lambda c: c.stepper.dt),
    ("stepper", "t_end"): ("2.4", 2.4, lambda c: c.stepper.t_end),
    ("stepper", "scheme"): ("lie", "lie", lambda c: c.stepper.scheme),
    ("stepper", "snapshot_stride"): ("7", 7, lambda c: c.stepper.snapshot_stride),
    ("model", "alpha"): ("1.5", 1.5, lambda c: c.params.alpha),
    ("model", "beta"): ("-0.25", -0.25, lambda c: c.params.beta),
    ("model", "gamma"): ("0.75", 0.75, lambda c: c.params.gamma),
    ("initial", "family"): ("modulated_gaussian", "modulated_gaussian",
                            lambda c: c.initial.family),
    ("initial", "amplitude_u"): ("0.3", 0.3, lambda c: c.initial.amplitude_u),
    ("initial", "amplitude_v"): ("0.35", 0.35, lambda c: c.initial.amplitude_v),
    ("initial", "width_u"): ("1.25", 1.25, lambda c: c.initial.width_u),
    ("initial", "width_v"): ("1.75", 1.75, lambda c: c.initial.width_v),
    ("initial", "carrier"): ("0.6", 0.6, lambda c: c.initial.carrier),
    ("virial", "p1"): ("0.2", 0.2, lambda c: c.virial.p1),
    ("virial", "p2"): ("3.5", 3.5, lambda c: c.virial.p2),
    ("virial", "theta2"): ("1.3", 1.3, lambda c: c.virial.theta2),
    ("virial", "theta3"): ("0.9", 0.9, lambda c: c.virial.theta3),
    ("window", "p"): ("0.4", 0.4, lambda c: c.window.exponent),
    ("window", "m"): ("0.1", 0.1, lambda c: c.window.center_exponent),
    ("window", "constant"): ("2.5", 2.5, lambda c: c.window.window_constant),
    ("window", "power_exponent"): ("0.65", 0.65, lambda c: c.power_exponent),
    ("output", "directory"): ("elsewhere", Path("elsewhere"), lambda c: c.output_dir),
    ("output", "strict"): ("true", True, lambda c: c.strict),
}
EVERY_KEY_CONFIG = "".join(
    f"[{section}]\n" + "".join(f"{k} = {EVERY_KEY[(s, k)][0]}\n"
                               for s, k in EVERY_KEY if s == section) + "\n"
    for section in dict.fromkeys(s for s, _ in EVERY_KEY))


class TestSchema:
    """cli._SCHEMA is the one list of config keys: the README documents it
    and load_config puts each key where it belongs."""

    def test_readme_table_matches_schema(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:5]]
                 for line in text.splitlines() if line.startswith("| `[")]
        schema = [(section, *row) for section, rows in cli._SCHEMA.items() for row in rows]
        assert len(table) == len(schema)
        type_names = {int: "int", float: "float", str: "str", bool: "bool"}
        parser = configparser.ConfigParser()
        for (section_cell, key_cell, type_cell, default_cell), (section, key, cast, default) \
                in zip(table, schema):
            assert (section_cell, key_cell, type_cell) == (
                f"`[{section}]`", f"`{key}`", type_names.get(cast, "float or `auto`"))
            # the documented default, read as an INI value, is the schema's
            parser.read_dict({section: {key: default_cell.strip("`")}})
            assert cli._get(parser, section, key, cast, None) == default, (section, key)

    def test_every_key_lands_in_its_field(self, tmp_path):
        assert set(EVERY_KEY) == {(section, key) for section, rows in cli._SCHEMA.items()
                                  for key, _, _ in rows} - {("initial", "speed")}
        defaults = {(section, key): default for section, rows in cli._SCHEMA.items()
                    for key, _, default in rows}
        values = [want for _, want, _ in EVERY_KEY.values()]
        assert len(set(map(repr, values))) == len(values)
        path, _ = _write_config(tmp_path, EVERY_KEY_CONFIG)
        cfg = load_config(path)
        for (section, key), (_, want, field) in EVERY_KEY.items():
            assert want != defaults[(section, key)], (section, key)
            assert field(cfg) == want, (section, key)
        # speed is read only by kdv_soliton, which reads nothing else
        path, _ = _write_config(tmp_path, "[initial]\nfamily = kdv_soliton\nspeed = 2.5\n")
        assert load_config(path).initial.speed == 2.5


class TestRunCommand:
    def test_outputs_and_headers(self, tmp_path):
        path, out = _write_config(tmp_path)
        assert main(["run", str(path)]) == EXIT_OK
        cfg = load_config(path)
        for name, header in EXPECTED_HEADERS.items():
            lines = (out / name).read_text().splitlines()
            assert lines[0] == f"# config={cfg.config_hash}"
            assert lines[1] == header
            # snapshots at t = 0, 0.05, 0.1
            assert len(lines) == 2 + 3

    def test_readme_csv_table_matches_columns(self):
        # the README lists each file run writes with its columns in order:
        # the files and columns of experiments.CSV_COLUMNS, the headers above
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = {cells[1].strip(" `"): [c.strip("`") for c in cells[2].strip().split(", ")]
                 for cells in (re.split(r"(?<!\\)\|", line) for line in text.splitlines()
                               if re.match(r"\| `\w+\.csv` \|", line))}
        assert list(table) == list(experiments.CSV_COLUMNS)
        assert table == {name: list(columns)
                         for name, columns in experiments.CSV_COLUMNS.items()}
        assert {name: ",".join(columns) for name, columns in table.items()} == EXPECTED_HEADERS

    def test_zero_data_rows(self, tmp_path):
        # the zero family reads no amplitude, so the config sets none
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "family = gaussian\namplitude_u = 0.2\namplitude_v = 0.2", "family = zero"
        )
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_OK
        rows = (out / "invariants.csv").read_text().splitlines()[2:]
        for row in rows:
            t, m, q, e = row.split(",")[:4]
            assert float(m) == 0.0 and float(q) == 0.0 and float(e) == 0.0

    def test_deterministic(self, tmp_path):
        path, out = _write_config(tmp_path)
        main(["run", str(path)])
        first = {n: (out / n).read_bytes() for n in EXPECTED_HEADERS}
        main(["run", str(path)])
        second = {n: (out / n).read_bytes() for n in EXPECTED_HEADERS}
        assert first == second

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_exit_code(self, tmp_path):
        text = BLOWUP_CONFIG.format(out=tmp_path / "out")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_BLOWUP
        assert (out / "flags.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_keeps_rows_stride_1(self, tmp_path, capsys):
        # the step to t=1.5 overflows: every snapshot before it is written,
        # and only the last finite one carries the blow-up flag
        text = BLOWUP_CONFIG.format(out=tmp_path / "out").replace(
            "t_end = 20.0", "t_end = 20.0\nsnapshot_stride = 1")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_BLOWUP
        assert "blow-up detected at t=1.5" in capsys.readouterr().err
        for name in EXPECTED_HEADERS:
            rows = [r.split(",") for r in (out / name).read_text().splitlines()[2:]]
            assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0], name
        flags = [r.split(",") for r in (out / "flags.csv").read_text().splitlines()[2:]]
        assert [r[2] for r in flags] == ["0", "0", "1"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_row_has_a_finite_boundary_mass(self, tmp_path):
        # the last finite snapshot, at t = 1, holds v near 4.7e231, so
        # |u|^2 + v^2 overflows though u and v are finite
        text = BLOWUP_CONFIG.format(out=tmp_path / "out").replace(
            "t_end = 20.0", "t_end = 20.0\nsnapshot_stride = 1")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_BLOWUP
        last = (out / "flags.csv").read_text().splitlines()[-1].split(",")
        assert last[0] == "1" and last[2] == "1"
        assert 0.0 <= float(last[1]) <= 1.0

    def test_residual_columns_match_public_functions(self, tmp_path, monkeypatch):
        # stride 1 past t = 2: the residual columns must equal the public
        # window functions bit for bit, with J2 and J3 evaluated, and one
        # Weights built, once per snapshot at t > 0
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "dt = 0.01\nt_end = 0.1\nsnapshot_stride = 5",
            "dt = 0.05\nt_end = 2.3\nsnapshot_stride = 1",
        ).replace("beta = 0.0", "beta = 0.5")
        path, out = _write_config(tmp_path, text)
        cfg = load_config(path)
        calls = {"J2": 0, "J3": 0}
        for name in calls:
            original = getattr(virial, f"functional_{name}")

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(virial, f"functional_{name}", counted)
        built_at, build = [], virial.Weights.__init__

        def counted_build(self, grid, config, t):
            built_at.append(t)
            build(self, grid, config, t)

        monkeypatch.setattr(virial.Weights, "__init__", counted_build)
        virial.Weights.at.cache_clear()  # no table left from an earlier run
        assert main(["run", str(path)]) == EXIT_OK
        monkeypatch.undo()

        rows = [[float(x) for x in r.split(",")]
                for r in (out / "virial.csv").read_text().splitlines()[2:]]
        snaps = run(make_initial_data(cfg.initial, cfg.grid, boundary_threshold=1e-6),
                    cfg.stepper, cfg.params, keep_snapshots=True).snapshots
        assert len(rows) == len(snaps) == 47
        assert calls == {"J2": 46, "J3": 46}
        assert built_at == [s.time for s in snaps[1:]]
        checked = 0
        for i, (s, row) in enumerate(zip(snaps, rows)):
            assert row[0] == s.time
            if i == 0:
                assert np.all(np.isnan(row[1:]))
                continue
            assert row[1] == virial.functional_J2(s, cfg.virial)
            assert row[2] == virial.functional_J3(s, cfg.virial, cfg.params)
            if s.time < 2 or i > len(snaps) - 3:
                assert np.all(np.isnan(row[3:]))
                continue
            window = [virial.window_entry(w, cfg.virial, cfg.params) for w in snaps[i - 2 : i + 3]]
            r2, r3 = virial.identity_residual_prop2(window), virial.identity_residual_prop3(window)
            combined = virial.identity_residual_combined(r2, r3, cfg.virial)
            assert (row[3], row[4], row[5]) == (r2.residual, r3.residual, combined.residual)
            checked += 1
        assert checked == 5  # centres t = 2.0 ... 2.2

        # the other four CSVs, row by row, against the public functions
        params, s0 = cfg.params, snaps[0]
        phi = conservation.phi_smallness(s0, params).phi
        slope = momentum.predicted_slope(s0, params)
        acc = decay.make_accumulators()
        power = 2.0 + cfg.power_exponent
        tables = {name: _rows(out, name)
                  for name in ("invariants.csv", "decay.csv", "moments.csv", "flags.csv")}
        for i, s in enumerate(snaps):
            inv = conservation.invariant_sample(s, params)
            _same(tables["invariants.csv"][i], [s.time, inv.mass, inv.q_momentum, inv.energy,
                                                inv.u_h1, inv.v_h1, phi - (inv.u_h1 + inv.v_h1)])
            energies, clipped = [np.nan] * 6, False
            if s.time > 0:
                kinds = [("mixed", 4.0), ("coupling", 4.0), ("grad_u", 4.0), ("grad_v", 4.0),
                         ("power_u", power), ("power_v", power)]
                found = [decay.windowed_energy(s, cfg.window, k, params, p) for k, p in kinds]
                energies = [we.value for we in found]
                clipped = any(we.clipped for we in found[:4])
            if s.time >= 2:
                decay.weighted_accumulator_step(s, cfg.virial, params, acc, cfg.power_exponent)
            _same(tables["decay.csv"][i], [
                s.time, cfg.window.exponent, cfg.window.center_exponent, *energies,
                *(acc[tag].value for tag in ("mixed_kdv", "schrodinger_coupling",
                                             "gradient_u", "gradient_v", "quartic_u"))])
            ms = momentum.moment_sample(s, params)
            _same(tables["moments.csv"][i], [s.time, ms.b_moment, ms.u_moment, ms.f_moment,
                                             slope])
            _same(tables["flags.csv"][i], [s.time, model.boundary_mass(s), 0, clipped])
        assert acc["mixed_kdv"].value > 0  # the accumulators ran

    # (beta, gamma, u) -> (beta/4, gamma/4, 2u) maps solutions to solutions,
    # and every product of the discretization then scales by a power of two,
    # exactly in binary: column -> exponent of the factor 2^j
    COEFFICIENT_MAP_EXPONENTS = {
        **dict.fromkeys(("t", "q", "energy", "v_h1", "J2", "J3", "res_prop2", "res_prop3",
                         "res_combined", "window_p", "window_m", "E_mixed", "E_gradv", "E_vk",
                         "acc_mixed", "acc_gradv", "B", "blowup", "window_clipped"), 0),
        **dict.fromkeys(("u_h1", "E_coupling", "acc_coupling"), 1),
        **dict.fromkeys(("mass", "E_gradu", "acc_gradu", "Umom", "F", "predicted_slope"), 2),
        "acc_quartic": 4,
    }

    def test_exact_coefficient_map(self, tmp_path):
        # criterion 06's data off the unit coefficients; -0.075 and 0.475 are
        # repr(-0.3/4) and repr(1.9/4), exact quarters of the parsed doubles
        columns = []
        for amplitude_u, beta, gamma in (("0.5", "-0.3", "1.9"), ("1.0", "-0.075", "0.475")):
            out = tmp_path / f"out_{amplitude_u}"
            path = tmp_path / f"run_{amplitude_u}.ini"
            path.write_text(textwrap.dedent(f"""\
                [grid]
                n = 512
                l = 32.0
                [stepper]
                dt = 0.01
                t_end = 2.3
                snapshot_stride = 1
                [model]
                alpha = 0.7
                beta = {beta}
                gamma = {gamma}
                [initial]
                family = modulated_gaussian
                amplitude_u = {amplitude_u}
                amplitude_v = 0.4
                width_u = 2.0
                width_v = 2.0
                carrier = 0.5
                [output]
                directory = {out}
                """))
            assert main(["run", str(path)]) == EXIT_OK
            columns.append({column: np.array([row[i] for row in _rows(out, name)])
                            for name, names in experiments.CSV_COLUMNS.items()
                            for i, column in enumerate(names)})
        base, mapped = columns
        assert len(base["t"]) == 231
        for column, exponent in self.COEFFICIENT_MAP_EXPONENTS.items():
            assert np.array_equal(mapped[column], 2.0**exponent * base[column],
                                  equal_nan=True), column
        np.testing.assert_allclose(mapped["E_uk"], 2.0**2.5 * base["E_uk"], rtol=1e-13)
        assert set(base) - set(self.COEFFICIENT_MAP_EXPONENTS) == {
            "E_uk", "margin", "boundary_mass"}

    def test_decay_csv_holds_the_decay_scan(self, tmp_path):
        # stride 1 past t = 2: decay.csv's rows at t >= 2 carry decay_scan's
        # series bit for bit (a double round-trips through %.17g)
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "dt = 0.01\nt_end = 0.1\nsnapshot_stride = 5",
            "dt = 0.05\nt_end = 2.3\nsnapshot_stride = 1",
        ).replace("beta = 0.0", "beta = 0.5")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_OK
        cfg = load_config(path)
        scan = experiments.decay_scan(make_initial_data(cfg.initial, cfg.grid), cfg.stepper,
                                      cfg.params, cfg.window, cfg.virial, cfg.power_exponent)
        columns = experiments.CSV_COLUMNS["decay.csv"]
        rows = [dict(zip(columns, row)) for row in _rows(out, "decay.csv") if row[0] >= 2]
        assert len(rows) == 7  # t = 2.0 ... 2.3
        assert [row["t"] for row in rows] == scan.times
        assert [row["E_mixed"] for row in rows] == scan.mixed
        assert [row["E_gradv"] for row in rows] == scan.grad_v
        for column, tag in experiments.ACC_COLUMNS:
            assert [row[column] for row in rows] == [acc[tag] for acc in scan.acc_rows], tag
        # and flags.csv's boundary masses, of every snapshot, give the scan's box edge
        flags = [(row[0], row[1]) for row in _rows(out, "flags.csv")]
        assert scan.largest_boundary_mass == max(bmass for _, bmass in flags)
        assert scan.edge_time == min(t for t, bmass in flags if bmass > model.BOUNDARY_TOLERANCE)

    def test_no_gn_constant_outside_the_full_regime(self, tmp_path, monkeypatch):
        # with alpha*gamma <= 0 there is no Phi: the margin column is nan and
        # the interpolation constant is never estimated
        def refuse(grid):
            raise AssertionError("estimate_gn_constant called outside the full regime")

        monkeypatch.setattr(conservation, "estimate_gn_constant", refuse)
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("gamma = 1.0", "gamma = -1.0")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_OK
        assert all(np.isnan(row[6]) for row in _rows(out, "invariants.csv"))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_benchmark_gate_run_dense(self, tmp_path, monkeypatch, seed):
        # the benchmark's correctness gate on its run_dense workload at seed
        # 0 (the base config) and 5 (perturbed data): the five CSVs must
        # agree with the recorded reference digest of that variant
        workloads = _bench_module("workloads", monkeypatch)
        check = _bench_module("check", monkeypatch)
        workload = workloads.WORKLOADS["run_dense"]
        variant = workloads.variant_of(seed)
        ini = workloads.render_ini(workload, variant)
        (tmp_path / "run.ini").write_text(ini)
        monkeypatch.chdir(tmp_path)  # the config writes to ./out
        assert main(["run", "run.ini"]) == EXIT_OK
        digest, problems = check.cli_outputs(tmp_path / "out", ini, workload.snapshots)
        assert not problems
        reference = check.load_reference()["run_dense"][str(variant)]
        assert [p for name in check.CSV_FILES
                for p in check.compare_digest(name, digest[name], reference[name])] == []

    def test_traced_run_dense_reports_every_layer_metric(self, tmp_path, monkeypatch):
        # the benchmark's traced child on run_dense at seed 0: a metric is
        # absent when the functions it traces are gone, and reads 0 when the
        # run never calls them; either way it measures nothing
        workloads = _bench_module("workloads", monkeypatch)
        spans = _bench_module("spans", monkeypatch)
        workload = workloads.WORKLOADS["run_dense"]
        (tmp_path / "run.ini").write_text(workloads.render_ini(workload, workloads.variant_of(0)))
        job = {"mode": "run", "trace": True, "cli": True, "ini_path": str(tmp_path / "run.ini"),
               "result_path": str(tmp_path / "result.json"),
               "spans_path": str(tmp_path / "spans.npz")}
        (tmp_path / "job.json").write_text(json.dumps(job))
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "child.py"), str(tmp_path / "job.json")],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=300)
        result = json.loads((tmp_path / "result.json").read_text())
        assert proc.returncode == 0 and result["ok"], result.get("error", proc.stderr)
        values, absent = spans.layer_metrics(tmp_path / "spans.npz", workload.steps,
                                             workload.snapshots)
        assert absent == []
        assert [m for m, v in values.items() if v == 0] == []

    def test_steps_with_keep_snapshots_false(self, tmp_path, monkeypatch):
        path, _ = _write_config(tmp_path)
        results = []

        def spy(*args, **kwargs):
            results.append(run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(experiments, "run", spy)
        assert main(["run", str(path)]) == EXIT_OK
        assert [r.snapshots for r in results] == [[]]

    def test_holds_at_most_five_snapshots(self, tmp_path, monkeypatch):
        # the residual window keeps numbers, so a snapshot is released as
        # soon as its own callback returns and the stepper moves on; the
        # initial state is the stepper's own argument
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "snapshot_stride = 5", "snapshot_stride = 1")
        path, _ = _write_config(tmp_path, text)
        refs, dead = [], []

        def spy(*args, on_snapshot, **kwargs):
            def watched(s):
                refs.append(weakref.ref(s))
                on_snapshot(s)
                gc.collect()
                dead.append([r() is None for r in refs])

            return run(*args, on_snapshot=watched, **kwargs)

        monkeypatch.setattr(experiments, "run", spy)
        assert main(["run", str(path)]) == EXIT_OK
        assert len(refs) == 11
        for i, released in enumerate(dead):
            assert released == [1 <= j <= i - 1 for j in range(i + 1)], i

    def test_two_snapshots(self, tmp_path):
        # fewer snapshots than one residual window still give a row each
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "t_end = 0.1", "t_end = 0.05")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_OK
        for name in EXPECTED_HEADERS:
            assert [r[0] for r in _rows(out, name)] == [0.0, 0.05], name
        assert all(np.all(np.isnan(r[3:])) for r in _rows(out, "virial.csv"))
        assert [r[2] for r in _rows(out, "flags.csv")] == [0.0, 0.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_flags_last_row_stride_2(self, tmp_path, capsys):
        # the step to t=1.5 overflows between snapshots: the last finite
        # snapshot, t=1.0, is the only one flagged
        text = BLOWUP_CONFIG.format(out=tmp_path / "out").replace(
            "t_end = 20.0", "t_end = 20.0\nsnapshot_stride = 2")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_BLOWUP
        assert "blow-up detected at t=1.5" in capsys.readouterr().err
        for name in EXPECTED_HEADERS:
            assert [r[0] for r in _rows(out, name)] == [0.0, 1.0], name
        assert [r[2] for r in _rows(out, "flags.csv")] == [0.0, 1.0]


class TestExitCodes:
    def test_config_error(self, tmp_path):
        path, _ = _write_config(tmp_path, "[bogus]\nx = 1\n")
        assert main(["run", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("theta3", ["auto", "1.5"])
    def test_verify_identities(self, tmp_path, capsys, theta3):
        # an explicit theta3 runs prop2 and prop3 only; the combined
        # identity needs the cancelling choice theta3 = 'auto'
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 64\nl = 16.0"
        ) + f"\n[virial]\ntheta3 = {theta3}\n"
        path, _ = _write_config(tmp_path, text)
        assert main(["verify-identities", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        table = [line.split() for line in lines[1:4]]
        assert [float(r[0]) for r in table] == [2e-3, 1e-3, 5e-4]
        assert all(np.isfinite(float(x)) for r in table for x in r[1:3])
        if theta3 == "auto":
            assert all(np.isfinite(float(r[3])) for r in table)
            assert lines[-1].startswith("cancellation coefficient:")
        else:
            assert all(r[3] == "nan" for r in table)
            assert not any("cancellation" in line for line in lines)

    @pytest.mark.parametrize("command,change", [
        ("run", "alpha = 0.0"),  # theta3 = auto divides by alpha
        ("run", "gamma = 0.0"),  # the F moment divides by gamma
        ("verify-identities", "alpha = 0.0"),
        ("check-smallness", "alpha = 0.0"),  # the explicit constant needs alpha != 0
    ])
    def test_degenerate_parameters(self, tmp_path, capsys, command, change):
        # rejected before stepping, and before any CSV is opened
        key = change.split()[0]
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(f"{key} = 1.0", change)
        path, out = _write_config(tmp_path, text)
        assert main([command, str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "scan-decay"])
    def test_t_end_not_whole_steps(self, tmp_path, capsys, command):
        # t_end = 0.1 is not a whole number of dt = 0.03 steps: rejected by
        # load_config, before any stepping or output
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("dt = 0.01", "dt = 0.03")
        path, out = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="integer multiple of dt"):
            load_config(path)
        assert main([command, str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_scan_decay_before_t2(self, tmp_path, capsys):
        # the scan's series start at t = 2, where the accumulators do
        path, _ = _write_config(tmp_path)
        assert main(["scan-decay", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: scan-decay starts at t = 2, got t_end = 0.1\n"

    @pytest.mark.parametrize("command", ["run", "check-smallness"])
    def test_initial_data_past_the_box(self, tmp_path, capsys, command):
        # a u width of 5 in a box of half-length 8 leaves too much of the
        # data at the edge: rejected before any stepping or output
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 256\nl = 8.0"
        ).replace("amplitude_v = 0.2", "amplitude_v = 0.2\nwidth_u = 5.0")
        path, out = _write_config(tmp_path, text)
        assert main([command, str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "boundary tail" in err
        assert not out.exists()

    @pytest.mark.parametrize("width, code", [(2.8, EXIT_OK), (3.0, EXIT_CONFIG)])
    def test_one_clean_box_threshold(self, tmp_path, capsys, width, code):
        # Gaussians of width 2.8 in a box of half-length 8 leave a tail of
        # 2.4e-7, and of width 3.0 one of 1.4e-6: the library's default and
        # `skdv run` accept and reject the same data, at BOUNDARY_TOLERANCE
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 256\nl = 8.0"
        ).replace("amplitude_v = 0.2", f"amplitude_v = 0.2\nwidth_u = {width}\nwidth_v = {width}")
        path, _ = _write_config(tmp_path, text)
        cfg = load_config(path)
        tail = model.boundary_mass(make_initial_data(cfg.initial, cfg.grid, 1.0))
        assert (tail <= model.BOUNDARY_TOLERANCE) == (code == EXIT_OK), tail
        if code == EXIT_OK:
            make_initial_data(cfg.initial, cfg.grid)
        else:
            with pytest.raises(ValueError, match="boundary tail"):
                make_initial_data(cfg.initial, cfg.grid)
        assert main(["run", str(path)]) == code

    @pytest.mark.parametrize("strict, code", [("true", EXIT_BOUNDARY), ("false", EXIT_OK)])
    def test_boundary_contamination(self, tmp_path, capsys, strict, code):
        # a packet with carrier 8 moves at group velocity 16: it starts clear
        # of the edge of a box of half-length 16 and reaches its outer tenth
        # by t = 0.6; only strict mode turns that into exit code 4
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "l = 32.0", "l = 16.0").replace("t_end = 0.1", "t_end = 0.8").replace(
            "family = gaussian", "family = modulated_gaussian\ncarrier = 8.0"
        ) + f"strict = {strict}\n"
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == code
        bmass = [r[1] for r in _rows(out, "flags.csv")]
        assert bmass[0] <= model.BOUNDARY_TOLERANCE < bmass[-1]
        err = capsys.readouterr().err
        assert ("boundary contamination in strict mode" in err) == (code == EXIT_BOUNDARY)

    def test_check_smallness(self, tmp_path, capsys):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "beta = 0.0", "beta = -0.001"
        ).replace("amplitude_u = 0.2", "amplitude_u = 0.001").replace(
            "amplitude_v = 0.2", "amplitude_v = 0.001"
        )
        path, _ = _write_config(tmp_path, text)
        assert main(["check-smallness", str(path)]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "criterion satisfied" in captured

    @pytest.mark.parametrize("command", ["run", "check-smallness"])
    def test_box_too_small_for_the_gn_sweep(self, tmp_path, capsys, command):
        # clean data in a box that truncates every C_gn profile: no C_gn, so
        # no Phi, and a config error before any output rather than a
        # criterion judged with C_gn = 0
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 64\nl = 0.5").replace("beta = 0.0", "beta = -0.1").replace(
            "amplitude_u = 0.2\namplitude_v = 0.2",
            "amplitude_u = 0.02\namplitude_v = 0.02\nwidth_u = 0.1\nwidth_v = 0.1")
        path, out = _write_config(tmp_path, text)
        cfg = load_config(path)
        make_initial_data(cfg.initial, cfg.grid)  # clear of the box edge
        assert main([command, str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and "enlarge the box" in captured.err
        assert not out.exists()


class TestExperimentOutput:
    """Each subcommand prints what its experiment in skdv.experiments (for
    check-smallness, conservation.phi_smallness) returns, formatted and
    nothing else."""

    @staticmethod
    def _spy(monkeypatch, name, module=experiments):
        returned = []
        original = getattr(module, name)

        def spy(*args, **kwargs):
            returned.append(original(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(module, name, spy)
        return returned

    def test_verify_identities(self, tmp_path, capsys, monkeypatch):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 64\nl = 16.0")
        path, _ = _write_config(tmp_path, text)
        returned = self._spy(monkeypatch, "identity_window")
        assert main(["verify-identities", str(path)]) == EXIT_OK
        [rows] = returned
        assert [r[0] for r in rows] == [2e-3, 1e-3, 5e-4]
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:4] == [f"{dt:>10.1e} {a:>14.6e} {b:>14.6e} {c:>15.6e}"
                              for dt, a, b, c, _, _ in rows]
        # a box of half-length 16 lets the data reach its edge by t = 3
        bmass = rows[-1][5]
        assert bmass > model.BOUNDARY_TOLERANCE
        assert lines[7] == f"boundary mass at the centre (finest dt): {bmass:.3e}"
        assert lines[8].startswith(f"  above {model.BOUNDARY_TOLERANCE:g}: the box edge")
        assert lines[-1] == f"cancellation coefficient: {rows[-1][4]:.3e}"
        assert len(lines) == 10

    def test_scan_decay(self, tmp_path, capsys, monkeypatch):
        # snapshots every 0.1 to t = 2.2: the accumulators run from t = 2
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "dt = 0.01\nt_end = 0.1\nsnapshot_stride = 5",
            "dt = 0.05\nt_end = 2.2\nsnapshot_stride = 2")
        path, _ = _write_config(tmp_path, text)
        returned = self._spy(monkeypatch, "decay_scan")
        assert main(["scan-decay", str(path)]) == EXIT_OK
        [scan] = returned
        assert scan.times == [2.0, 2.1, 2.2] and len(scan.acc_rows) == 3
        assert scan.acc_rows[-1]["mixed_kdv"] > 0
        lines = capsys.readouterr().out.splitlines()
        for line, vals in zip(lines, (scan.mixed, scan.grad_v)):
            report = decay.liminf_tracker(scan.times, vals)
            assert f"running min {report.running_min:.6e}," in line
        assert lines[2:-1] == [f"accumulator {tag}: {scan.acc_rows[-1][tag]:.6e}"
                               for tag in decay.ACCUMULATOR_TAGS]
        assert scan.edge_time == pytest.approx(0.5, rel=1e-12)
        assert lines[-1] == (f"boundary mass: largest {scan.largest_boundary_mass:.3e}, "
                             f"first above {model.BOUNDARY_TOLERANCE:g} at t = 0.5")

    def test_scan_decay_clear_of_the_box_edge(self, tmp_path, capsys):
        # a KdV soliton sheds no radiation: it never reaches the box edge
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "dt = 0.01\nt_end = 0.1\nsnapshot_stride = 5",
            "dt = 0.05\nt_end = 2.2\nsnapshot_stride = 2",
        ).replace("family = gaussian\namplitude_u = 0.2\namplitude_v = 0.2",
                  "family = kdv_soliton\nspeed = 1.0")
        path, _ = _write_config(tmp_path, text)
        assert main(["scan-decay", str(path)]) == EXIT_OK
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"boundary mass: largest \S+, never above 1e-06", last), last

    def test_scan_decay_reports_the_box_edge(self, tmp_path, capsys, monkeypatch):
        # the README config, which strict mode rejects: its boundary mass
        # passes 1e-6 at t = 0.9, before the scan's series start at t = 2
        path, _ = _write_config(tmp_path, TestLoadConfig.README_CONFIG)
        returned = self._spy(monkeypatch, "decay_scan")
        assert main(["scan-decay", str(path)]) == EXIT_OK
        [scan] = returned
        assert scan.edge_time == pytest.approx(0.9, rel=1e-12)
        assert scan.largest_boundary_mass > model.BOUNDARY_TOLERANCE
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"boundary mass: largest {scan.largest_boundary_mass:.3e}, "
            f"first above {model.BOUNDARY_TOLERANCE:g} at t = {scan.edge_time:g}")

    def test_convergence(self, tmp_path, capsys, monkeypatch):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 64\nl = 16.0")
        path, _ = _write_config(tmp_path, text)
        errors = self._spy(monkeypatch, "analytic_errors")
        drifts = self._spy(monkeypatch, "drift_halving")
        assert main(["convergence", str(path)]) == EXIT_OK
        [(err_u, err_v)], [rows] = errors, drifts
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"free-Schrodinger L2 error at t=1: {err_u:.3e}",
                             f"KdV soliton L2 shape error at t=5: {err_v:.3e}"]
        assert [r[0] for r in rows] == [4e-3, 2e-3, 1e-3]
        assert lines[3:6] == [f"{dt:>10.1e} {dq:>14.6e} {de:>14.6e}" for dt, dq, de in rows]
        assert len(lines) == 8

    def test_check_smallness(self, tmp_path, capsys, monkeypatch):
        # the README config at beta = -0.1: six lines, from one report
        text = TestLoadConfig.README_CONFIG.replace("beta = 0.0", "beta = -0.1")
        path, _ = _write_config(tmp_path, text)
        returned = self._spy(monkeypatch, "phi_smallness", conservation)
        assert main(["check-smallness", str(path)]) == EXIT_OK
        [report] = returned
        assert capsys.readouterr().out.splitlines() == [
            f"C_gn (L4 interpolation) = {report.c_gn:.12g}",
            f"C (main form)           = {report.c_abg:.12g}",
            f"Phi                     = {report.phi:.12g}",
            f"-beta*Phi               = {report.criterion_lhs:.12g}",
            f"alpha*gamma             = {report.criterion_rhs:.12g}",
            f"criterion satisfied     = {report.satisfied}",
        ]

    def test_check_smallness_outside_the_regime(self, tmp_path, capsys, monkeypatch):
        # the README config itself, at beta = 0: the same first three lines,
        # then no verdict and no signed -beta*Phi
        path, _ = _write_config(tmp_path, TestLoadConfig.README_CONFIG)
        returned = self._spy(monkeypatch, "phi_smallness", conservation)
        assert main(["check-smallness", str(path)]) == EXIT_OK
        [report] = returned
        assert not report.applicable and not report.satisfied
        assert capsys.readouterr().out.splitlines() == [
            f"C_gn (L4 interpolation) = {report.c_gn:.12g}",
            f"C (main form)           = {report.c_abg:.12g}",
            f"Phi                     = {report.phi:.12g}",
            "criterion satisfied     = n/a (needs beta < 0 and alpha*gamma > 0)",
        ]
