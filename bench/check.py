"""Correctness check of one benchmark run, and the reference digests it
compares against.

A run passes when the child finished, skdv reported success (no blow-up),
the exact invariants held, the accumulators are finite and non-decreasing,
and the outputs agree with the reference recorded for the workload variant:

- mass drift, relative: at most MASS_TOL; drift of int(v), absolute: at most
  VINT_TOL (the thresholds of acceptance criterion 01);
- CLI workloads: all five CSVs exist, start with ``# config=<sha256 of the
  INI>``, have the reference header and one row per snapshot, and agree
  with the reference digest to relative tolerance RTOL;
- library workload: the streamed windowed energies and accumulators agree
  with the reference to RTOL.

A CSV digest keeps every value of a strided subset of rows, and the sum of
|value| and the NaN count of every column over all rows; so a change of any
single value by more than about RTOL times its column's |sum| is caught.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

MASS_TOL = 1e-11
VINT_TOL = 1e-11
RTOL = 1e-8
CSV_FILES = ("invariants.csv", "virial.csv", "decay.csv", "moments.csv", "flags.csv")
ACC_PREFIX = "acc_"
KEPT_ROWS = 16
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}


def read_csv(path: Path) -> tuple[str, list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    return lines[0], header, rows


def _round(x: float):
    return None if math.isnan(x) else float(f"{x:.10g}")


def csv_digest(header: list[str], rows: list[list[float]]) -> dict:
    stride = max(1, math.ceil(len(rows) / KEPT_ROWS))
    kept = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    columns = list(zip(*rows))
    return {
        "header": header,
        "rows": len(rows),
        "kept": kept,
        "values": [[_round(x) for x in rows[i]] for i in kept],
        "abs_sum": [float(f"{sum(abs(x) for x in c if not math.isnan(x)):.12g}") for c in columns],
        "abs_max": [max((abs(x) for x in c if not math.isnan(x)), default=0.0) for c in columns],
        "nans": [sum(math.isnan(x) for x in c) for c in columns],
    }


def _close(got, ref, scale: float) -> bool:
    if ref is None or got is None:
        return ref is None and got is None
    return abs(got - ref) <= RTOL * max(abs(ref), scale)


def compare_digest(name: str, got: dict, ref: dict) -> list[str]:
    if got["header"] != ref["header"]:
        return [f"{name}: header {got['header']} != reference {ref['header']}"]
    if got["rows"] != ref["rows"]:
        return [f"{name}: {got['rows']} rows, reference has {ref['rows']}"]
    problems = []
    for j, col in enumerate(ref["header"]):
        if got["nans"][j] != ref["nans"][j]:
            problems.append(f"{name}:{col}: {got['nans'][j]} NaNs, reference {ref['nans'][j]}")
        if not _close(got["abs_sum"][j], ref["abs_sum"][j], 1e-300):
            problems.append(f"{name}:{col}: sum|x| {got['abs_sum'][j]!r} "
                            f"!= reference {ref['abs_sum'][j]!r}")
        scale = ref["abs_max"][j]
        for row, g, r in zip(ref["kept"], got["values"], ref["values"]):
            if not _close(g[j], r[j], scale):
                problems.append(f"{name}:{col} row {row}: {g[j]!r} != reference {r[j]!r}")
    return problems


def _non_decreasing_finite(label: str, values: list[float]) -> list[str]:
    if not all(math.isfinite(x) for x in values):
        return [f"{label}: non-finite accumulator value"]
    if any(b < a for a, b in zip(values, values[1:])):
        return [f"{label}: accumulator decreases"]
    return []


def cli_outputs(out_dir: Path, ini_text: str, snapshots: int) -> tuple[dict, list[str]]:
    """Digest of the five CSVs of a `skdv run`, and the problems found in them."""
    expected_line = f"# config={hashlib.sha256(ini_text.encode()).hexdigest()}"
    digests, problems = {}, []
    for name in CSV_FILES:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        try:
            first, header, rows = read_csv(path)
        except (ValueError, IndexError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        if first != expected_line:
            problems.append(f"{name}: first line {first!r}, expected {expected_line!r}")
        if len(rows) != snapshots:
            problems.append(f"{name}: {len(rows)} rows, expected {snapshots}")
        if not rows or any(len(r) != len(header) for r in rows):
            problems.append(f"{name}: ragged or empty rows")
            continue
        for j, col in enumerate(header):
            if col.startswith(ACC_PREFIX):
                problems += _non_decreasing_finite(f"{name}:{col}", [r[j] for r in rows])
            if col == "blowup" and any(r[j] != 0 for r in rows):
                problems.append(f"{name}: blow-up flagged")
        digests[name] = csv_digest(header, rows)
    return digests, problems


def library_outputs(series: dict) -> tuple[dict, list[str]]:
    """Digest of the streamed diagnostics of a library run, and their problems."""
    problems = []
    for tag in series["acc"][0] if series["acc"] else ():
        problems += _non_decreasing_finite(f"accumulator {tag}", [row[tag] for row in series["acc"]])
    if not series["t"]:
        problems.append("no snapshot reached t >= 2")
    for key in ("mixed", "grad_v"):
        if not all(math.isfinite(x) for x in series[key]):
            problems.append(f"windowed energy {key}: non-finite value")
    digest = {"t": series["t"], "mixed": series["mixed"], "grad_v": series["grad_v"],
              "acc_final": series["acc"][-1] if series["acc"] else {}}
    return digest, problems


def compare_library(got: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("t", "mixed", "grad_v"):
        if len(got[key]) != len(ref[key]) or not all(
                _close(g, r, 0.0) for g, r in zip(got[key], ref[key])):
            problems.append(f"{key}: {got[key]} != reference {ref[key]}")
    if set(got["acc_final"]) != set(ref["acc_final"]):
        problems.append("accumulator tags differ from reference")
    for tag, r in ref["acc_final"].items():
        g = got["acc_final"].get(tag)
        if g is not None and not _close(g, r, 0.0):
            problems.append(f"accumulator {tag}: {g!r} != reference {r!r}")
    return problems


def check_run(workload, ini_text: str, result: dict, out_dir: Path,
              reference: dict | None) -> tuple[dict | None, list[str]]:
    """(digest, problems) for one full run; the run passed if problems is empty.

    ``reference`` is the recorded digest of this workload variant; None skips
    the comparison (used only while recording the reference)."""
    if not result.get("ok"):
        return None, [f"run raised: {result.get('error', 'no result written')}".strip()]
    problems = []
    if result.get("exit_code") != 0:
        problems.append(f"skdv exit code {result.get('exit_code')}")
    inv = result["invariants"]
    if not inv["finite"]:
        problems.append("non-finite state (blow-up)")
    if not inv["mass_rel_drift"] <= MASS_TOL:
        problems.append(f"relative mass drift {inv['mass_rel_drift']:.3e} > {MASS_TOL:g}")
    if not inv["vint_drift"] <= VINT_TOL:
        problems.append(f"int(v) drift {inv['vint_drift']:.3e} > {VINT_TOL:g}")
    if workload.cli:
        digest, found = cli_outputs(out_dir, ini_text, workload.snapshots)
        problems += found
        if reference is not None:
            for name in CSV_FILES:
                if name in digest and name in reference:
                    problems += compare_digest(name, digest[name], reference[name])
                elif name not in reference:
                    problems.append(f"{name}: no reference recorded")
    else:
        digest, found = library_outputs(result["series"])
        problems += found
        if reference is not None:
            problems += compare_library(digest, reference)
    return digest, problems
