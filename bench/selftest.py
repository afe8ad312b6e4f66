"""Self-test of the run checker: corrupted outputs must make a run fail.

Usage (from the repository root):

    python3 bench/selftest.py

Makes one real run of run_dense and one of decay_n8192 (seed 0), checks
that each passes unchanged, then applies one corruption at a time to a copy
of its outputs and checks that the same check_run call used by run.py now
reports the run as failed.  Exits 1 if any corruption goes unnoticed.
"""

import copy
import shutil
import sys
import time

import check
from run import OUT, Runner
from workloads import WORKLOADS


def _edit_csv(name, row, column, edit):
    """Corruption that rewrites one value of one CSV (row counts data rows)."""
    def apply(out_dir, result):
        path = out_dir / name
        lines = path.read_text().splitlines()
        col = lines[1].split(",").index(column)
        cells = lines[2 + row].split(",")
        cells[col] = repr(edit(float(cells[col])))
        lines[2 + row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return apply


def _drop_row(name, row):
    def apply(out_dir, result):
        path = out_dir / name
        lines = path.read_text().splitlines()
        del lines[2 + row]
        path.write_text("\n".join(lines) + "\n")
    return apply


def _set_result(path, value):
    def apply(out_dir, result):
        target = result
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return apply


def _remove(name):
    return lambda out_dir, result: (out_dir / name).unlink()


def _rewrite_first_line(name):
    def apply(out_dir, result):
        path = out_dir / name
        lines = path.read_text().splitlines()
        lines[0] = "# config=" + "0" * 64
        path.write_text("\n".join(lines) + "\n")
    return apply


MIDDLE = 401  # run_dense row that the digest does not keep (stride 51)
CORRUPTIONS = {
    "run_dense": {
        "one mass value x(1+1e-4), row not kept": _edit_csv("invariants.csv", MIDDLE, "mass",
                                                            lambda x: x * (1 + 1e-4)),
        "one J2 value x(1+1e-6), kept row": _edit_csv("virial.csv", 408, "J2",
                                                      lambda x: x * (1 + 1e-6)),
        "one energy value x(1+1e-6), last row": _edit_csv("invariants.csv", 800, "energy",
                                                          lambda x: x * (1 + 1e-6)),
        "accumulator set to nan": _edit_csv("decay.csv", 800, "acc_mixed",
                                            lambda x: float("nan")),
        "accumulator decreases": _edit_csv("decay.csv", 600, "acc_gradv",
                                           lambda x: x * 0.5),
        "one row missing": _drop_row("moments.csv", MIDDLE),
        "CSV missing": _remove("flags.csv"),
        "config line changed": _rewrite_first_line("virial.csv"),
        "mass drift 1e-9": _set_result(("invariants", "mass_rel_drift"), 1e-9),
        "blow-up exit code": _set_result(("exit_code",), 3),
    },
    "decay_n8192": {
        "accumulator set to inf": _set_result(("series", "acc", -1, "mixed_kdv"), float("inf")),
        "windowed energy x(1+1e-6)": _set_result(("series", "mixed", 1), lambda x: x * (1 + 1e-6)),
        "int(v) drift 1e-9": _set_result(("invariants", "vint_drift"), 1e-9),
        "child raised": _set_result(("ok",), False),
    },
}


def main() -> int:
    missed = 0
    for name, corruptions in CORRUPTIONS.items():
        workload = WORKLOADS[name]
        work = OUT / "work" / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(workload, 0, work, time.perf_counter() + 150.0)
        record, result, run_dir = runner.spawn("run", trace=False)
        try:
            _, problems = check.check_run(workload, runner.ini_text, result, run_dir / "out",
                                          runner.reference)
            problems = record["problems"] + problems
            print(f"{name}: unchanged run {'passes' if not problems else 'FAILS'}")
            if problems or runner.reference is None:
                print("  " + "; ".join(problems or ["no reference recorded"]))
                return 1
            for label, corrupt in corruptions.items():
                out_dir = work / "corrupt"
                shutil.rmtree(out_dir, ignore_errors=True)
                if workload.cli:
                    shutil.copytree(run_dir / "out", out_dir)
                else:
                    out_dir.mkdir()
                bad = copy.deepcopy(result)
                corrupt(out_dir, bad)
                _, found = check.check_run(workload, runner.ini_text, bad, out_dir,
                                           runner.reference)
                missed += not found
                print(f"  {label}: {'counted as failed' if found else 'NOT DETECTED'}"
                      + (f" ({found[0][:100]})" if found else ""))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("selftest", "FAILED" if missed else "passed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
