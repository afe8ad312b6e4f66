"""Negative controls for the test suite: one-line mutants of the package,
each paired with the fast tests that exist to catch it.

Usage: python3 tools/mutants.py [--rev REV]

For each entry of MUTANTS the tool extracts ``git archive REV`` (HEAD by
default) into a temporary directory, replaces the one line of the file
that reads ``old`` (leading whitespace aside) by ``new`` at the same
indentation, and runs pytest on the entry's tests there.  First it runs
every named test once on the unmutated copy, which must pass.  A mutant
whose tests all pass survived.  The tool prints one line per mutant and
exits 1 if any survived or could not be applied, else 0.

Standard library and git only; it runs offline.  The test suite does not
run it, but tests/test_mutants.py checks that each ``old`` line still
occurs exactly once in its file.  A change that adds a check adds here the
mutant the check exists to catch.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str  # the line to replace, without its indentation
    new: str
    tests: tuple  # pytest node ids, at least one of which must fail


_COUPLED = "tests/test_integrator.py::TestCoupledSolitaryWaves::test_error_and_order"
MUTANTS = (
    Mutant("src/skdv/integrator.py",  # the phase with gamma for alpha
           "v_avg *= params.alpha",
           "v_avg *= params.gamma",
           (f"{_COUPLED}[beta-zero]",)),
    Mutant("src/skdv/integrator.py",  # the v flux with alpha for gamma
           "gamma_term = np.multiply(params.gamma, u_sq, out=work.gamma_u_sq)",
           "gamma_term = np.multiply(params.alpha, u_sq, out=work.gamma_u_sq)",
           (f"{_COUPLED}[beta-zero]",)),
    Mutant("src/skdv/integrator.py",  # the phase without its trapezoidal v average
           "v_avg = np.add(v, v_new, out=k)",
           "v_avg = np.add(v_new, v_new, out=k)",
           (f"{_COUPLED}[beta-zero]",)),
    Mutant("src/skdv/momentum.py",  # 2 gamma ||u||^2 for 2 alpha ||u||^2
           "return 2.0 * params.alpha * l2_norm(initial.u) ** 2 - q0 / params.gamma",
           "return 2.0 * params.gamma * l2_norm(initial.u) ** 2 - q0 / params.gamma",
           ("tests/test_momentum.py::TestPredictedSlope::test_coupled_solitary_wave",)),
    Mutant("src/skdv/virial.py",  # a numeric theta3 doubled
           "return float(self.theta3)",
           "return 2.0 * float(self.theta3)",
           ("tests/test_virial.py::TestTheta3::test_numeric_value_of_auto",)),
    Mutant("src/skdv/decay.py",  # a left rectangle for the trapezoidal rule
           "acc.value += 0.5 * (integrand + acc.last_integrand) * (t - acc.last_time)",
           "acc.value += acc.last_integrand * (t - acc.last_time)",
           ("tests/test_decay.py::TestAccumulators::test_second_order_in_the_snapshot_spacing",)),
    Mutant("src/skdv/decay.py",  # |v|^(k-2) for |v|^k
           '"power_v": lambda u, v, p, k, c: np.abs(v.samples[c]) ** k,',
           '"power_v": lambda u, v, p, k, c: np.abs(v.samples[c]) ** (k - 2),',
           ("tests/test_decay.py::TestWindowedEnergy::test_window_cells_match_mask",)),
    Mutant("src/skdv/conservation.py",  # the smallness verdict inverted
           "applicable=applicable, satisfied=applicable and bool(lhs <= rhs))",
           "applicable=applicable, satisfied=applicable and bool(lhs >= rhs))",
           ("tests/test_conservation.py::TestPhi::test_rejects_the_standing_wave",)),
)


def _extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def apply(mutant: Mutant, tree: Path) -> None:
    """Replace the one line of ``mutant.file`` under ``tree`` that reads
    ``mutant.old``; a ValueError unless exactly one line does."""
    path = tree / mutant.file
    lines = path.read_text().splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(hits) != 1:
        raise ValueError(f"{mutant.file}: {len(hits)} lines read {mutant.old!r}")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.new + "\n"
    path.write_text("".join(lines))


def _pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the git revision to mutate")
    args = parser.parse_args(argv)

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _extract(args.rev, clean)
        every = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if _pytest(clean, every) != 0:
            print(f"the named tests do not all pass at {args.rev}; no mutant was run")
            return 1
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            _extract(args.rev, tree)
            try:
                apply(mutant, tree)
            except ValueError as exc:
                verdict, failed = f"not applied ({exc})", failed + 1
            else:
                code = _pytest(tree, mutant.tests)
                # pytest exits 1 when a test fails, 0 when all pass, and
                # otherwise when it could not run them
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
                failed += code != 1
            print(f"{verdict:>9}  {mutant.file}: {mutant.old!r} -> {mutant.new!r}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
