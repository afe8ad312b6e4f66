"""The benchmark's three workloads and the INI config each run hands to skdv.

The seed belongs to the benchmark, never to the program: skdv receives only
the rendered INI text.  Seed 0 renders each workload's base config exactly.
Every other seed selects one of ``VARIANTS - 1`` perturbed variants, which
scale each initial-data amplitude and width by a factor in
[1 - SCALE, 1 + SCALE] and shift the carrier by at most CARRIER_SHIFT.
Seeds cycle through a fixed set of variants so that every variant has a
reference output recorded in ``reference.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 16
SCALE = 0.05
CARRIER_SHIFT = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool  # True: `skdv run` through cli.main; False: library API
    sections: tuple  # ((section, ((key, value-text), ...)), ...)

    def value(self, section: str, key: str) -> str:
        return dict(dict(self.sections)[section])[key]

    @property
    def steps(self) -> int:
        return round(float(self.value("stepper", "t_end")) / float(self.value("stepper", "dt")))

    @property
    def snapshots(self) -> int:
        """Snapshots including t=0; every horizon here is a whole number of strides."""
        return self.steps // int(self.value("stepper", "snapshot_stride")) + 1


_README_MODEL = ("model", (("alpha", "1.0"), ("beta", "0.0"), ("gamma", "1.0")))
_README_INITIAL = ("initial", (
    ("family", "gaussian"), ("amplitude_u", "0.5"), ("amplitude_v", "0.5"),
))
_OUTPUT = ("output", (("directory", "out"),))

WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance criterion 07's problem, shortened to a horizon past t=2
        # so the windowed energies and accumulators run; stepping at large N
        # is nearly all of the work.
        Workload("decay_n8192", cli=False, sections=(
            ("grid", (("n", "8192"), ("l", "1024.0"))),
            ("stepper", (("dt", "0.01"), ("t_end", "4.0"), ("snapshot_stride", "100"))),
            ("model", (("alpha", "1.0"), ("beta", "1.0"), ("gamma", "1.0"))),
            ("initial", (
                ("family", "modulated_gaussian"), ("amplitude_u", "0.25"),
                ("amplitude_v", "0.0"), ("width_u", "1.0"), ("carrier", "0.75"),
            )),
            ("window", (("p", "0.5"),)),
            _OUTPUT,
        )),
        # The README's minimal config, verbatim: the user's canonical command.
        Workload("run_readme", cli=True, sections=(
            ("grid", (("n", "1024"), ("l", "64.0"))),
            ("stepper", (("dt", "1e-3"), ("t_end", "10.0"), ("snapshot_stride", "100"))),
            _README_MODEL, _README_INITIAL, _OUTPUT,
        )),
        # Every step is a snapshot, so the batch diagnostics (virial
        # residuals, J2/J3, accumulators over t >= 2) dominate.
        Workload("run_dense", cli=True, sections=(
            ("grid", (("n", "1024"), ("l", "64.0"))),
            ("stepper", (("dt", "5e-3"), ("t_end", "4.0"), ("snapshot_stride", "1"))),
            _README_MODEL, _README_INITIAL, _OUTPUT,
        )),
    )
}


def variant_of(seed: int) -> int:
    """Seed 0 is the base config; other seeds cycle through variants 1..VARIANTS-1."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return 0 if seed == 0 else 1 + (seed - 1) % (VARIANTS - 1)


def _perturbed_initial(initial: dict, variant: int) -> dict:
    rng = random.Random(variant)
    out = dict(initial)
    out["family"] = "modulated_gaussian"
    for key in ("amplitude_u", "amplitude_v", "width_u", "width_v"):
        base = float(initial.get(key, "1.0"))
        out[key] = f"{base * rng.uniform(1.0 - SCALE, 1.0 + SCALE):.6f}"
    carrier = float(initial.get("carrier", "0.0"))
    out["carrier"] = f"{carrier + rng.uniform(-CARRIER_SHIFT, CARRIER_SHIFT):.6f}"
    return out


def render_ini(workload: Workload, variant: int) -> str:
    """INI text for one variant of a workload."""
    blocks = []
    for section, items in workload.sections:
        values = dict(items)
        if section == "initial" and variant != 0:
            values = _perturbed_initial(values, variant)
        lines = [f"[{section}]"] + [f"{k} = {v}" for k, v in values.items()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
