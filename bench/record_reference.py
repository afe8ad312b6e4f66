"""Record the reference outputs that check.py compares every run against.

Usage (from the repository root):

    python3 bench/record_reference.py [WORKLOAD ...]

Runs each variant of each named workload (all by default) once, untraced,
checks the run apart from the reference comparison, and writes the digests
into bench/reference.json, keeping the entries of workloads not named.
Run it only at a commit whose outputs are the intended reference.
"""

import json
import shutil
import sys
import time

import check
from run import OUT, Runner
from workloads import VARIANTS, WORKLOADS


def main(names) -> int:
    reference = check.load_reference()
    for name in names or sorted(WORKLOADS):
        entries = {}
        for variant in range(VARIANTS):
            work = OUT / "work" / f"record-{name}-{variant}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            runner = Runner(WORKLOADS[name], variant, work, time.perf_counter() + 600.0,
                            recording=True)
            record = runner.launch("run", trace=False)
            shutil.rmtree(work, ignore_errors=True)
            if not record["ok"]:
                print(f"{name} variant {variant} failed: {record['problems']}", file=sys.stderr)
                return 1
            entries[str(variant)] = record["digest"]
            print(f"{name} variant {variant}: {record['wall_raw_s']:.2f} s", flush=True)
        reference[name] = entries
    check.REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
