#!/usr/bin/env python3
"""Writes perfbench/expected_digests.json, the modelled digest of every
benchmark cell for every scene seed. run.py fails a cell whose digest
differs from it. Run it from the repository root, and only for a change
that is meant to alter the simulator's modelled outputs:

    python3 perfbench/make_reference.py

Every workload runs once per scene seed, untraced, with all its cells on
that seed. Nothing is written unless every cell passes the rest of the
gate and each cell gives one digest in every repetition and in every
workload that runs it (motion-full and motion-pool share their base and
te cells at --tile-jobs 1 and 3).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main():
    binary = run.build()
    digests = {}
    for seed in range(1, run.SCENE_SEEDS + 1):
        found = {}
        for workload in run.WORKLOADS:
            records, error = run.run_workload(binary, workload, [seed], 1,
                                              False)
            plain = run.passes_of(records, "plain")
            expected = {r["cell"]: found.get(r["cell"], r["digest"])
                        for r in plain}
            labels = run.cell_labels(workload)
            failures = run.cell_failures(records, labels, False, error,
                                         {str(seed): expected})
            bad = {c: why for c, why in failures.items() if why}
            if bad:
                print(f"seed {seed}, {workload}: {bad}", file=sys.stderr)
                return 1
            found.update(expected)
        digests[str(seed)] = dict(sorted(found.items()))
        print(f"scene seed {seed}: {len(found)} cells", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps({"digests": digests}, indent=1)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
