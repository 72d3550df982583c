"""Show that the benchmark's correctness check catches one wrong output.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs one untimed pass at the default seed, checks
that every cell matches the committed scalar-oracle reference, then
changes one number in one cell's output and checks that exactly that
cell is counted as failed.  Exits 0 when both hold on every workload.
"""

from __future__ import annotations

import copy
import sys

import run as bench


def check(workload) -> bool:
    """One clean pass matches; the same pass with one output off by one
    fails exactly one cell."""
    reference = bench.reference_for(workload, bench.DEFAULT_SEED)
    inputs = workload.setup(bench.DEFAULT_SEED, str(bench.OUT))
    try:
        outputs = bench._normalise(workload.body(inputs).outputs)
    finally:
        if workload.cleanup is not None:
            workload.cleanup(inputs)

    clean = bench.compare(outputs, reference)
    perturbed = copy.deepcopy(outputs)
    key = sorted(perturbed)[0]
    perturbed[key][-1] += 1
    caught = bench.compare(perturbed, reference)
    print(f"{workload.name}: {len(reference)} cells; clean pass failed="
          f"{clean}; with {key!r} last output +1 failed={caught}")
    return clean == 0 and caught == 1


def main() -> int:
    cells, _ = bench._import_simulator()
    from repro.experiments import common

    common.configure_engine(bench.ENGINE)
    bench.OUT.mkdir(exist_ok=True)
    ok = all([check(workload) for workload in cells.WORKLOADS.values()])
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
