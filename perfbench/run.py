"""Seeded end-to-end and per-layer host-time benchmark of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 8 --trace 0

It imports the simulator from ``src/`` of the checkout it sits in, makes
the workload's inputs from ``--seed``, and after one warm-up pass repeats
passes (set-up, then the timed body) until the bodies have taken
``--seconds``.  Each pass's
simulated outputs are compared with the scalar-oracle reference in
``perfbench/refs/`` (computed and stored under ``perfbench/out/refs/``
on first use of a seed).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFS = HERE / "refs"
DEFAULT_SEED = 1
#: Timed passes per run, at least.  Each also costs a set-up; two keep a
#: run near 20 s on a 2-core x86 box.
MIN_PASSES = 2
#: Host seconds of body between two reference-task runs inside it.
REFERENCE_EVERY_S = 1.0
#: Reference seconds per run of the reference task: a pass's host times
#: are scaled by this over the task's median time in and around that
#: pass.  It is about the task's median host time on a 2-core x86 VM.
REFERENCE_S = 0.2
ENGINE = "batch"


def _import_simulator():
    """Import ``repro`` from this checkout's ``src/``, or fail loudly."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {src}")
    import cells
    import shims

    return cells, shims


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload, seed: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "engine": ENGINE,
        "cache": workload.cache,
        "trace": int(trace),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _normalise(outputs: dict) -> dict:
    """Outputs as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(outputs, sort_keys=True))


def compare(outputs: dict, reference: dict) -> int:
    """Cells whose output differs from the reference, or is missing.

    An error string on either side is a failure even when both match.
    """
    outputs = _normalise(outputs)
    failed = sum(
        1 for key, expected in reference.items()
        if isinstance(expected, str) or outputs.get(key) != expected
    )
    return failed + sum(1 for key in outputs if key not in reference)


def reference_for(workload, seed: int) -> dict:
    """The scalar oracle's outputs for this workload and seed.

    Committed files in ``refs/`` win; otherwise the reference is computed
    once with the scalar engine and kept under ``out/refs/``.
    """
    name = f"{workload.name}-seed{seed}.json"
    for directory in (REFS, OUT / "refs"):
        path = directory / name
        if path.exists():
            return json.loads(path.read_text())["outputs"]
    from repro.experiments import common

    common.configure_engine("scalar")
    try:
        inputs = workload.setup(seed, str(OUT))
        try:
            outputs = workload.body(inputs).outputs
        finally:
            if workload.cleanup is not None:
                workload.cleanup(inputs)
    finally:
        common.configure_engine(ENGINE)
    outputs = _normalise(outputs)
    path = OUT / "refs" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload.name, "seed": seed, "engine": "scalar",
           "outputs": outputs}
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return outputs


class ReferenceTask:
    """A fixed task that runs no simulator code, timed to gauge how fast
    the box is running at the moment.

    Other tenants of a shared machine change its speed by up to 2x over
    minutes.  The task's time moves with them, so a host time divided by
    it is steady across runs while the simulator's own speed still shows
    in full.  It inserts into and probes a dict of 200k entries, then
    sorts, dedupes and searches an array of them: the same mix of Python
    object traffic and numpy passes as the simulator.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 36, size=200_000).tolist()
        self.probes = rng.integers(0, 1 << 36, size=200_000)

    def __call__(self) -> float:
        import numpy as np

        gc.disable()  # the live heap size must not set the task's time
        try:
            start = time.perf_counter()
            table = {}
            for i, key in enumerate(self.keys):
                table[key] = (i, key >> 4)
            total = 0
            for key in self.keys[::2]:
                total += table[key][0]
            keys = np.array(self.keys)
            np.unique(keys)
            np.searchsorted(np.sort(keys), self.probes)
            return time.perf_counter() - start
        finally:
            gc.enable()


class Checkpoint:
    """Runs the reference task inside a body, at most every
    ``REFERENCE_EVERY_S``, and keeps the paused time out of the body's."""

    def __init__(self, task: ReferenceTask) -> None:
        self.task = task
        self.samples: list = []
        self.paused = 0.0
        self.last = time.perf_counter()

    def __call__(self) -> None:
        start = time.perf_counter()
        if start - self.last < REFERENCE_EVERY_S:
            return
        self.samples.append(self.task())
        self.last = time.perf_counter()
        self.paused += self.last - start


def measure(shims, workload, seed: int, seconds: float, trace: bool):
    """One warm-up pass, then timed passes until the bodies have run for
    ``seconds``.

    The warm-up pays for lazy imports and first-touch allocation; its
    outputs are checked but its times are not kept, and the process's
    peak memory is read after it, before the reference task first runs.
    The reference task runs before each timed pass's set-up, inside its
    body between units of work, and after it; the pass's set-up and
    body times are also kept scaled to reference seconds.
    With ``trace`` the timed passes alternate untraced and traced
    (untraced first), so one run gives both the traced per-layer split
    and the untraced wall time it is compared with.
    """
    tracer = shims.Tracer()
    reference_task = None
    run = {"walls": [], "traced_walls": [], "setups": [], "outputs": [],
           "walks": [], "refs": [], "reference_s": [], "scaled_walls": [],
           "scaled_setups": [],
           "body_self": Counter(), "setup_self": Counter(),
           "body_counts": Counter(), "setup_counts": Counter()}
    elapsed = 0.0
    warm_up = True
    while (warm_up or elapsed < seconds or len(run["setups"]) < MIN_PASSES
           or (trace and not run["traced_walls"])):
        traced = (trace and not warm_up
                  and len(run["walls"]) > len(run["traced_walls"]))
        if not warm_up:
            around = [reference_task()]
        gc.collect()
        restore = shims.install(tracer) if traced else None
        try:
            first = len(tracer.spans)
            start = time.perf_counter()
            inputs = workload.setup(seed, str(OUT))
            setup_s = time.perf_counter() - start
            middle = len(tracer.spans)
            setup_counts, tracer.counts = tracer.counts, Counter()
            gc.collect()
            try:
                start = time.perf_counter()
                if warm_up or traced:
                    result = workload.body(inputs)
                    wall_s = time.perf_counter() - start
                else:
                    checkpoint = Checkpoint(reference_task)
                    result = workload.body(inputs, checkpoint)
                    wall_s = time.perf_counter() - start - checkpoint.paused
                    around += checkpoint.samples
                if traced:
                    tracer.counts["stream_cache.errors"] += (
                        shims.cache_errors()
                    )
            finally:
                if workload.cleanup is not None:
                    workload.cleanup(inputs)
                del inputs
        finally:
            if restore is not None:
                restore()
        run["outputs"].append(result.outputs)
        if warm_up:
            warm_up = False
            run["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            reference_task = ReferenceTask()
            continue
        around.append(reference_task())
        scale = REFERENCE_S / statistics.median(around)
        run["reference_s"].append(statistics.median(around))
        run["scaled_setups"].append(setup_s * scale)
        run["setups"].append(setup_s)
        run["walks"].append(result.walks)
        run["refs"].append(result.refs)
        elapsed += wall_s
        if traced:
            run["traced_walls"].append(wall_s)
            run["setup_self"].update(tracer.self_times(first, middle))
            run["body_self"].update(
                tracer.self_times(middle, len(tracer.spans))
            )
            run["setup_counts"].update(setup_counts)
            run["body_counts"].update(tracer.counts)
            tracer.counts = Counter()
        else:
            run["walls"].append(wall_s)
            run["scaled_walls"].append(wall_s * scale)
    run["spans"] = tracer.dump()
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cells, shims = _import_simulator()
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}",
              file=sys.stderr)
        return 2
    workload = cells.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(cells.WORKLOADS)}", file=sys.stderr)
        return 2
    from repro.experiments import common

    OUT.mkdir(exist_ok=True)
    # Any default-cache lookup lands inside this checkout.
    os.environ["REPRO_CACHE_DIR"] = str(OUT / "default-cache")
    common.configure_engine(ENGINE)
    trace = bool(args.trace)
    info = stamp(workload, args.seed, trace)
    print("perfbench: " + " ".join(f"{k}={v}" for k, v in info.items()))

    run = measure(shims, workload, args.seed, args.seconds, trace)
    reference = reference_for(workload, args.seed)
    attempted = sum(len(reference) for _ in run["outputs"])
    failed = sum(compare(outputs, reference) for outputs in run["outputs"])

    wall_s = statistics.median(run["walls"])
    walks = statistics.median(run["walks"])
    refs = statistics.median(run["refs"])
    if trace:
        passes = len(run["traced_walls"])
        traced_wall_s = statistics.median(run["traced_walls"])
        values = shims.layer_metrics(
            run["body_self"], run["body_counts"], run["setup_self"],
            run["setup_counts"], passes, traced_wall_s, wall_s,
        )
        units = {name: shims.unit_of(name) for name in values}
        print(f"per-layer self time of the traced body "
              f"({passes} traced passes, {traced_wall_s:.4f} s each):")
        print(shims.amdahl_table(run["body_self"], passes, traced_wall_s))
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"stamp": info, "spans": run["spans"]}) + "\n")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        values = {
            "wall_s": statistics.median(run["scaled_walls"]),
            "setup_s": statistics.median(run["scaled_setups"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    # Printed, not scored: the host times before scaling, the failure
    # ratio (carried by ``failed``), and rates that are a per-seed
    # constant over ``wall_s`` or possibly 0.
    summary = dict(values)
    if not trace:
        summary["host_wall_s"] = wall_s
        summary["host_setup_s"] = statistics.median(run["setups"])
        summary["reference_task_s"] = statistics.median(run["reference_s"])
    summary["fail_ratio"] = failed / attempted if attempted else 1.0
    if not trace:
        summary["walks_per_s"] = walks / values["wall_s"]
        if refs:
            summary["refs_per_s"] = refs / values["wall_s"]
    print(f"passes={len(run['walls'])} (after 1 warm-up) "
          f"traced={len(run['traced_walls'])} setups={len(run['setups'])} cells/pass={len(reference)} "
          f"walks/pass={walks:.0f} refs/pass={refs:.0f}")
    print("pass walls: " + " ".join(f"{w:.3f}" for w in run["walls"])
          + " | traced: " + " ".join(f"{w:.3f}" for w in run["traced_walls"])
          + " | setups: " + " ".join(f"{s:.3f}" for s in run["setups"])
          + " | reference task: "
          + " ".join(f"{s:.3f}" for s in run["reference_s"]))
    for name, value in summary.items():
        unit = units.get(name, "ratio" if name == "fail_ratio" else
                         "1/s" if name.endswith("_per_s") else "s")
        print(f"  {name:<32}{value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
