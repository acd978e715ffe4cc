"""dpboost benchmark: one workload, one seed, one closed-loop run.

Usage (from the root of a dpboost checkout)::

    python3 bench/run.py --workload cv_grid --seed 0 --seconds 20 --trace 0

One caller runs the workload's steps back to back, each waiting for the
last, until ``--seconds`` have passed and at least one full pass is done.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs passes
untraced and traced in turn and reports per-layer metrics from the traced
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--tiny`` shrinks
every input so a run takes seconds (used by ``bench/test_smoke.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from functools import partial
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, Step, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_dpboost():
    """Import dpboost afresh, so each set-up pays the import again."""
    for name in [n for n in sys.modules if n == "dpboost" or n.startswith("dpboost.")]:
        del sys.modules[name]
    dp = importlib.import_module("dpboost")
    importlib.import_module("dpboost.harness")
    return dp


def set_up(workload: Workload) -> tuple[object, float]:
    """Import and load ``setup_reps`` times; returns the modules and the median time."""
    times = []
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter()
        dp = import_dpboost()
        workload.load(dp)
        times.append(time.perf_counter() - t0)
    if not Path(dp.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported dpboost from {dp.__file__}, not from {SRC}")
    return dp, float(np.median(times))


def run_step(workload: Workload, dp, index: int) -> Step | None:
    try:
        return workload.step(dp, index)
    except Exception:  # a failing program is reported, not crashed on
        traceback.print_exc()
        return None


def measure(workload: Workload, dp, seconds: float) -> dict:
    """Closed loop over the pass until ``seconds`` have passed."""
    length = workload.pass_length()
    steps: list[Step] = []
    first_digest: dict[int, str] = {}
    attempted = failed = 0
    start = time.perf_counter()
    index, last_step_s = 0, 0.0
    # After the first pass, start no step that would end past the deadline.
    while index < length or time.perf_counter() - start + last_step_s < seconds:
        t0 = time.perf_counter()
        step = run_step(workload, dp, index % length)
        last_step_s = time.perf_counter() - t0
        if step is None:
            attempted, failed = attempted + 1, failed + 1
            break
        # A repeated step must release the same numbers.
        if first_digest.setdefault(index % length, step.digest) != step.digest:
            print(f"step {index} released different numbers on repeat", file=sys.stderr)
            step.failed = step.attempted
        attempted, failed = attempted + step.attempted, failed + step.failed
        steps.append(step)
        index += 1
    elapsed = time.perf_counter() - start
    if len(steps) < length:
        raise RuntimeError("the first pass did not complete")
    verified, verify_failed = workload.verify(dp)
    records = np.array([t for s in steps for t in s.record_s])
    p50, p90 = np.percentile(records, [50, 90])
    first_pass = steps[:length]
    extra = {
        k: (float(np.median([s.extra[k][0] for s in steps])), unit)
        for k, (_, unit) in steps[0].extra.items()
    }
    return {
        "records": records.size,
        "elapsed": elapsed,
        "passes": len(steps) / length,
        "attempted": attempted + verified,
        "failed": failed + verify_failed,
        "digest": hashlib.sha256("".join(s.digest for s in first_pass).encode()).hexdigest(),
        "metrics": {
            "records_per_s": (records.size / elapsed, "records/s"),
            "record_s_p50": (float(p50), "s"),
            "record_s_p90": (float(p90), "s"),
            "test_error": (float(np.mean([s.test_error for s in first_pass])), "fraction"),
        },
        "extra": extra,
    }


def timed(call, tracer: Tracer | None = None):
    """(seconds, result) of ``call()``, traced when a tracer is given."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        result = call()
        return time.perf_counter() - t0, result
    finally:
        if tracer is not None:
            tracer.uninstall()


def measure_traced(workload: Workload, dp, seconds: float) -> dict:
    """Run each load and step untraced, then traced; compare what they release.

    Alternating at step granularity keeps slow drifts in machine speed out
    of the tracing overhead.
    """
    tracer = Tracer()
    untraced_s = traced_s = pass_s = 0.0
    passes = attempted = failed = 0
    digests = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start + pass_s < seconds and not failed):
        t0 = time.perf_counter()
        for index in range(-1, workload.pass_length()):  # -1 is the load
            call = partial(workload.load, dp) if index < 0 else partial(run_step, workload, dp, index)
            plain_s, plain = timed(call)
            trace_s, traced = timed(call, tracer)
            untraced_s, traced_s = untraced_s + plain_s, traced_s + trace_s
            if index < 0:
                continue
            if plain is None or traced is None:
                attempted, failed = attempted + 1, failed + 1
                continue
            attempted += plain.attempted + traced.attempted
            failed += plain.failed + traced.failed
            if plain.digest != traced.digest:
                print("the traced run released different numbers", file=sys.stderr)
                failed += traced.attempted
            digests.append(traced.digest)
        passes += 1
        pass_s = time.perf_counter() - t0
    metrics, absent = tracer.layer_metrics(passes)
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / passes, "s")
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "absent": absent,
        "untraced_s": untraced_s / passes,
        "traced_s": traced_s / passes,
        "digest": hashlib.sha256("".join(digests[: workload.pass_length()]).encode()).hexdigest(),
    }


def run(args, workdir: Path) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    workload.generate()
    dp, setup_s = set_up(workload)
    print(f"workload {workload.name} seed {args.seed}{' (tiny)' if args.tiny else ''}")
    if args.trace:
        out = measure_traced(workload, dp, args.seconds)
        print(f"traced passes: {out['passes']}, untraced {out['untraced_s']:.4f} s, "
              f"traced {out['traced_s']:.4f} s per pass")
        if out["absent"]:
            print("absent from the program (reported as 0): " + ", ".join(out["absent"]))
    else:
        out = measure(workload, dp, args.seconds)
        beyond = int(out["records"] * 0.1)
        print(f"records: {out['records']} in {out['elapsed']:.3f} s over {out['passes']:.2f} "
              f"passes ({beyond} samples above p90)")
        for key, (value, unit) in out["extra"].items():
            print(f"{key}: {value:.6g} {unit} (median over steps, not in the JSON)")
        out["metrics"]["setup_s"] = (setup_s, "s")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["metrics"]["peak_rss_mb"] = (peak_mb, "MB")
    print(f"digest: {out['digest']}")
    print(f"failed_frac: {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']})")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)
    if not (SRC / "dpboost" / "__init__.py").is_file():
        print(f"error: no dpboost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
