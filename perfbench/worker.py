"""One workload in one process; ``run.py`` starts it and reads its last line.

With ``--setup-only`` it measures set-up and exits.  Otherwise it runs
untraced passes for ``--seconds`` (or, with ``--trace 1``, one untraced
and one traced pass), checks every output, and prints one JSON object.
Untraced times are scaled to a fixed machine speed by ``calibrate``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import calibrate
import inputs
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_REPS = 5  # loads in each calibration around set-up


def in_fork(check, *args):
    """check(*args) in a forked copy of this process.

    The references allocate freely; run here, what they leave in the
    allocator would raise this process's peak RSS by an amount that varies
    with the passes.  The parent only waits, so the load stays one process.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        status = 1
        try:
            os.write(w, json.dumps(check(*args)).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status:
        sys.exit("worker: the check of a pass raised")
    return json.loads(data)


def percentile(sorted_values, q):
    """Nearest-rank percentile, with the number of samples above it."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", choices=("flip", "nonleast"))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    raw = inputs.pass_inputs(args.workload, args.seed, 0)
    before = calibrate.measure(SETUP_REPS)
    t0 = time.perf_counter()
    import doctrines
    from workloads import WORKLOADS

    if SRC not in Path(doctrines.__file__).resolve().parents:
        sys.exit(f"worker: imported doctrines from {doctrines.__file__}, not from {SRC}")

    wl = WORKLOADS[args.workload](args.seed, args.negative_control)
    ctx = wl.context(raw)
    setup_s = time.perf_counter() - t0
    setup_scaled = calibrate.scale(setup_s, before, calibrate.measure(SETUP_REPS))
    traced_ctx = wl.context(raw) if args.trace else None
    raw = None  # each context keeps the inputs its check needs
    if args.setup_only:
        print(json.dumps({"setup_s": setup_scaled, "setup_raw_s": setup_s}))
        return 0

    from doctrines import DoctrineError

    def attempt(run, ctx):
        """One pass.  A pass that raises (the negative control can leave
        dial-lattice with a non-reflexive matrix, which Preorder rejects)
        is kept as its exception and fails as a whole."""
        try:
            return run(ctx)
        except (DoctrineError, ValueError) as exc:
            return exc

    def timed(run, ctx):
        """One pass and its wall time."""
        t = time.perf_counter()
        out = attempt(run, ctx)
        return out, time.perf_counter() - t

    result = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "backend": doctrines.BACKEND,
    }
    tally = {"attempted": 0, "failed": 0}
    latencies = (array("d"), array("d"))  # order-stream: EX/UN, dialectica

    def settle(ctx, out):
        """Check one pass's outputs, outside its timed window."""
        if isinstance(out, Exception):
            n = wl.operations(ctx)
            a, f = n, n
        else:
            a, f = in_fork(wl.check, ctx, out)
            if args.workload == "order-stream":
                for inst, dt in zip(ctx["raw"], out[1]):
                    latencies[inst[0] == "DIAL"].append(dt)
        tally["attempted"] += a
        tally["failed"] += f

    if args.trace:
        out, untraced_s = timed(wl.run, ctx)
        settle(ctx, out)
        tracer = Tracer()
        tracer.install()
        (out, _), traced_s = tracer.pass_span(timed, wl.run, traced_ctx)
        t = time.perf_counter()
        layer = tracer.layer_metrics(sum(r.checked for r in getattr(out, "results", ())))
        layer["trace.overhead_s"] = traced_s - untraced_s
        result["layer"] = layer
        result["untraced_s"] = untraced_s
        result["traced_s"] = traced_s
        path = SPAN_DIR / f"spans-{args.workload}.bin.gz"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
        result["analysis_s"] = time.perf_counter() - t
        settle(traced_ctx, out)
    else:
        ticker = calibrate.Ticker()
        passes, scaled = [], []
        k = 0
        while True:
            out, dt, dt_scaled = ticker.time(attempt, wl.run, ctx)
            passes.append(dt)
            scaled.append(dt_scaled)
            settle(ctx, out)
            k += 1
            if sum(passes) + max(passes) > args.seconds:
                break
            ctx = out = None  # free this pass before building the next
            ctx = wl.context(inputs.pass_inputs(args.workload, args.seed, k))
        result["passes_s"] = scaled
        result["raw_passes_s"] = passes
    # Read before stream_figures, whose sorted copies of the latency samples
    # would add memory in proportion to the number of passes.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.workload == "order-stream" and not args.trace:
        result["stream"] = stream_figures(*latencies, sum(passes))
    result.update(tally)
    print(json.dumps(result))
    return 0


def stream_figures(leq, dial, seconds):
    """Latency percentiles and throughput of the order-stream decisions."""
    leq, dial = sorted(leq), sorted(dial)
    leq_p99, leq_beyond = percentile(leq, 99)
    dial_p99, dial_beyond = percentile(dial, 99)
    return {
        "decisions_per_s": (len(leq) + len(dial)) / seconds,
        "leq_p50_us": statistics.median(leq) * 1e6,
        "leq_p99_us": leq_p99 * 1e6,
        "leq_samples": len(leq),
        "leq_beyond_p99": leq_beyond,
        "dial_p50_us": statistics.median(dial) * 1e6,
        "dial_p99_ms": dial_p99 * 1e3,
        "dial_samples": len(dial),
        "dial_beyond_p99": dial_beyond,
    }


if __name__ == "__main__":
    sys.exit(main())
