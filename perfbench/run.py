"""The doctrines benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload laws-all --seed 1 --seconds 30 --trace 0

It runs the workload in a child process against the library source in
``src/``, checks every answer, prints a report, and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer ones, from a traced pass.
``--negative-control flip|nonleast`` runs the same workload on a doctrine
that answers one decision wrongly, which must make ``failed`` positive
(``nonleast`` on order-stream only).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import MODULES

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("laws-all", "order-stream", "dial-lattice")
SETUP_PROBES = 11
DEADLINE_S = 170


def run_worker(argv, env, deadline):
    """Run worker.py to completion and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
        text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--negative-control", choices=("flip", "nonleast"))
    args = ap.parse_args()
    if args.negative_control == "nonleast" and args.workload != "order-stream":
        # Only order-stream checks that a certificate is the least one.
        ap.error("--negative-control nonleast applies to order-stream only")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "doctrines" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no doctrines source (src/doctrines) "
              "or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.negative_control:
        common += ["--negative-control", args.negative_control]
    deadline = start + DEADLINE_S
    # Set-up probes run before and after the worker, so that their median
    # spans the whole run rather than one moment of a noisy machine.
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setup = [run_worker(common + ["--setup-only"], env, deadline)
                 for _ in range(probes // 2)]
        res = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                         env, deadline)
        setup += [run_worker(common + ["--setup-only"], env, deadline)
                  for _ in range(probes - probes // 2)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload={args.workload} seed={args.seed} python={res['python']} "
          f"nproc={len(os.sched_getaffinity(0))} backend={res['backend']}"
          + (f" negative_control={args.negative_control}" if args.negative_control else ""))
    print(f"fail_ratio {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    if args.trace:
        figures = res["layer"]
        print(f"untraced pass {res['untraced_s']:.4f} s, traced pass {res['traced_s']:.4f} s, "
              f"spans written to {res['spans_file']}")
        print(f"trace analysis and span output took {res['analysis_s']:.1f} s, "
              f"traced process peak RSS {res['peak_rss_mb']:.1f} MB")
        for mod in (*MODULES, "bench"):
            share = figures[f"{mod}.self_s"] / res["traced_s"]
            print(f"self-time share of traced pass: {mod:<11} {share:6.1%}")
        names = spec["per_layer"]
    else:
        passes = res["passes_s"]
        figures = {
            "verdict_s": statistics.median(passes),
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print(f"verdict_s median of {len(passes)} passes at reference speed: "
              + " ".join(f"{p:.4f}" for p in passes))
        print(f"  the same passes in wall time: "
              + " ".join(f"{p:.4f}" for p in res["raw_passes_s"]))
        print(f"setup_s median of {len(setup)} fresh processes at reference speed: "
              + " ".join(f"{s['setup_s']:.4f}" for s in setup))
        print(f"  the same in wall time: "
              + " ".join(f"{s['setup_raw_s']:.4f}" for s in setup))
        stream = res.get("stream")
        if stream:
            print(f"decisions_per_s {stream['decisions_per_s']:.1f} 1/s")
            print(f"leq_p50_us {stream['leq_p50_us']:.2f} us, p99 {stream['leq_p99_us']:.2f} us "
                  f"({stream['leq_samples']} samples, {stream['leq_beyond_p99']} beyond p99)")
            print(f"dial_p50_us {stream['dial_p50_us']:.2f} us, dial_p99_ms "
                  f"{stream['dial_p99_ms']:.3f} ms ({stream['dial_samples']} samples, "
                  f"{stream['dial_beyond_p99']} beyond p99)")
        names = spec["end_to_end"]
    metrics = {}
    for m in names:
        metrics[m["name"]] = {"value": figures[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {figures[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
