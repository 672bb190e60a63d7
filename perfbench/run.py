"""Benchmark entry point for tantivy_ray.

    python3 perfbench/run.py --workload {serve_head,serve_tail} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; it imports the ``tantivy_ray`` package that
sits beside ``perfbench/`` and nothing installed elsewhere.  Each run
makes its inputs from the seed in a fresh scratch directory under the
root, starts and stops its own Ray session (as many CPUs as ``nproc``
reports), and removes the scratch directory at exit.  Ray's session
files go to a fresh system temp directory instead, because its sockets
must stay under the 107-byte AF_UNIX path limit; it is removed at exit
too.

Human-readable lines (corpus properties, set-up parts, sample counts,
calibration) come first on stdout; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
metrics, from a run that also records spans (written to
``.perfbench-traces/``) and reports the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WATCHDOG_S = 170


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class _Watchdog:
    """Fails the run with a message instead of hanging: after
    ``seconds`` it kills every process the run started, removes the
    scratch directories and exits with code 3."""

    def __init__(self, seconds: float, dirs):
        self.dirs = dirs
        self.timer = threading.Timer(seconds, self._expire)
        self.timer.daemon = True

    def _expire(self) -> None:
        from perfbench import host

        sys.stderr.write(f"perfbench: watchdog expired after {WATCHDOG_S} s;"
                         " killing the run\n")
        sys.stderr.flush()
        host.kill_descendants()
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        os._exit(3)


def _run(args, out, work: str, ray_tmp: str) -> dict:
    from perfbench import layers
    from perfbench.host import calib_ms, ray_cpus
    from perfbench.workloads import Bench

    ncpu = ray_cpus()
    calib0 = calib_ms()
    b = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
              work, ray_tmp, ncpu)
    t0 = time.perf_counter()
    try:
        b.setup()
        b.run()
        if b.tr.enabled:
            t_probe = time.perf_counter()
            layers.reader_layers(b, b.index_dir)
            layers.searcher_layers(b, b.index_dir, b.stream)
            layers.ingest_side_layers(b, b.index_dir)
            layers.segment_layers(b, b.corpus.table, b.docs_per_segment)
            b.trace_only_s += time.perf_counter() - t_probe
        b.mem.sample()
    finally:
        b.stop()
    wall = time.perf_counter() - t0
    calib1 = calib_ms()
    b.e2e["peak_rss_mb"] = (b.mem.peak_mb(), "MB")

    def say(key, val):
        out.write(f"{key}: {json.dumps(val, sort_keys=True)}\n")

    say("run", {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "ray_cpus": ncpu, "wall_s": round(wall, 3)})
    for k, v in b.info.items():
        say(k, v)
    say("calib_ms", {"start": round(calib0, 4), "end": round(calib1, 4)})
    say("peak_rss_mb", {"driver": round(b.mem.driver_mb(), 1),
                        "ray_workers": round(b.mem.workers_kb / 1024, 1)})
    if b.errors:
        say("errors", b.errors)

    spec = _spec()
    if args.trace:
        b.layer["host.calib_ms"] = (max(calib0, calib1), "ms")
        # what the traced mode adds to an untraced run of the same seed:
        # the span bookkeeping (modelled: cost per span x spans) and the
        # work only a traced run does (measured: the in-process searches
        # interleaved with the pool calls, and the layer probes)
        b.layer["trace.spans"] = (len(b.tr.spans), "count")
        b.layer["trace.span_cost_frac"] = (b.tr.overhead_s() / wall, "frac")
        b.layer["trace.added_frac"] = (
            b.trace_only_s / (wall - b.trace_only_s), "frac")
        say("end_to_end_traced", {k: round(v[0], 4)
                                  for k, v in sorted(b.e2e.items())})
        self_s = sorted(b.tr.self_times().items(), key=lambda kv: -kv[1])
        say("trace_self_s", {k: round(v, 4) for k, v in self_s[:25]})
        os.makedirs(os.path.join(ROOT, ".perfbench-traces"), exist_ok=True)
        b.tr.write(os.path.join(ROOT, ".perfbench-traces",
                                f"{args.workload}-seed{args.seed}.json"))
        names = [m["name"] for m in spec["per_layer"]]
        got = b.layer
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        got = b.e2e
    missing = [n for n in names if n not in got]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": b.failed == 0,
        "attempted": int(b.attempted),
        "failed": int(b.failed),
        "metrics": {n: {"value": float(got[n][0]), "unit": got[n][1]}
                    for n in names},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("serve_head", "serve_tail"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # results go to the original stdout; everything else, including the
    # output of the Ray processes this run starts, goes to stderr
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    sys.path.insert(0, ROOT)
    try:
        import tantivy_ray
    except ImportError as e:
        sys.stderr.write(f"perfbench: cannot import tantivy_ray from "
                         f"{ROOT}: {e}\n")
        return 2
    if os.path.dirname(os.path.dirname(tantivy_ray.__file__)) != ROOT:
        sys.stderr.write(f"perfbench: tantivy_ray resolved to "
                         f"{tantivy_ray.__file__}, not under {ROOT}\n")
        return 2

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    ray_tmp = tempfile.mkdtemp(prefix="perfbench-ray-")
    dog = _Watchdog(WATCHDOG_S, [work, ray_tmp])
    dog.timer.start()
    try:
        result = _run(args, out, work, ray_tmp)
    except Exception:  # noqa: BLE001 - the run fails with the traceback
        traceback.print_exc()
        return 1
    finally:
        dog.timer.cancel()
        from perfbench import host

        host.kill_descendants()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
