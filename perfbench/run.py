"""dedsums benchmark: serial sweep throughput, point latency, memory and
set-up time on seeded workloads, or a traced per-layer run.

    python3 perfbench/run.py --workload charsum --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the library is imported from ``src/``.
Workloads are defined in workloads.py.  ``--seconds`` sets the size of a run:
each workload draws its points in proportion to it, so that at the seed
commit a run measures for about that long.

With ``--trace 0`` the run times set-up in separate processes (the median of
several), then verifies the whole sample in a fresh process with tracing
off, timing a calibration kernel around every point; the points' timings
are reported at the reference machine's speed (speed.py), and as measured
in the lines before the result.  With ``--trace 1`` it verifies every third
point of the sample twice, untraced and traced, each in a fresh process, and
reports the per-layer metrics, the tracing overhead and the predicted-split
check.

Every report is checked (oracle.py).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
TRACE_STRIDE = 3
TIME_LIMIT_S = 170          # the whole run, set-up and every child included

sys.path.insert(0, str(HERE))
from oracle import KNOWN_RED  # noqa: E402
from speed import REFERENCE_KERNEL_S, scale_points  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import PREDICTED_MAJORITY, WORKLOADS, tail_percentile  # noqa: E402


class BenchError(RuntimeError):
    pass


class Children:
    """Starts worker processes one at a time, each bounded by what is left
    of the run's time limit."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.args = [workload, str(seed), repr(seconds)]
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def setup(self, emit_points: bool = False) -> dict:
        return self._run(["setup", *self.args] + (["--emit-points"] if emit_points else []))

    def measure(self, points_json: str, trace: bool, calibrate: bool,
                spans: Path | None = None) -> dict:
        # the worker stops verifying points a few seconds before the limit
        budget = repr(self.deadline - time.monotonic() - 5)
        extra = [str(spans)] if spans else []
        return self._run(["measure", *self.args, budget, str(int(trace)), str(int(calibrate)),
                          *extra], points_json)

    def _run(self, argv: list[str], stdin: str | None = None) -> dict:
        left = self.deadline - time.monotonic()
        if left <= 5:
            raise BenchError("time limit reached")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                                  input=stdin, capture_output=True, text=True,
                                  timeout=left, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[0]} process exceeded the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{argv[0]} process failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, -(-len(sorted_values) * pct // 100))   # ceil
    return sorted_values[int(rank) - 1]


def composition_line(workload: str, points: list) -> str:
    counts = Counter(rid for rid, _ in points)
    return ", ".join(f"{rid} {counts[rid]}" for rid, _, _ in WORKLOADS[workload])


def untraced(children: Children, points: list, setup_times: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics; the points' timings are scaled to reference speed."""
    m = children.measure(json.dumps(points), trace=False, calibrate=True)
    times = scale_points(m["times"], m["kernel_times"])
    # the loop's time outside the calls is scaled by the points' mean ratio
    wall = m["wall_s"] * sum(times) / sum(m["times"])
    pct = tail_percentile(len(points))
    metrics = {
        "points_per_s": (m["done"] / wall, "1/s"),
        "point_ms_p50": (1000 * statistics.median(times), "ms"),
        "point_ms_tail": (1000 * nearest_rank(sorted(times), pct), "ms"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    kernel_times = m["kernel_times"]
    print(f"timed loop: {m['wall_s']:.3f} s for {m['done']} points "
          f"({m['done'] / m['wall_s']:.2f} points/s, median point "
          f"{1000 * statistics.median(m['times']):.3f} ms, as measured); "
          f"tail percentile p{pct:g} of {len(points)} points")
    print(f"machine speed: {len(kernel_times)} calibrations, kernel time quartiles "
          + " ".join(f"{1e6 * q:.1f}" for q in statistics.quantiles(kernel_times, n=4))
          + f" us, reference {1e6 * REFERENCE_KERNEL_S:.1f} us; "
          f"point timings below are at reference speed")
    print(f"set-up runs (s): {' '.join(f'{t:.4f}' for t in setup_times)}")
    return m, metrics


def traced(children: Children, workload: str, seed: int, points: list) -> tuple[dict, dict]:
    subset = json.dumps(points[::TRACE_STRIDE])
    plain = children.measure(subset, trace=False, calibrate=False)
    spans = HERE / "out" / f"spans-{workload}-seed{seed}.jsonl"
    t = children.measure(subset, trace=True, calibrate=False, spans=spans)
    layers = dict(t["layers"])
    loop_overhead = plain["wall_s"] - sum(plain["times"])
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    predicted = PREDICTED_MAJORITY[workload]
    layers.update({
        "verify.points_per_s": t["done"] / t["wall_s"],
        "trace.untraced_points_per_s": plain["done"] / plain["wall_s"],
        "trace.overhead": t["wall_s"] / plain["wall_s"],
        "trace.traced_wall_s": t["wall_s"],
        "trace.untraced_loop_s": loop_overhead,
        "trace.accounted_share": (self_total + loop_overhead) / t["wall_s"],
        "trace.split_confirmed": float(layers[predicted] > 0.5),
    })
    print(f"tracing overhead: traced wall {t['wall_s']:.3f} s / untraced wall "
          f"{plain['wall_s']:.3f} s = {layers['trace.overhead']:.3f}x")
    print(f"accounted: layer self times {self_total:.3f} s + untraced loop overhead "
          f"{loop_overhead:.4f} s = {layers['trace.accounted_share']:.4f} of traced wall")
    print(f"predicted majority: {predicted} = {layers[predicted]:.3f} "
          f"({'confirmed' if layers['trace.split_confirmed'] else 'NOT confirmed'}); "
          f"cyclotomic layers {layers['trace.cyclotomic_share']:.3f}, "
          f"product integrals {layers['trace.ppi_share']:.3f} of traced point time")
    print(f"spans: {spans.relative_to(ROOT)}")
    merged = {key: plain[key] + t[key]
              for key in ("attempted", "failed", "failures", "red_seen", "referenced")}
    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    return merged, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "dedsums" / "__init__.py").is_file():
        print(f"no dedsums sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    children = Children(args.workload, args.seed, args.seconds)
    full_rp3 = not args.trace and any(rid == "rp3" and take == "full"
                                      for rid, _, take in WORKLOADS[args.workload])
    try:
        first = children.setup(emit_points=True)
        points = first["points"]
        print(f"workload {args.workload}, seed {args.seed}: {len(points)} points "
              f"({composition_line(args.workload, points)})")
        if args.trace:
            result, metrics = traced(children, args.workload, args.seed, points)
        else:
            repeats = [children.setup() for _ in range(SETUP_REPEATS)]
            if any(r["digest"] != first["digest"] for r in repeats):
                raise BenchError("set-up drew different samples from one seed")
            result, metrics = untraced(children, points, [r["setup_s"] for r in repeats])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    red_ok = not full_rp3 or result["red_seen"] == len(KNOWN_RED)
    if full_rp3:
        print(f"known-red rp3 points seen: {result['red_seen']} of {len(KNOWN_RED)}")
    print(f"reference digests compared: {result['referenced']}")
    print(f"error_share: {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']} of {result['attempted']} points)")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0 and red_ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
