"""One benchmark process: ``setup`` or ``measure``.  Started by run.py.

    worker.py setup   WORKLOAD SEED SECONDS [--emit-points]
    worker.py measure WORKLOAD SEED SECONDS BUDGET_S TRACE CALIBRATE [SPANS_FILE] < points.json

``setup`` times the import of dedsums plus building the workload's grids,
then draws the sample, and prints that time with a digest of the sample (and
the sample itself with --emit-points).

``measure`` starts from a fresh interpreter, so every memo cache is empty, as
in a ``dedsums sweep`` invocation.  It verifies the given points serially,
times each call and the whole loop, then checks every report and prints one
JSON object.  With CALIBRATE 1 it also times the calibration kernel
(speed.py) before every point and after the last; the loop's wall time
excludes the calibrations.  The grids themselves are never built in this
process, so its peak RSS is that of the points, the reports and the
library's caches.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_dedsums():
    sys.path.insert(0, str(SRC))
    import dedsums

    if Path(dedsums.__file__).resolve().parent != SRC / "dedsums":
        sys.exit(f"dedsums imported from {dedsums.__file__}, not from {SRC}")
    return dedsums


def setup(workload: str, seed: int, seconds: float, emit_points: bool) -> dict:
    t0 = time.perf_counter()
    _import_dedsums()
    from workloads import build_pools

    pools = build_pools(workload)
    setup_s = time.perf_counter() - t0

    from workloads import draw_sample, encode_point

    sample = draw_sample(workload, pools, seed, seconds)

    points = [encode_point(rid, params) for rid, params in sample]
    text = json.dumps(points, sort_keys=True)
    out = {"setup_s": setup_s, "digest": hashlib.sha256(text.encode()).hexdigest()}
    if emit_points:
        out["points"] = points
    return out


def measure(workload: str, seed: int, seconds: float, budget_s: float, trace: bool,
            calibrate_speed: bool, spans_file: str | None) -> dict:
    start = time.monotonic()
    _import_dedsums()
    from dedsums import verify
    from oracle import Oracle, load_reference
    from speed import calibrate
    from tracer import CacheProbe, Tracer, layer_metrics
    from workloads import DEFAULT_SEED, NOMINAL_SECONDS, Decoder, point_key

    encoded = json.load(sys.stdin)
    decoder = Decoder()
    points = [decoder.point(p) for p in encoded]

    if trace:
        from dedsums import bernoulli, charbernoulli

        probes = {"gen_function": CacheProbe(charbernoulli._gen_bernoulli_function_reduced),
                  "poly_value": CacheProbe(bernoulli._POLY_VALUE_CACHE)}
        tracer = Tracer.install()

    stop_at = start + budget_s
    clock = time.perf_counter
    times, reports, kernel_times = [], [], []
    calibrating_s = 0.0

    def calibration():
        nonlocal calibrating_s
        c0 = clock()
        kernel_times.append(calibrate())
        calibrating_s += clock() - c0

    loop_start = clock()
    for rid, params in points:
        if time.monotonic() > stop_at:
            break
        if calibrate_speed:
            calibration()
        t0 = clock()
        try:
            report = verify.verify_identity(rid, params)
        except Exception as exc:   # a failing point is counted, not fatal
            report = exc
        times.append(clock() - t0)
        reports.append(report)
    if calibrate_speed:
        calibration()
    wall = clock() - loop_start - calibrating_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"attempted": len(points), "done": len(reports), "wall_s": wall,
           "times": times, "kernel_times": kernel_times,
           "peak_rss_mb": rss_mb}
    if trace:
        out["layers"] = layer_metrics(tracer, probes)
        if spans_file:
            Path(spans_file).parent.mkdir(parents=True, exist_ok=True)
            with open(spans_file, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(
                        ("id", "parent", "point", "name", "start", "end"), span))) + "\n")

    oracle = Oracle(load_reference(workload),
                    require_reference=seed == DEFAULT_SEED and seconds == NOMINAL_SECONDS)
    bad = sum(not oracle.check(rid, params, point_key(enc), report)
              for enc, (rid, params), report in zip(encoded, points, reports))
    skipped = len(points) - len(reports)
    failures = oracle.failures[:5]
    if skipped:
        failures.append(f"{skipped} points not run before the deadline")
    out.update(failed=bad + skipped, failures=failures, red_seen=oracle.red_seen,
               referenced=oracle.referenced)
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "setup":
        result = setup(workload, seed, seconds, "--emit-points" in argv)
    elif mode == "measure":
        result = measure(workload, seed, seconds, float(argv[4]), argv[5] == "1",
                         argv[6] == "1", argv[7] if len(argv) > 7 else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
