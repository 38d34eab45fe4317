"""Benchmark of the oidrd package.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the workload's end-to-end metrics for
``--seconds`` seconds (and at least three passes over its instance set);
times are given at a reference machine speed (see CAL_REF_S).
With ``--trace 1`` it replays one pass in-process with spans around every
call into a package module and reports the per-layer metrics instead.
Every output is checked; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
perfbench/README.md describes the workloads and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Recorder

# `workloads` imports oidrd, so functions import it after _load_program has
# put this checkout's src/ first on the path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_PASSES = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_LATENCY_SAMPLES = 100  # keeps at least 10 samples beyond p90
LAYERS = ("graphs", "solver", "oracle", "characterize")

# The speed of a shared 2-vCPU VM drifts by up to 60 % over tens of seconds,
# which no regression bound can absorb.  End-to-end times are therefore given
# at a reference speed: raw time x CAL_REF_S / the time of a fixed calibration
# kernel (no oidrd code) measured around the same work.  The raw times are
# printed and saved next to them.
CAL_REF_S = 1e-3
CAL_INTERVAL_S = 0.05
CAL_WINDOW = 5
CAL_BURST = 25
_CAL_ARRAY = np.arange(4096, dtype=np.int64)


def calibrate() -> float:
    """Time one run of the calibration kernel: integer arithmetic in plain
    Python and small numpy calls."""
    t = perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    for _ in range(30):
        s += int((_CAL_ARRAY % 3 == 1).sum())
    return perf_counter() - t


def _burst() -> float:
    """How many times slower than the reference speed the machine runs now."""
    return statistics.median(calibrate() for _ in range(CAL_BURST)) / CAL_REF_S


class Speedometer:
    """Runs the calibration kernel between instances every CAL_INTERVAL_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if perf_counter() - self._last >= CAL_INTERVAL_S:
            self.samples.append(calibrate())
            self._last = perf_counter()

    def local(self) -> float:
        """Slowdown over the last CAL_WINDOW kernel runs."""
        return statistics.median(self.samples[-CAL_WINDOW:]) / CAL_REF_S

    def overall(self) -> float:
        return statistics.median(self.samples) / CAL_REF_S


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _load_program() -> float:
    """Import oidrd from this checkout's src/ and return the import time."""
    pkg = SRC / "oidrd"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no oidrd package at {pkg}")
    sys.path.insert(0, str(SRC))
    t = perf_counter()
    import oidrd
    elapsed = perf_counter() - t
    if Path(oidrd.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported oidrd from {oidrd.__file__}, not from {pkg}")
    return elapsed


# ---------------------------------------------------------------------------
# passes over instances and campaigns
# ---------------------------------------------------------------------------


def _pass(w, instances, rec, latencies: list, meter: Speedometer | None = None) -> int:
    """Run and check every instance once; return the number that failed.
    With a meter, latencies are recorded at reference speed."""
    failed = 0
    for i, inst in enumerate(instances):
        if meter is not None:
            meter.tick()
        rec.instance = i
        try:
            t = perf_counter()
            with rec.span("instance"):
                out = w.run(inst, rec)
            lat = perf_counter() - t
            latencies.append(lat / meter.local() if meter is not None else lat)
            ok = w.verify(inst, out)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed += 1
            if failed == 1:
                print(f"perfbench: {w.name} instance {i} failed its check", file=sys.stderr)
    rec.instance = -1
    return failed


def _campaign_rep(w, workers: int) -> tuple[int, int, list | None]:
    """Run the workload's campaigns once: (attempted, failed, exact counts).
    A campaign that fails counts all of its instances as failed."""
    try:
        runs = w.campaigns(workers)
    except Exception:
        traceback.print_exc()
        return w.sizes["expected"], w.sizes["expected"], None
    attempted = failed = 0
    exact = []
    for report, want in runs:
        attempted += want
        if report.status != "pass" or report.instances_checked != want:
            failed += want
            print(f"perfbench: campaign {report.campaign}: status {report.status}, "
                  f"{report.instances_checked} instances checked, {want} expected",
                  file=sys.stderr)
        exact.append([report.campaign, report.instances_checked, report.status, report.extra])
    return attempted, failed, exact


def _same(values: list, what: str):
    """Exact counts must repeat identically; a mismatch is a benchmark error."""
    values = [v for v in values if v is not None]
    if any(v != values[0] for v in values[1:]):
        raise BenchError(f"exact counts differ between passes of one run ({what})")
    return values[0] if values else None


def _percentile_ms(latencies: list, q: int) -> float:
    if len(latencies) < MIN_LATENCY_SAMPLES:
        raise BenchError(f"only {len(latencies)} latency samples, need {MIN_LATENCY_SAMPLES}")
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def measure(w, seconds: float, seed: int, min_passes: int = MIN_PASSES) -> dict:
    """End-to-end measurement with tracing off."""
    import workloads as W

    latencies: list[float] = []  # at reference speed
    walls: list[float] = []
    raw_walls: list[float] = []
    speeds: list[float] = []
    exact: list = []
    attempted = failed = 0
    chunks = []
    if w.campaigns is not None:
        # the latency sample is spread over the first passes, not taken at one moment
        k = W.LATENCY_SAMPLE.get(w.name, len(w.instances))
        sample = random.Random(seed).sample(w.instances, k)
        chunks = [sample[i::min_passes] for i in range(min_passes)]
    start = perf_counter()
    before = _burst() if w.campaigns is not None else 0.0
    while len(walls) < min_passes or perf_counter() - start < seconds:
        if len(walls) < len(chunks):
            failed += _pass(w, chunks[len(walls)], Recorder(False), latencies, Speedometer())
            attempted += len(chunks[len(walls)])
        t = perf_counter()
        if w.campaigns is not None:
            # a campaign cannot be interrupted: calibrate just before and after it
            a, f, counts = _campaign_rep(w, W.WORKERS)
            raw = perf_counter() - t
            after = _burst()
            speed, before = (before + after) / 2, after
        else:
            rec, meter = Recorder(False), Speedometer()
            a, f = len(w.instances), _pass(w, w.instances, rec, latencies, meter)
            raw = perf_counter() - t - sum(meter.samples)
            speed, counts = meter.overall(), dict(rec.counts)
        speeds.append(speed)
        raw_walls.append(raw)
        walls.append(raw / speed)
        attempted += a
        failed += f
        exact.append(counts)
    wall = statistics.median(walls)
    per_pass = w.sizes["expected"] if w.campaigns is not None else len(w.instances)
    return {
        "attempted": attempted,
        "failed": failed,
        "exact": _same(exact, w.name),
        "passes": len(walls),
        "latency_samples": len(latencies),
        "raw": {"wall_s": statistics.median(raw_walls), "slowdown": statistics.median(speeds)},
        "metrics": {
            "wall_s": (wall, "s"),
            "instances_per_s": (per_pass / wall, "1/s"),
            "instance_p50_ms": (_percentile_ms(latencies, 50), "ms"),
            "instance_p90_ms": (_percentile_ms(latencies, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def _setup_probes(name: str, seed: int) -> tuple[float, dict]:
    """Median wall time, at reference speed, of fresh processes that import
    oidrd, generate the workload's instances and warm the oracle tables;
    plus the raw median and one probe's own breakdown."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    walls, raws = [], []
    breakdown: dict = {}
    before = _burst()
    for _ in range(SETUP_PROBES):
        t = perf_counter()
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        raws.append(perf_counter() - t)
        if p.returncode != 0:
            raise BenchError(f"set-up probe exited {p.returncode}: {p.stderr.strip()[-800:]}")
        after = _burst()
        walls.append(raws[-1] / ((before + after) / 2))
        before = after
        breakdown = json.loads(p.stdout.splitlines()[-1])
    return statistics.median(walls), {"raw_setup_s": statistics.median(raws), **breakdown}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    import workloads as W

    units = {
        "graphs.enumerate_s": "s", "graphs.sample_s": "s", "graphs.build_s": "s",
        "graphs.text_s": "s", "graphs.text_bytes": "bytes",
        "harness.serial_wall_s": "s", "harness.pool_speedup": "x", "harness.pool_idle_s": "s",
        "harness.ipc_bytes": "bytes", "harness.overhead_s": "s", "harness.pool_peak_rss_mb": "MB",
    }
    for inv in W.INVARIANTS:
        units.update({f"solver.{inv}.calls": "count", f"solver.{inv}.self_s": "s",
                      f"solver.{inv}.nodes": "count", f"solver.{inv}.nodes_per_s": "1/s",
                      f"solver.{inv}.us_per_call": "us"})
    for inv in W.INVARIANTS:
        units.update({f"oracle.{inv}.calls": "count", f"oracle.{inv}.self_s": "s",
                      f"oracle.{inv}.labelings": "count", f"oracle.{inv}.labelings_per_s": "1/s"})
    units.update({"oracle.small_n_s": "s", "oracle.large_n_s": "s",
                  "characterize.classify_calls": "count", "characterize.classify_s": "s",
                  "characterize.verify_s": "s", "characterize.us_per_call": "us",
                  "trace.overhead_s": "s"})
    return units


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced(name: str, seed: int) -> dict:
    """One traced in-process replay of the workload, plus the untraced serial
    pass (or workers=1 campaign) it is compared with."""
    import workloads as W

    rec = Recorder(True)
    w = W.build(name, seed, rec)
    attempted = failed = 0
    serial_wall = pool_wall = pool_rss = 0.0
    exact = None
    if w.campaigns is not None:
        reps = []
        for workers in (1, W.WORKERS):
            t = perf_counter()
            a, f, counts = _campaign_rep(w, workers)
            reps.append(perf_counter() - t)
            attempted += a
            failed += f
            exact = _same([exact, counts], name)
        serial_wall, pool_wall = reps
        pool_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        untraced = serial_wall
    else:
        t = perf_counter()
        failed += _pass(w, w.instances, Recorder(False), [])
        untraced = perf_counter() - t
        attempted += len(w.instances)
    t = perf_counter()
    failed += _pass(w, w.instances, rec, [])
    replay = perf_counter() - t
    attempted += len(w.instances)

    self_s = rec.self_times()
    c = rec.counts
    layer_s = sum(v for k, v in self_s.items() if k.split(".")[0] in LAYERS)
    generate = self_s.get("graphs.enumerate", 0.0) + self_s.get("graphs.sample", 0.0)
    # a campaign's serial wall includes its own enumeration; a pass does not
    traced_serial = replay + (generate if w.campaigns is not None else 0.0)
    m = {
        "graphs.enumerate_s": self_s.get("graphs.enumerate", 0.0),
        "graphs.sample_s": self_s.get("graphs.sample", 0.0),
        "graphs.build_s": self_s.get("graphs.build", 0.0),
        "graphs.text_s": self_s.get("graphs.text", 0.0),
        "graphs.text_bytes": c["graphs.text_bytes"],
        "harness.serial_wall_s": serial_wall,
        "harness.pool_speedup": _ratio(serial_wall, pool_wall),
        "harness.pool_idle_s": W.WORKERS * pool_wall - layer_s if pool_wall else 0.0,
        "harness.ipc_bytes": c["harness.ipc_bytes"],
        "harness.overhead_s": serial_wall - layer_s if serial_wall else 0.0,
        "harness.pool_peak_rss_mb": pool_rss,
    }
    for inv in W.INVARIANTS:
        calls, busy, nodes = c[f"solver.{inv}.calls"], self_s.get(f"solver.{inv}", 0.0), \
            c[f"solver.{inv}.nodes"]
        m.update({f"solver.{inv}.calls": calls, f"solver.{inv}.self_s": busy,
                  f"solver.{inv}.nodes": nodes, f"solver.{inv}.nodes_per_s": _ratio(nodes, busy),
                  f"solver.{inv}.us_per_call": _ratio(busy * 1e6, calls)})
    for inv in W.INVARIANTS:
        calls, busy, labelings = c[f"oracle.{inv}.calls"], self_s.get(f"oracle.{inv}", 0.0), \
            c[f"oracle.{inv}.labelings"]
        m.update({f"oracle.{inv}.calls": calls, f"oracle.{inv}.self_s": busy,
                  f"oracle.{inv}.labelings": labelings,
                  f"oracle.{inv}.labelings_per_s": _ratio(labelings, busy)})
    small = large = 0.0
    for s in rec.spans:
        if s[0].startswith("oracle.") and s[4] >= 0:
            if w.instances[s[4]].n <= 9:
                small += s[2] - s[1]
            else:
                large += s[2] - s[1]
    classify_s = self_s.get("characterize.classify", 0.0)
    m.update({
        "oracle.small_n_s": small, "oracle.large_n_s": large,
        "characterize.classify_calls": c["characterize.classify_calls"],
        "characterize.classify_s": classify_s,
        "characterize.verify_s": self_s.get("characterize.verify", 0.0),
        "characterize.us_per_call": _ratio(classify_s * 1e6, c["characterize.classify_calls"]),
        "trace.overhead_s": traced_serial - untraced,
    })
    units = per_layer_units()
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{name}.jsonl")
    counts = dict(sorted(c.items()))
    return {
        "attempted": attempted,
        "failed": failed,
        "sizes": w.sizes,
        "exact": {"campaigns": exact, "replay": counts},
        "metrics": {k: (m[k], units[k]) for k in units},
        "detail": {"instance_self_s": self_s.get("instance", 0.0), "replay_wall_s": replay,
                   "untraced_serial_wall_s": untraced, "traced_serial_wall_s": traced_serial,
                   "pool_wall_s": pool_wall},
    }


# ---------------------------------------------------------------------------
# environment, exact-count record, output
# ---------------------------------------------------------------------------


def _fingerprint() -> str:
    h = hashlib.sha256()
    for p in sorted([*(SRC / "oidrd").glob("*.py"), *BENCH.glob("*.py"), BENCH / "catalogue.json"]):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        p = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def environment(seed: int, sizes: dict) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "sched_affinity": (sorted(os.sched_getaffinity(0))
                           if hasattr(os, "sched_getaffinity") else None),
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": _fingerprint(),
        "seed": seed,
        "instance_sets": sizes,
    }


def check_exact(key: str, exact, path: Path) -> None:
    """Exact counts of one (workload, seed, trace, source) must repeat
    identically across runs; a mismatch is a benchmark error."""
    exact = json.loads(json.dumps(exact, sort_keys=True))
    record = json.loads(path.read_text()) if path.exists() else {}
    if key in record and record[key] != exact:
        raise BenchError(f"exact counts differ from an earlier run of the same code: {key}")
    record[key] = exact
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)


def _emit(name: str, trace: int, seed: int, res: dict, env: dict) -> None:
    attempted, failed = res["attempted"], res["failed"]
    print(f"perfbench workload={name} seed={seed} trace={trace}")
    for k, (v, unit) in res["metrics"].items():
        print(f"  {k:38s} {v:16.6f} {unit}")
    print(f"  attempted={attempted} failed={failed} failed_frac={failed / attempted:.6f}")
    for k in ("passes", "latency_samples", "raw", "setup_breakdown", "detail"):
        if k in res:
            print(f"  {k}: {json.dumps(res[k], sort_keys=True)}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("exact_counts " + json.dumps(res["exact"], sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in res["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-trace{trace}.json").write_text(
        json.dumps({**result, "raw": res.get("raw"), "setup": res.get("setup_breakdown"),
                    "environment": env, "exact_counts": res["exact"]}, indent=1))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("trees", "connected", "oracle", "solve"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        import_s = _load_program()
        import workloads as W

        if args.setup_only:
            t = perf_counter()
            W.build(args.workload, args.seed, Recorder(False))
            print(json.dumps({"import_s": import_s, "generate_s": perf_counter() - t}))
            return 0
        if args.trace:
            res = traced(args.workload, args.seed)
            sizes = res["sizes"]
        else:
            w = W.build(args.workload, args.seed, Recorder(False))
            sizes = w.sizes
            res = measure(w, args.seconds, args.seed)
            setup, res["setup_breakdown"] = _setup_probes(args.workload, args.seed)
            res["metrics"]["setup_s"] = (setup, "s")
        env = environment(args.seed, sizes)
        OUT.mkdir(exist_ok=True)
        key = f"{args.workload} seed={args.seed} trace={args.trace} source={env['source_sha256']}"
        check_exact(key, res["exact"], OUT / "exact-counts.json")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    _emit(args.workload, args.trace, args.seed, res, env)
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
