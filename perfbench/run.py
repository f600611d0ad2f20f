"""Benchmark of the eskin generate -> train -> eval -> infer chain.

    python3 perfbench/run.py --workload single_chain --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from anywhere; the program is imported from ``src/`` beside this
directory, in this one process. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files go
to ``.perfbench_out/`` at the repository root and are removed at the end;
results, spans and report digests stay there.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import stats
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("single_chain", "infer_stream")

# (metric, unit); must match BENCHMARK.json's end_to_end list
END_TO_END = [
    ("setup_s", "s"),
    ("chain_s", "s"),
    ("infer_p50_ms", "ms"),
    ("infer_p90_ms", "ms"),
    ("batch_frames_per_s", "frames/s"),
    ("bundle_save_s", "s"),
    ("bundle_load_s", "s"),
    ("bundle_mb", "MB"),
    ("peak_rss_mb", "MB"),
]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS this process loaded, asked of the library."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this host ran the
    interpreter at the end of the run. It drifts by tens of percent."""
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return stats.median(times) * 1e3


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "host_probe_ms": host_probe_ms(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(setup_s: list[float], t) -> tuple[dict, dict]:
    """Metric values, and the sample count behind each."""
    from workloads import BATCH_FRAMES

    lat = t.latencies_s
    values = {
        "setup_s": stats.median(setup_s),
        "chain_s": t.chain_s,
        "infer_p50_ms": stats.percentile(lat, 50) * 1e3,
        "infer_p90_ms": stats.percentile(lat, 90) * 1e3,
        "batch_frames_per_s": BATCH_FRAMES / stats.median(t.batch_s),
        "bundle_save_s": stats.median(t.save_s),
        "bundle_load_s": stats.median(t.load_s),
        "bundle_mb": t.bundle_bytes / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    counts = {
        "setup_s": len(setup_s),
        "infer_p50_ms": len(lat),
        "infer_p90_ms": len(lat),
        "beyond_p90": stats.samples_beyond(lat, 90),
        "batch_frames_per_s": len(t.batch_s),
        "bundle_save_s": len(t.save_s),
        "bundle_load_s": len(t.load_s),
    }
    return values, counts


def check_digests(run, passes, key: str) -> None:
    """report.json must be byte-identical across the passes of this run and
    across runs of the same seed in this checkout (digests kept on disk).
    The BLAS thread count changes the order of floating-point sums, and so
    the report, so it is part of the key."""
    digests = {t.report_digest for t in passes if t.report_digest}
    if not digests:
        return
    run.tally.record(len(digests) == 1, "report.json differs between passes of one run")
    record = run.digests / f"{key}-blas{blas_threads()}.sha256"
    digest = sorted(digests)[0]
    if record.exists():
        run.tally.record(
            record.read_text().strip() == digest,
            f"report.json differs from an earlier run of the same seed ({record})",
        )
    else:
        record.write_text(digest + "\n")


def code_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    files = [*(ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def untraced_chain_s(name: str, seed: int, code: str) -> float | None:
    """chain_s of a correct untraced run of this seed and this code, if one
    left its result here."""
    try:
        rec = json.loads((OUT / "results" / f"{name}-seed{seed}-trace0.json").read_text())
    except (OSError, ValueError):
        return None
    if rec.get("code") != code or not rec.get("correct"):
        return None
    return rec["metrics"]["chain_s"]["value"]


def measure(name: str, seed: int, seconds: float, trace: bool, run,
            code: str) -> tuple[dict, dict]:
    """The run's metrics as {name: {value, unit}}, and sample counts."""
    from workloads import WORKLOADS, clock

    wl = WORKLOADS[name]
    if trace:
        spans = tr.Tracer()
        with tr.instrument(spans):
            state = wl.setup(run)
        # traced pass first, so that no earlier pass has already raised the
        # peak RSS a span's growth is measured against; no extra serving
        # rounds (seconds=0), so the traced pass does the chain's work only
        with tr.instrument(spans):
            traced = wl.run_pass(run, state, "traced", 0.0)
        # the overhead is measured against the untraced run of this seed;
        # without one, an untraced pass is run here
        reference = untraced_chain_s(name, seed, code)
        passes = [traced]
        if reference is None:
            passes.append(wl.run_pass(run, state, "untraced", 0.0))
            reference = passes[-1].chain_s
        check_digests(run, passes, f"{name}-seed{seed}")
        metrics = tr.layer_metrics(spans.spans)
        metrics["trace.chain_s"] = traced.chain_s
        metrics["trace.untraced_chain_s"] = reference
        metrics["trace.overhead_s"] = traced.chain_s - reference
        spans.write_jsonl(OUT / "results" / f"{name}-seed{seed}-spans.jsonl")
        units = tr.UNITS
        counts = {}
    else:
        setup_s = []
        for _ in range(wl.setup_repeats):
            t0 = clock()
            state = wl.setup(run)
            setup_s.append(clock() - t0)
        timed = wl.run_pass(run, state, "timed", seconds)
        check_digests(run, [timed], f"{name}-seed{seed}")
        metrics, counts = end_to_end(setup_s, timed)
        units = dict(END_TO_END)
    return {
        name_: {"value": value, "unit": units[name_]}
        for name_, value in metrics.items()
    }, counts


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import eskin
    except ImportError as exc:
        print(f"perfbench: cannot import eskin from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(eskin.__file__).resolve().parents:
        print(f"perfbench: eskin was imported from {eskin.__file__}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 2
    from workloads import Run, WorkloadFailed

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "digests").mkdir(parents=True, exist_ok=True)
    work = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(seed=args.seed, work=work, digests=OUT / "digests")
    metrics, counts = {}, {}
    code = code_digest()
    try:
        metrics, counts = measure(args.workload, args.seed, args.seconds, args.trace, run,
                                  code)
    except WorkloadFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
    except Exception:
        run.tally.record(False, "unexpected exception")
        traceback.print_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = run.tally
    env = environment()
    for name, m in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        if name == "infer_p90_ms":
            n = f"  (n={counts[name]}, {counts['beyond_p90']} beyond p90)"
        print(f"{args.workload:14s} {name:26s} {m['value']:.6g} {m['unit']}{n}")
    print(f"{args.workload:14s} {'error_rate':26s} {tally.error_rate:.6g} ratio"
          f"  ({tally.failed} failed of {tally.attempted} attempted)")
    for what in tally.failures:
        print(f"perfbench: FAILED {what}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    # a run that raised has recorded a failure, so it is never correct
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, counts=counts, env=env, code=code,
                  failures=tally.failures,
                  finished=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": m
            for name, r in results.items()
            for metric, m in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure at least this long; serving rounds are added "
                         "until the timed part has lasted this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.trace = bool(args.trace)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
