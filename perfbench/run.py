"""fnequiv benchmark runner: one workload per process, closed loop.

    python3 perfbench/run.py --workload basin-xor --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from ``--seed``, then repeats its timed section
on those inputs until ``--seconds`` have passed (at least ``MIN_ITERATIONS``
times), checks every iteration's outputs and prints one JSON result as the
last line of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics.  ``--workload all`` runs each workload in its own process.
See perfbench/README.md for the metrics and how to cite them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS before numpy is imported: one caller, one compute thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("basin-xor", "fclass-cover", "orbit-equiv")
MIN_ITERATIONS = 3
SETUP_PROBES = 5

OUTPUT_RATIOS = (
    "basin.converged_frac",
    "basin.clusters_per_converged",
    "canonical.dedup_kept_frac",
    "canonical.images_per_perm",
    "equivalence.structural_frac",
    "basin.orbit_hit_frac",
)


def _import_program():
    """Import ``fnequiv`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import fnequiv
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fnequiv from {SRC}: {exc}")
    if Path(fnequiv.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: fnequiv imported from {fnequiv.__file__}, not {SRC}")


def _median_and_tail(values):
    """Median, the highest percentile with at least ten samples beyond it, n."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    if n > 10:
        pct = int(100 * (n - 10) / n)
        rank = max(1, -(-pct * n // 100))  # nearest-rank percentile
        out[f"p{pct}"] = vals[rank - 1]
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Environment record


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_sha() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fnequiv").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def _caches() -> list[dict]:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(
            {k: _read(index / k) for k in ("level", "type", "size")}
        )
    return caches


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _blas_versions() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        **_blas_versions(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Set-up probes


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to inputs ready, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]  # fmt: skip
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SystemExit(f"perfbench: set-up probe failed with code {proc.returncode}")
        times.append(ready)
    return times


# ---------------------------------------------------------------------------
# Timed loop


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.facts = {}

    def iterate(self):
        """One timed iteration; returns (wall seconds, phases, samples)."""
        wl = self.workload
        start = time.perf_counter()
        try:
            out, phases, samples = wl.run()
        except Exception as exc:  # a raising operation is a failed one
            print(f"perfbench: {wl.name} raised {exc!r}", file=sys.stderr)
            self.attempted += wl.ops
            self.failed += wl.ops
            return time.perf_counter() - start, {}, {}
        wall = time.perf_counter() - start
        failed, facts = wl.check(out)
        digest = wl.digest(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            print(f"perfbench: {wl.name} outputs differ between iterations", file=sys.stderr)
            failed = wl.ops
        self.attempted += wl.ops
        self.failed += failed
        if facts:
            self.facts = facts
        return wall, phases, samples


def run_untraced(runner: Runner, seconds: float):
    walls, phases, samples = [], {}, {}
    start = time.perf_counter()
    while len(walls) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        wall, ph, sm = runner.iterate()
        walls.append(wall)
        for k, v in ph.items():
            phases.setdefault(k, []).append(v)
        for k, v in sm.items():
            samples.setdefault(k, []).extend(v)
    return walls, phases, samples


def run_traced(runner: Runner, seconds: float, recorder):
    """Alternate untraced and traced iterations; returns untraced walls and,
    per traced iteration, (wall, span summary, counters)."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.iterate()[0])
        recorder.begin(len(traced))
        recorder.active = True
        try:
            wall = runner.iterate()[0]
        finally:
            recorder.active = False
        traced.append((wall, recorder.summary(), dict(recorder.counters)))
    return untraced, traced


def output_counters(runner: Runner) -> dict:
    values = runner.workload.output_counters(runner.facts) if runner.facts else {}
    out = {}
    for name in OUTPUT_RATIOS:
        num, base = values.get(name, (0, 0))
        out[name] = (num / base if base else 0.0, "ratio")
        out[f"{name}.base"] = (base, "count")
    out["cli.output_bytes"] = (values.get("cli.output_bytes", 0), "bytes")
    return out


def per_layer_metrics(untraced, traced, runner) -> dict:
    # Report the traced iteration with the median wall time, so that its
    # layers' self times plus the benchmark's own time add up to its wall.
    ordered = sorted(traced, key=lambda t: t[0])
    wall, spans, counters = ordered[(len(ordered) - 1) // 2]
    metrics = {}
    for name, value in spans.items():
        if name != "spans.covered_s":
            metrics[name] = (value, "count" if name.endswith(".calls") else "s")
    for name, value in counters.items():
        metrics[name] = (value, "bytes" if name.endswith("_bytes") else "count")
    metrics.update(output_counters(runner))
    metrics["trace.wall_s"] = (wall, "s")
    metrics["bench.self_s"] = (wall - spans["spans.covered_s"], "s")
    metrics["trace_overhead_frac"] = (
        statistics.median(t[0] for t in traced) / statistics.median(untraced) - 1.0,
        "ratio",
    )
    return metrics


def summary_lines(metrics, extra, runner) -> list[str]:
    lines = []
    for key, (value, unit) in metrics.items():
        tail = extra.get(key, "")
        lines.append(f"  {key:<44} {value:>16.6g} {unit:<8} {tail}")
    for key, tail in extra.items():
        if key not in metrics:
            lines.append(f"  {key:<44} {'':>16} {'s':<8} {tail}")
    frac = runner.failed / runner.attempted if runner.attempted else 1.0
    lines.append(f"  {'failed_frac':<44} {frac:>16.6g} {'ratio':<8} "
                 f"({runner.failed}/{runner.attempted} operations)")  # fmt: skip
    return lines


def _fmt_stats(stats: dict) -> str:
    return ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in stats.items())


def run_workload(args) -> int:
    import spans
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    runner = Runner(wl)
    record = {"environment": environment(args.workload, args.seed), "trace": args.trace}
    extra, rates = {}, {}
    if args.trace:
        recorder = spans.SpanRecorder()
        recorder.install()
        untraced, traced = run_traced(runner, args.seconds, recorder)
        metrics = per_layer_metrics(untraced, traced, runner)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        recorder.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["iterations"] = {"untraced_wall_s": untraced, "traced_wall_s": [t[0] for t in traced]}
    else:
        setup = measure_setup(args.workload, args.seed)
        walls, phases, samples = run_untraced(runner, args.seconds)
        wall = statistics.median(walls)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        extra["setup_s"] = _fmt_stats(_median_and_tail(setup))
        extra["wall_s"] = _fmt_stats(_median_and_tail(walls))
        if runner.facts:
            medians = {k: statistics.median(v) for k, v in phases.items()}
            rates = wl.rates(runner.facts, wall, medians)
        for name, stats in samples.items():
            extra[name] = _fmt_stats(_median_and_tail(stats))
        record["workload_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in rates.items()}
        record["timings"] = {
            "setup_s": setup,
            "wall_s": walls,
            **phases,
            **{k: _median_and_tail(v) for k, v in samples.items()},
        }
    wl.cleanup()
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result, digest=runner.digest)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"digest={runner.digest} record={record_path.relative_to(ROOT)}")  # fmt: skip
    for line in summary_lines({**metrics, **rates}, extra, runner):
        print(line)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]  # fmt: skip
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, str(OUT_DIR))
        print("ready", flush=True)
        wl.cleanup()
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
