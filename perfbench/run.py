"""Benchmark runner for the torusgraphs CLI.

    python3 perfbench/run.py --workload graph-d48 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
Every pass of a workload runs its CLI commands in a fresh interpreter, one
process at a time, with the BLAS thread count fixed. With `--trace 0` the
run reports the end-to-end metrics (median over the run); with `--trace 1`
it runs one untraced and one traced pass and reports the per-layer metrics.
The last line of stdout is the JSON result; per-pass details, the host
record and the spans are kept under `.perfbench/` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host
import layers
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_PROBES = 7
DEADLINE_S = 170.0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.count = 0

    def spawn(self, spec):
        """Run one worker; returns its result dict with `setup_s` added, or
        None when it crashed or ran past the deadline."""
        self.count += 1
        spec_path = self.work / f"spec-{self.count}.json"
        result_path = self.work / f"result-{self.count}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path),
                                 str(result_path)], cwd=self.root, env=self.env)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"worker {self.count} killed at the deadline", file=sys.stderr)
            return None
        if code != 0 or not result_path.is_file():
            print(f"worker {self.count} exited with code {code}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        package = Path(result["package_file"]).resolve()
        if self.root / "src" not in package.parents:
            raise SystemExit(f"error: imported torusgraphs from {package}, not from this checkout")
        result["setup_s"] = result["imported"] - started
        return result

    def probe(self):
        return self.spawn({"ops": []})

    def run_pass(self, wl, inputs, n, trace=False, spans_path=None):
        out = self.work / f"pass-{n}"
        out.mkdir()
        ops = wl.ops(inputs, out)
        spec = {"ops": ops, "trace": trace, "run_id": f"{wl.name}-pass{n}",
                "spans_path": str(spans_path) if spans_path else None}
        started = time.monotonic()
        result = self.spawn(spec)
        if result is None:
            result = {"ops": len(ops), "failed_ops": len(ops), "problems": ["worker failed"]}
        result["elapsed"] = time.monotonic() - started
        return result


def _median(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else 0.0


def measure(runner, wl, inputs, seconds):
    """Untraced run: set-up probes, then passes until `seconds` have gone by."""
    runner.probe()  # warm the file cache and bytecode; not counted
    setups = [p for p in (runner.probe() for _ in range(SETUP_PROBES)) if p]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(runner.run_pass(wl, inputs, len(passes)))
        now = time.monotonic()
        if now - start >= seconds or now + passes[-1]["elapsed"] > runner.deadline:
            break
    metrics = {
        "setup_s": _median(setups + passes, "setup_s"),
        "wall_s": _median(passes, "wall_s"),
        "peak_rss_mb": _median(passes, "peak_rss_mb"),
    }
    return metrics, passes


def trace(runner, wl, inputs, spans_path):
    """Traced run: one untraced pass for the overhead, then one traced pass."""
    runner.probe()
    plain = runner.run_pass(wl, inputs, 0)
    traced = runner.run_pass(wl, inputs, 1, trace=True, spans_path=spans_path)
    passes = [plain, traced]
    if "wall_s" not in traced or not spans_path.is_file():
        return {name: 0.0 for name, *_ in layers.METRICS}, passes
    stats = spans.SpanStats(spans.read_jsonl(spans_path))
    ctx = {"input_rows": wl.input_rows, "wall_s": traced["wall_s"],
           "untraced_wall_s": plain.get("wall_s", traced["wall_s"])}
    return layers.per_layer(stats, ctx), passes


def design_lines(wl, metrics):
    lines = []
    for name, kind, target in wl.design:
        value = metrics[name]
        ok = value >= target if kind == "min" else abs(value - target) < 1e-9
        rule = f">= {target}" if kind == "min" else f"= {target}"
        lines.append(f"design {wl.name}: {name} = {value:.4f} ({rule}: {'met' if ok else 'NOT met'})")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "torusgraphs" / "cli.py").is_file():
        print("error: src/torusgraphs/cli.py not found; run from the root of a torusgraphs "
              "checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    keep = root / ".perfbench"
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = keep / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, time.monotonic() + DEADLINE_S)
        inputs = wl.prepare(work, args.seed)
        if args.trace:
            metrics, passes = trace(runner, wl, inputs, keep / f"{tag}.spans.jsonl")
            units = {name: unit for name, unit, *_ in layers.METRICS}
        else:
            metrics, passes = measure(runner, wl, inputs, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed_ops"] for p in passes)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "host": host.record(BLAS_THREADS), "metrics": metrics, "passes": passes}
    (keep / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("host " + json.dumps(record["host"]))
    for i, p in enumerate(passes):
        print(f"pass {i}: wall_s={p.get('wall_s', float('nan')):.3f} "
              f"setup_s={p.get('setup_s', float('nan')):.3f} "
              f"peak_rss_mb={p.get('peak_rss_mb', float('nan')):.1f} "
              f"ops={p['ops']} failed={p['failed_ops']}")
        for problem in p["problems"]:
            print(f"  check failed: {problem}")
    quiet = [name for name, value in metrics.items() if name.endswith(".errors") and value == 0]
    for name, value in metrics.items():
        if name not in quiet:
            print(f"{name} = {value:.6g} {units[name]}")
    if quiet:
        print(f"{len(quiet)} more .errors counters = 0 count")
    if args.trace:
        print("\n".join(design_lines(wl, metrics)))
    print(f"ops = {attempted}, ops_failed = {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
