"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

Runs the CLI commands listed in SPEC through `torusgraphs.cli.main`, as a
user's shell would, then checks their outputs. With "trace" set, span
wrappers are installed first and the spans are written as JSON lines. An
empty op list makes a set-up probe that only imports the CLI.
"""

import sys
import time

# the set-up time is measured from process start to this import, so
# nothing but sys and time may be imported before it
import torusgraphs.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402


def _capture_fpr_reps(sink):
    """Keep the per-replicate FPRs of the last recovery experiment, which the
    FPR check needs and which `bench` does not write out."""
    original = getattr(torusgraphs.cli, "recovery_experiment", None)
    if original is None:
        return

    def capture(*args, **kwargs):
        summary = original(*args, **kwargs)
        sink[:] = list(getattr(summary, "fpr_reps", ()))
        return summary

    spans.replace_everywhere(original, capture)


def run(spec):
    result = {"imported": IMPORTED, "package_file": torusgraphs.cli.__file__}
    if not spec["ops"]:
        return result
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer(spec["run_id"])
        modules = {layer: importlib.import_module(f"torusgraphs.{layer}") for layer in layers.LAYERS}
        tracer.install(layers.targets(modules))
    fpr_reps = []
    _capture_fpr_reps(fpr_reps)

    outcomes = []
    start = time.perf_counter()
    for op in spec["ops"]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = torusgraphs.cli.main(op["argv"])
            error = None if code == 0 else f"exit code {code}"
        except Exception as exc:  # a crash fails this op; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append((op, out.getvalue(), error))
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    failed = 0
    for op, stdout, error in outcomes:
        if error is None:
            kwargs = dict(op["kwargs"])
            if op["check"] == "recovery":
                kwargs["fpr_reps"] = fpr_reps
            try:
                found = getattr(checks, op["check"])(stdout, **kwargs)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        else:
            found = [error]
        problems.extend(f"{op['argv'][0]}: {p}" for p in found)
        failed += bool(found)
    result.update(ops=len(outcomes), failed_ops=failed, problems=problems)
    if tracer is not None:
        tracer.write_jsonl(spec["spans_path"])
    return result


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
