"""reranklab benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with every layer's public functions wrapped and prints the per-layer
metrics instead. Run it from the repository root; it imports reranklab from
``src/`` next to this directory and writes only under ``.perfbench-work/``
there, which it removes on exit. The last line of standard output is the JSON
result; the exit code is 0 only when every output check passed.
"""

import os

# Pin BLAS to one thread before numpy loads: on a 2-core box, threading noise
# otherwise swings small matmuls by 2x.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-desk", "train-smallbatch", "rerank-eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="command time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs for the benchmark's own smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reranklab" / "__init__.py").is_file():
        print(f"perfbench: reranklab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from tracing import SpanFrame, Tracer

    spec = (workloads.WORKLOADS if args.size == "full" else workloads.SMOKE)[args.workload]
    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    runner = workloads.Runner(spec, args.seed, args.seconds, work_dir, tracer)
    env = environment(args)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    metrics: dict[str, tuple[float, str]] = {}
    try:
        if tracer is None:
            runner.run()
            metrics = runner.end_to_end()
        else:
            from layers import layer_metrics

            tracer.install()
            try:
                # Even cycles traced, odd ones not, to measure tracing's cost.
                runner.run(traced_cycles=lambda i: i % 2 == 0, min_cycles=3)
            finally:
                tracer.uninstall()
            frame = SpanFrame(tracer)
            metrics, notes = layer_metrics(runner, frame)
            for note in notes:
                print(note)
            bad = frame.nesting_violations()
            if bad:
                runner.problems.append(f"{bad} traced spans lie outside their parent")
            print_optimizer_table(metrics)
    except Exception:
        runner.problems.append(traceback.format_exc())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    for cmd in runner.commands:
        for problem in cmd.problems:
            print(f"FAILED {cmd.label} (cycle {cmd.cycle}): {problem}", file=sys.stderr)
    for problem in runner.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    by_label: dict[str, list[str]] = {}
    for cmd in runner.commands:
        by_label.setdefault(f"{cmd.phase}:{cmd.label}", []).append(f"{cmd.seconds:.3f}")
    by_label["setup"] = [f"{t:.3f}" for t in runner.setup_seconds]
    for label, times in by_label.items():
        print(f"seconds {label:<24} {' '.join(times)}")
    attempted = max(len(runner.commands), 1)
    # problems not tied to one command (quality bounds, a crash) count too
    failed = min(runner.failed(), attempted)
    loop = [c for c in runner.commands if c.phase == "loop"]
    print(f"ops_attempted={attempted} ops_failed={failed} loop_cycles={len({c.cycle for c in loop})} "
          f"measured_s={sum(c.seconds for c in loop):.3f}")
    correct = failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def print_optimizer_table(metrics) -> None:
    """The paper's Lion vs AdamW cost comparison, on the update alone."""
    print("optimizer   update ms/step   state bytes   whole step p50 ms")
    for opt in ("lion", "adamw"):
        print(f"{opt:<10}  {metrics[f'optim.step_ms.{opt}'][0]:>14.4f}   "
              f"{metrics[f'optim.state_bytes.{opt}'][0]:>11.0f}   {metrics[f'train.step_ms_p50.{opt}'][0]:>17.3f}")


if __name__ == "__main__":
    sys.exit(main())
