"""Smoke test of the benchmark itself: every workload at reduced size.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced through ``run.py``; the
result must be correct and carry exactly the metrics and units that
BENCHMARK.json declares. An in-process traced run checks that spans nest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import STEP, SpanFrame, Tracer  # noqa: E402
from workloads import SMOKE, Runner  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(" " + metric["unit"])
                   for line in lines), f"{metric['name']} not printed with its unit"


def test_traced_spans_nest_inside_their_parents():
    work = ROOT / ".perfbench-work" / "smoke-nesting"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    tracer.install()
    try:
        runner = Runner(SMOKE["train-desk"], seed=3, seconds=0.0, work_dir=work, tracer=tracer)
        runner.run(traced_cycles=lambda i: True, min_cycles=1)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    assert runner.failed() == 0, [c.problems for c in runner.commands] + runner.problems
    frame = SpanFrame(tracer)
    assert len(frame) > 0
    assert frame.nesting_violations() == 0
    # Inside commands, every span hangs off the command span that the
    # benchmark opened; every model.forward of training sits in a step.
    names = frame.names
    for idx in range(len(frame)):
        if frame.run[idx] < 0:
            continue
        root = idx
        while frame.parent[root] >= 0:
            root = frame.parent[root]
        assert names[frame.name[root]].startswith("cli."), names[frame.name[idx]]
    forward = frame.mask("model.forward") & (frame.run >= 0)
    in_train = [runner.commands[r].kind == "train" for r in frame.run[forward]]
    steps = frame.step[forward][in_train]
    assert steps.size and (steps >= 0).all()
    assert all(names[frame.name[s]] == STEP for s in steps)


def test_tracer_uninstall_restores_the_program():
    import reranklab.cli
    import reranklab.tensor
    import reranklab.train

    before = (reranklab.cli.run_training, reranklab.tensor.matmul, reranklab.tensor.Tape.__dict__["backward"])
    tracer = Tracer()
    tracer.install()
    assert reranklab.cli.run_training is reranklab.train.run_training is not before[0]
    tracer.uninstall()
    after = (reranklab.cli.run_training, reranklab.tensor.matmul, reranklab.tensor.Tape.__dict__["backward"])
    assert after == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "train-desk", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
