"""Tests of the benchmark itself, on corpora small enough to run in seconds.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = ["--seed", "3", "--seconds", "1", "--subjects", "2", "--reps", "1"]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["loso", "classify"])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", trace, *TINY],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_run_fails_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loso", "--trace", "0", *TINY],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt_after_set_up(monkeypatch, corrupt):
    """Let the first set-up finish, then apply `corrupt` to the result the run uses."""

    class CorruptedSetUps(workloads.SetUps):
        def __init__(self, *args):
            super().__init__(*args)
            corrupt(self.first)

    monkeypatch.setattr(workloads, "SetUps", CorruptedSetUps)


def test_unreadable_recording_fails_the_run(monkeypatch, capsys):
    def corrupt(ready):
        ready.held.resolve(ready.held.entries[5].path).write_text("not,a,frame\n")

    _corrupt_after_set_up(monkeypatch, corrupt)
    assert run.main(["--workload", "classify", "--trace", "0", *TINY]) == 1
    result = _result(capsys.readouterr().out)
    assert result["correct"] is False and result["failed"] >= 1


def test_changed_background_fails_the_batch_check(monkeypatch, capsys):
    # Valid frames, but not the clip the model's background was estimated from:
    # one-at-a-time scores then disagree with the batch recomputed from disk.
    def corrupt(ready):
        (global_bg,) = ready.held.backgrounds
        path = ready.held.resolve(global_bg.path)
        lines = path.read_text().splitlines()
        warmer = [lines[0]] + [
            ",".join([row.split(",")[0]] + [repr(float(v) + 0.5) for v in row.split(",")[1:]])
            for row in lines[1:]
        ]
        path.write_text("\n".join(warmer) + "\n")

    _corrupt_after_set_up(monkeypatch, corrupt)
    assert run.main(["--workload", "classify", "--trace", "0", *TINY]) == 1
    err = capsys.readouterr()
    assert _result(err.out)["correct"] is False
    assert "scores differ from the batch" in err.err


def test_set_up_that_changes_on_repeat_fails(tmp_path):
    outcome = workloads.Outcome()
    settings = workloads.Settings(seed=0, seconds=0.0, trace=False, work=tmp_path)
    results = iter(range(workloads.SETUP_REPEATS))

    def build(dest):
        dest.mkdir()
        return next(results)

    workloads.SetUps(settings, outcome, build, digest=lambda result: result).finish()
    assert len(outcome.setup) == workloads.SETUP_REPEATS
    assert "different result" in outcome.failures["run:setup"]


def test_traced_wraps_the_package_bindings_only_inside(tmp_path):
    bindings = [
        (module, name)
        for _, name, _, _ in workloads.TRACED
        for module in workloads.PACKAGE_MODULES
        if hasattr(module, name)
    ]
    originals = [getattr(module, name) for module, name in bindings]
    tracer = spans.Tracer()
    with workloads.traced(tracer):
        assert all(getattr(m, n) is not f for (m, n), f in zip(bindings, originals))
        # cli.main looks the splitter up in its own namespace.
        workloads.cli.loso_split(workloads.core.load_manifest(
            workloads.synth.generate_corpus(tmp_path, subjects=2, reps=1, seed=1).manifest_path
        ))
    assert [getattr(m, n) for m, n in bindings] == originals
    names = {span[0] for span in tracer.spans}
    assert {"synth.generate", "core.load_manifest", "core.read_sequence", "evaluate.split_score"} <= names


@pytest.mark.parametrize("corpus", ["headline", "timed"])
def test_tampered_report_fails_the_report_check(monkeypatch, capsys, corpus):
    real_cli = workloads._quiet_cli

    def tampering_cli(argv):
        rc = real_cli(argv)
        if Path(argv[argv.index("--data") + 1]).parent.name.rstrip("0123456789") != corpus:
            return rc
        path = Path(argv[argv.index("--report") + 1])
        report = json.loads(path.read_text())
        first = report["predictions"][0]
        first["predicted"] = next(l for l in report["labels"] if l != first["predicted"])
        path.write_text(json.dumps(report))
        return rc

    monkeypatch.setattr(workloads, "_quiet_cli", tampering_cli)
    assert run.main(["--workload", "loso", "--trace", "0", *TINY]) == 1
    err = capsys.readouterr()
    assert _result(err.out)["correct"] is False
    assert "report check" in err.err


def _report(**changes) -> dict:
    labels = ["fall", "sit_still"]
    predictions = [
        {"index": 0, "true": "fall", "predicted": "fall", "fold": 0, "scores": [1.0, -1.0]},
        {"index": 1, "true": "sit_still", "predicted": "sit_still", "fold": 1, "scores": [-1.0, 1.0]},
        {"index": 2, "true": "sit_still", "predicted": "fall", "fold": 1, "scores": [0.5, 0.5]},
    ]
    report = {
        "labels": labels,
        "confusion": [[1, 0], [1, 1]],
        "overall_accuracy": 2 / 3,
        "per_class_accuracy": {"fall": 1.0, "sit_still": 0.5},
        "fall_sensitivity": 1.0,
        "fall_specificity": 0.5,
        "fold_accuracies": [1.0, 0.5],
        "fold_assignments": [0, 1, 1],
        "predictions": predictions,
    }
    report.update(changes)
    return report


def test_consistent_report_passes():
    checks.check_report(_report(), ["fall", "sit_still", "sit_still"], ["fall", "sit_still"])


@pytest.mark.parametrize(
    "changes",
    [
        {"overall_accuracy": 1.0},
        {"confusion": [[1, 0], [0, 2]]},
        {"fall_specificity": 1.0},
        {"fold_accuracies": [1.0, 1.0]},
        {"per_class_accuracy": {"fall": 1.0, "sit_still": 1.0}},
        {"fold_assignments": [0, 0, 1]},
    ],
)
def test_report_that_does_not_recompute_fails(changes):
    with pytest.raises(checks.CheckFailed):
        checks.check_report(_report(**changes), ["fall", "sit_still", "sit_still"], ["fall", "sit_still"])


def test_true_labels_are_checked_against_the_corpus():
    with pytest.raises(checks.CheckFailed, match="corpus says"):
        checks.check_report(_report(), ["fall", "sit_still", "fall"], ["fall", "sit_still"])


@pytest.mark.parametrize(
    "quality", [(0.84, 1.0, 1.0), (0.96, 0.95, 1.0), (0.96, 1.0, 0.97), (0.96, None, 1.0)]
)
def test_criterion_5_gates(quality):
    checks.check_gates(0.9643, 1.0, 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_gates(*quality)
