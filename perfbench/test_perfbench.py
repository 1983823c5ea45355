"""Tests of the benchmark itself: span arithmetic, reference checking and
the claim that tracing does not change what the CLI writes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.realpath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

CHILD = os.path.join(HERE, "child.py")

TINY_EVOLVE = """\
[run]
seed = 5
generations = 1

[evolution]
mu = 2
lambda = 2
checkpoint_every = 1

[episode]
max_steps = 30
"""


def _child(*args, cwd=None):
    return subprocess.run([sys.executable, CHILD, *args], capture_output=True,
                          text=True, timeout=300, cwd=cwd)


def test_self_time_of_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds d
    # [6, 7] and e [7, 8.5] back to back.
    spans = [
        ("cli.main", -1, -1, 0.0, 10.0),
        ("a", 0, 0, 1.0, 4.0),
        ("c", 1, 0, 2.0, 3.0),
        ("b", 0, 1, 5.0, 9.0),
        ("d", 3, 1, 6.0, 7.0),
        ("e", 3, 1, 7.0, 8.5),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    summary = tracing.SpanSummary(spans)
    assert summary.root_s == 10.0
    assert summary.self_sum_s == pytest.approx(10.0)
    assert summary.share("b") == pytest.approx(0.15)
    assert summary.calls("d") == 1 and summary.calls("missing") == 0
    assert tracing.nested_total(spans, "b", "e") == pytest.approx(1.5)
    assert tracing.nested_total(spans, "a", "e") == 0.0


def test_percentile_matches_linear_interpolation():
    values = [4.0, 1.0, 3.0, 2.0]
    assert tracing.percentile(values, 50) == 2.5
    assert tracing.percentile(values, 0) == 1.0
    assert tracing.percentile(values, 100) == 4.0
    assert tracing.percentile([], 50) == 0.0


def test_corrupted_reference_value_raises_failed_share(tmp_path):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    reference["cases"][3]["com"][1] += 1e-8  # ten times the tolerance
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    config = tmp_path / "run.cfg"
    config.write_text(TINY_EVOLVE)

    proc = _child("verify", "--config", str(config), "--reference", str(corrupted))
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)
    # the other cases still match, so exactly the corrupted one is missed
    assert len(checks["reference_misses"]) == 1
    assert reference["cases"][3]["case"] in checks["reference_misses"][0]

    clean = dict(checks, reference_misses=[])
    assert run.tally([{"problems": []}], clean) == (0, 1 + checks["reference_checked"])
    assert run.tally([{"problems": []}], checks) == (1, 1 + checks["reference_checked"])


def test_tracing_does_not_change_artifacts(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(TINY_EVOLVE)
    found = {}
    for trace in ("none", "full"):
        out = tmp_path / f"out-{trace}"
        args = ["cli", "--trace", trace, "--result", str(tmp_path / f"{trace}.json")]
        if trace != "none":
            args += ["--spans", str(tmp_path / "spans.json")]
        proc = _child(*args, "--", "evolve", "--config", str(config), "--out", str(out),
                      "--workers", "1", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        found[trace] = run.digests(str(out))
    assert found["none"] == found["full"]
    assert "lineage.csv" in found["none"] and "champion.ckpt" in found["none"]

    spans, counters = tracing.load(str(tmp_path / "spans.json"))
    summary = tracing.SpanSummary(spans)
    episodes = 2 + 1 * (2 + 1)
    assert summary.calls("walker.run_episode") == episodes
    assert summary.calls("physics.step_env") == counters["walker.env_steps"]
    assert summary.self_sum_s == pytest.approx(summary.root_s)
    # every span inside an episode carries that episode's id
    ids = {s[2] for s in spans if s[0] == "physics.step_env"}
    assert ids == set(range(episodes))


def test_speed_probes_reach_pool_workers_without_changing_artifacts(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(TINY_EVOLVE)
    found = {}
    for workers in (1, 2):
        out, result = tmp_path / f"out-{workers}", tmp_path / f"result-{workers}.json"
        proc = _child("cli", "--result", str(result), "--", "evolve", "--config", str(config),
                      "--out", str(out), "--workers", str(workers), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        found[workers] = run.digests(str(out))
        measured = json.loads(result.read_text())
        # one worker runs in-process; a pool's workers each report their probes
        assert measured["probed_children"] == (0 if workers == 1 else workers)
        assert measured["probe_samples"] > 0 and measured["speed"] > 0
        assert 0 < measured["probe_s"] < measured["wall_s"]
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["run.cfg"] + [p for w in found for p in (f"out-{w}", f"result-{w}.json")])
    assert found[1] == found[2]


def test_nominal_times_take_out_probes_and_scale():
    inv = {"wall_s": 2.0, "probe_s": 0.5, "cpu_s": 3.0, "probe_cpu_s": 1.0, "speed": 0.5}
    assert run.nominal(inv) == (0.75, 1.0)
