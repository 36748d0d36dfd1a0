"""Tests of the benchmark itself: the numpy reference against the package on
tiny shapes, self-time arithmetic, and a tiny-size run of every workload.

Run from the repository root:  python -m pytest perfbench/tests
"""

import argparse
import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from sasvbackend import backend, sampling, scoring, training  # noqa: E402
from sasvbackend import data as dio  # noqa: E402
from sasvbackend.autodiff import Tape, Tensor  # noqa: E402

from perfbench import reference as ref  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench.tracer import Tracer, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, TrainWorkload, seeded_params  # noqa: E402

TINY_SYNTH = dict(train_speakers=4, dev_speakers=2, eval_speakers=3,
                  bonafide_per_speaker=8, spoof_per_speaker=6, d_a=8, d_c=5)


def _params(seed=0, d_a=8, d_c=5, h_f=4):
    params = seeded_params(d_a, d_c, h_f, seed)
    return params, {name: t.value for name, t in params.parameters()}


def _enrollment(rng, k, d_a, spoofed):
    embeddings = tuple(backend.Embedding(f"u{i}", "asv", rng.standard_normal(d_a))
                       for i in range(k))
    return backend.EnrollmentSet("spk", embeddings, tuple(i not in spoofed for i in range(k)))


@pytest.mark.parametrize("spoofed", [(), (1,), (0, 3, 4)])
def test_reference_pooling_matches_package(spoofed):
    params, P = _params()
    enroll = _enrollment(np.random.default_rng(5), 6, 8, spoofed)
    E = enroll.matrix()[None]
    keep = ~enroll.spoof_mask()[None]
    np.testing.assert_allclose(ref.pool_attention(P, E, keep)[0],
                               backend.pool_enrollments(params, enroll).value[0],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(ref.pool_average(E, keep)[0],
                               backend.average_pool(enroll).value[0], rtol=0, atol=1e-12)


def test_reference_heads_match_package():
    params, P = _params(seed=3)
    rng = np.random.default_rng(7)
    h, q, c = rng.standard_normal((3, 8)), rng.standard_normal((3, 8)), rng.standard_normal((3, 5))
    cols = ref.trial_scores(P, h, q, c)
    for i in range(3):
        cos, s_asv, p_asv = backend.asv_probability(params, Tensor(q[i]), Tensor(h[i]))
        s_cm, p_cm = backend.cm_probability(params, Tensor(c[i]))
        s, p = backend.fuse(params, p_cm, p_asv)
        for name, t in (("cos", cos), ("s_asv", s_asv), ("p_asv", p_asv), ("s_cm", s_cm),
                        ("p_cm", p_cm), ("s", s), ("p", p)):
            assert abs(cols[name][i] - t.item()) <= 1e-12, name


@pytest.mark.parametrize("pooling", ["attention", "average"])
def test_reference_scores_every_scorer_like_package(pooling):
    ds = dio.generate_synthetic(dio.SynthConfig(seed=2, **TINY_SYNTH))
    params, P = _params(seed=2)
    cols = ref.score_trial_list(P, ds.trials_eval, ds.asv_embeddings, ds.cm_embeddings, pooling)
    for scorer in scoring.SCORERS:
        records = scoring.score_trials(params, ds.trials_eval, ds.asv_embeddings,
                                       ds.cm_embeddings, pooling=pooling, scorer=scorer)
        got = np.array([r.score for r in records])
        np.testing.assert_allclose(got, ref.scorer_values(cols, scorer), rtol=0, atol=1e-12)


@pytest.mark.parametrize("pooling", ["attention", "average"])
def test_reference_batch_loss_matches_package(pooling):
    ds = dio.generate_synthetic(dio.SynthConfig(seed=4, **TINY_SYNTH))
    records = dio.build_records(ds.manifest, ds.asv_embeddings, ds.cm_embeddings)
    batch = sampling.draw_batch(records, 3, 4, np.random.default_rng(1))
    params = backend.BackendParams.init(8, 5, 4, np.random.default_rng(2), tape=Tape())
    config = training.TrainConfig(hard_negative_top_n=7, hidden_dim=4, pooling=pooling,
                                  speakers_per_batch=3, utterances_per_speaker=4)
    loss, selected = training.batch_loss(params, sampling.expand_pairs(batch), config)
    utts = [b.utterances for b in batch.speakers]
    want, want_selected = ref.batch_loss(
        {name: t.value for name, t in params.parameters()},
        np.array([[u.asv_embedding.values for u in row] for row in utts]),
        np.array([[u.cm_embedding.values for u in row] for row in utts]),
        np.array([[u.bonafide for u in row] for row in utts]), 7, pooling)
    assert abs(loss.item() - want) <= 1e-12
    assert list(want_selected) == selected


def test_self_times_of_hand_built_tree():
    # 0 root [0, 100]: children 1 [10, 40] and overlapping 3 [50, 90], 4 [80, 95]
    # 1 has child 2 [20, 30] and child 5 [35, 130], which reaches past it
    start = [0, 10, 20, 50, 80, 35]
    end = [100, 40, 30, 90, 95, 130]
    parent = [-1, 0, 1, 0, 0, 1]
    got = self_times(start, end, parent).tolist()
    # root: 100 - (30 + |[50, 95]|) = 25; span 1: 30 - 10 - |[35, 40]| = 15
    assert got == [25, 15, 10, 40, 15, 95]


def test_tracer_spans_nest_and_uninstall_restores():
    calls = []
    mod = types.ModuleType("fake")

    def inner(x):
        calls.append(x)
        return x

    def outer(x):
        return mod.inner(x) + 1

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.patch(mod, "outer", "fake.outer")
    tracer.patch(mod, "inner", "fake.inner", on_call=lambda args: calls.append(("hook",) + args))
    with tracer.operation("bench.op", 0):
        assert mod.outer(2) == 3
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name"]] == ["bench.op", "fake.outer", "fake.inner"]
    assert spans["parent"].tolist() == [-1, 0, 1]
    assert spans["unit"].tolist() == [0, 0, 0]
    assert calls == [("hook", 2), 2]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    assert own.sum() == spans["end"][0] - spans["start"][0]


@pytest.fixture(autouse=True)
def _quick_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_SECONDS", 0.0)


def _tiny(name):
    workload = WORKLOADS[name]
    if isinstance(workload, TrainWorkload):
        recipe = dict(workload.recipe, speakers_per_batch=3, utterances_per_speaker=4,
                      hidden_dim=4, hard_negative_top_n=5)
        return dataclasses.replace(workload, synth=TINY_SYNTH, recipe=recipe)
    return dataclasses.replace(workload, synth=TINY_SYNTH, hidden_dim=4)


def _measure(name, trace, tmp_path, workload=None):
    args = argparse.Namespace(workload=name, seed=3, seconds=0.3, trace=trace)
    return run.measure(args, workload or _tiny(name), tmp_path / "corpus")


def _per_layer_names():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path):
    report, metrics, attempted, failed, _ = _measure(name, 0, tmp_path)
    assert failed == 0 and attempted >= 2, report["errors"]
    assert set(metrics) == {"setup_s", "items_per_s", "op_ms.p50", "op_ms.p90", "peak_rss_mb"}
    for metric in metrics.values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0

    report, metrics, attempted, failed, _ = _measure(name, 1, tmp_path)
    assert failed == 0, report["errors"]
    assert list(metrics) == _per_layer_names()
    assert all(m["value"] is not None for m in metrics.values())
    layers = report["layers"]
    total = sum(layers[f"layer.{layer}.self_ms"] for layer in
                ("sampling", "backend", "autodiff", "training", "scoring", "metrics", "data"))
    assert total + layers["trace.unattributed_ms"] == pytest.approx(layers["trace.op_ms"])


def test_wrong_scores_count_as_failed(tmp_path, monkeypatch):
    def skewed_fuse(params, p_cm, p_asv):
        s, p = backend.fuse(params, p_cm, p_asv)
        return s, Tensor(p.value + 1e-9)

    monkeypatch.setattr(scoring, "fuse", skewed_fuse)
    report, _, attempted, failed, _ = _measure("score-eval", 0, tmp_path)
    assert failed > 0
    assert "fused: scores differ from the reference" in report["errors"][0]


def test_nondeterministic_losses_count_as_failed(tmp_path, monkeypatch):
    calls = itertools.count()
    original = training.batch_loss

    def drifting(params, pairs, config):
        loss, selected = original(params, pairs, config)
        if next(calls) % 2:
            loss = training.ad.affine(loss, 1.0 + 1e-15)
        return loss, selected

    monkeypatch.setattr(training, "batch_loss", drifting)
    report, _, attempted, failed, _ = _measure("train-trend", 0, tmp_path)
    assert 0 < failed < attempted
    assert "not bitwise equal" in report["errors"][0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-trend", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
