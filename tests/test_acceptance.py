"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers when its assertions hold.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np

from reranklab.ir_eval import evaluate, format_qrels, format_run, parse_qrels, parse_run, rerank
from reranklab.model import CrossEncoderConfig, Vocab, init_params, score, tokenize_pair
from reranklab.optim import AdamW, Lion, ScheduleSpec, lr_at
from reranklab.synth import SynthConfig, generate
from reranklab.tensor import Tape, Tensor, finite_diff_grad
from reranklab.train import (
    TrainConfig,
    efficiency_gain,
    format_loss_log,
    run_training,
    triplets_to_pairs,
)

import oracles
from conftest import max_rel_err, query_metrics


def test_c01_gradient_correctness_every_parameter_group():
    started = time.perf_counter()
    vocab = Vocab([f"t{i}" for i in range(16)])  # 16 + 4 reserved = 20 ids
    config = CrossEncoderConfig(
        vocab_size=20, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=16, seed=12
    )
    model = init_params(config)
    seq = tokenize_pair(vocab, "t0 t1 t2", "t3 t4 t5 t6", config.max_len)

    with Tape() as tape:
        out = model.forward([seq])
    tape.backward(out)

    worst = 0.0
    for name, p in model.parameters():
        assert p.grad is not None, f"no gradient reached {name}"
        fd = finite_diff_grad(lambda _: score(model, seq), p)
        err = max_rel_err(p.grad, fd.data)
        worst = max(worst, err)
        assert err < 1e-4, f"{name}: relative error {err}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE C1 PASS: backward matches finite differences on all "
        f"{sum(1 for _ in model.parameters())} parameter groups "
        f"(worst rel err {worst:.2e}, {elapsed:.1f}s)"
    )


def test_c02_lion_single_step_oracle():
    beta1, beta2, lr, g, theta0, m0 = 0.9, 0.99, 0.1, 2.0, 1.0, 0.0
    c1 = beta1 * m0 + (1.0 - beta1) * g
    assert abs(c1 - 0.2) < 1e-15
    params = {"w": Tensor([theta0], requires_grad=True)}
    opt = Lion(params, lr=lr, betas=(beta1, beta2), weight_decay=0.0)
    params["w"].grad = np.array([g])
    opt.step()
    assert abs(params["w"].data[0] - 0.9) < 1e-15
    assert abs(opt.momentum["w"][0] - 0.02) < 1e-15
    print("ACCEPTANCE C2 PASS: Lion reproduces (c1, theta1, m1) = (0.2, 0.9, 0.02)")


def test_c03_lion_scale_invariance_bitwise():
    rng = np.random.default_rng(12)
    sequences, length, dims = 100, 50, 4
    for s in range(sequences):
        grads = rng.normal(size=(length, dims))
        theta0 = rng.normal(size=dims)
        trajectories = []
        for c in (1e-6, 1.0, 1e6):
            params = {"w": Tensor(theta0.copy(), requires_grad=True)}
            opt = Lion(params, lr=0.01, weight_decay=0.01)
            history = []
            for t in range(length):
                params["w"].grad = c * grads[t]
                opt.step()
                history.append(params["w"].data.copy())
            trajectories.append(np.stack(history))
        np.testing.assert_array_equal(trajectories[0], trajectories[1])
        np.testing.assert_array_equal(trajectories[1], trajectories[2])
    print(
        f"ACCEPTANCE C3 PASS: {sequences} random gradient sequences of length {length} "
        f"are bit-identical under gradient scales 1e-6/1/1e6"
    )


def test_c04_adamw_single_step_oracle():
    params = {"w": Tensor([1.0], requires_grad=True)}
    opt = AdamW(params, lr=0.1, betas=(0.9, 0.999), eps=0.0, weight_decay=0.01)
    params["w"].grad = np.array([2.0])
    opt.step()
    assert abs(params["w"].data[0] - 0.899) < 1e-12

    rng = np.random.default_rng(12)
    g = rng.normal(size=32)
    params = {"w": Tensor(np.zeros(32), requires_grad=True)}
    opt = AdamW(params, lr=0.05, eps=0.0, weight_decay=0.0)
    params["w"].grad = g.copy()
    opt.step()
    np.testing.assert_allclose(params["w"].data, -0.05 * np.sign(g), atol=1e-9)
    print("ACCEPTANCE C4 PASS: AdamW closed-form step (0.899) and lr*sign(g) first step hold")


def test_c05_memory_claim_state_bytes():
    worst_low, worst_high = 1.0, 0.0
    for count in (10**2, 10**3, 10**4, 10**5, 10**6):
        params = {"w": Tensor(np.zeros(count), requires_grad=True)}
        lion_bytes = Lion(params).state_bytes()
        adamw_bytes = AdamW(params).state_bytes()
        ratio = lion_bytes / adamw_bytes
        worst_low, worst_high = min(worst_low, ratio), max(worst_high, ratio)
        assert 0.49 <= ratio <= 0.51
        gain = efficiency_gain(adamw_bytes, lion_bytes)
        assert 49.0 <= gain <= 51.0
    print(
        f"ACCEPTANCE C5 PASS: Lion/AdamW state-byte ratio in "
        f"[{worst_low:.4f}, {worst_high:.4f}] for 1e2..1e6 params, gain ~50%"
    )


def test_c06_efficiency_gain_reproduces_usage_table():
    cases = [
        ((73.04, 65.50), (10.32, 10.33)),
        ((33.09, 32.21), (2.66, 2.67)),
        ((77.04, 74.35), (3.49, 3.49)),
    ]
    for (baseline, candidate), (low, high) in cases:
        gain = efficiency_gain(baseline, candidate)
        assert low - 0.02 <= gain <= high + 0.02, (baseline, candidate, gain)
    print("ACCEPTANCE C6 PASS: efficiency-gain formula reproduces the published rows "
          "(10.32-10.33%, 2.66-2.67%, 3.49%)")


def test_c07_metric_oracle_equivalence_thousand_cases():
    started = time.perf_counter()
    rng = np.random.default_rng(2019)
    for case in range(1000):
        ranking, grades = oracles.random_case(rng, max_docs=8, max_grade=3)
        binarize_at = int(rng.integers(1, 3))
        got = query_metrics(ranking, grades, 10, binarize_at)
        pairs = [
            (got["ndcg@10"], oracles.brute_ndcg(ranking, grades)),
            (got["map"], oracles.brute_average_precision(ranking, grades, binarize_at)),
            (got["mrr@10"], oracles.brute_reciprocal_rank(ranking, grades, 10, binarize_at)),
            (got["p@10"], oracles.brute_precision_at_k(ranking, grades, 10, binarize_at)),
            (got["recall@10"], oracles.brute_recall_at_k(ranking, grades, 10, binarize_at)),
            (got["r_prec"], oracles.brute_r_precision(ranking, grades, binarize_at)),
        ]
        for got, expected in pairs:
            if expected is None:
                assert got is None, f"case {case}: expected undefined, got {got}"
            else:
                assert got is not None and abs(got - expected) < 1e-12, f"case {case}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE C7 PASS: six metrics match brute force exactly on 1000 "
        f"randomized cases ({elapsed:.1f}s)"
    )


def test_c08_schedule_checks():
    cosine = ScheduleSpec(kind="cosine", base_lr=2e-6, warmup_ratio=0.1, total_steps=1000)
    assert lr_at(cosine, 1000) == 0.0
    warmup_steps = math.floor(0.1 * 1000)
    boundary_jump = abs(lr_at(cosine, warmup_steps) - lr_at(cosine, warmup_steps - 1))
    assert boundary_jump <= cosine.base_lr / warmup_steps
    constant = ScheduleSpec(kind="constant", base_lr=2e-5, warmup_ratio=0.1, total_steps=500)
    assert all(lr_at(constant, s) == 2e-5 for s in range(501))
    print("ACCEPTANCE C8 PASS: cosine reaches 0 at T_max, warmup boundary continuous, "
          "constant schedule flat")


def _desk_scale_training(optimizer: str, data, vocab, pairs, out_dir):
    config = CrossEncoderConfig(
        vocab_size=vocab.size, d_model=64, n_layers=1, n_heads=2, d_ff=128, max_len=16, seed=12
    )
    model = init_params(config)
    train_config = TrainConfig(
        batch_size=64, epochs=3, seed=12, optimizer=optimizer, base_lr=2e-4, schedule="constant"
    )
    out_dir.mkdir()
    result = run_training(model, vocab, pairs, train_config, out_dir, run_name="desk")
    return model, result


def test_c09_end_to_end_desk_scale_run(tmp_path):
    started = time.perf_counter()
    data = generate(SynthConfig(seed=12, vocab_size=100, n_triplets=1000,
                                n_eval_queries=20, n_candidates=50))
    pairs = triplets_to_pairs(data.triplets)
    assert len(pairs) == 2000
    texts = (
        [t.query for t in data.triplets]
        + [t.positive for t in data.triplets]
        + [t.negative for t in data.triplets]
    )
    vocab = Vocab.build(texts)
    assert vocab.size <= 100

    summaries = {}
    for optimizer in ("lion", "adamw"):
        model, result = _desk_scale_training(optimizer, data, vocab, pairs, tmp_path / optimizer)
        final_epoch = max(r.epoch for r in result.loss_log)
        final_mean = float(np.mean([r.loss for r in result.loss_log if r.epoch == final_epoch]))
        assert final_mean < 0.3, f"{optimizer}: final-epoch mean BCE {final_mean}"
        reranked = rerank(model, vocab, data.queries, data.passages, data.candidates)
        report = evaluate(reranked, data.qrels)
        ndcg = report.aggregates["ndcg@10"]
        assert ndcg is not None and ndcg > 0.9, f"{optimizer}: NDCG@10 {ndcg}"
        summaries[optimizer] = (final_mean, ndcg, result)

    # bit-identical reproducibility of the lion run
    _, rerun = _desk_scale_training("lion", data, vocab, pairs, tmp_path / "rerun")
    assert format_loss_log(rerun.loss_log) == format_loss_log(summaries["lion"][2].loss_log)
    for name in rerun.files:
        if not name.startswith("stats-"):  # the stats file holds step times
            assert (tmp_path / "rerun" / name).read_bytes() == (tmp_path / "lion" / name).read_bytes(), name

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(
        "ACCEPTANCE C9 PASS: "
        + "; ".join(
            f"{opt} final BCE {summaries[opt][0]:.4f}, NDCG@10 {summaries[opt][1]:.4f}"
            for opt in ("lion", "adamw")
        )
        + f"; rerun bit-identical; {elapsed:.0f}s total"
    )


def test_c10_format_round_trips():
    # run files, including score ties resolved by docid
    run_lines = [
        "q1 Q0 da 1 0.500000 tag",
        "q1 Q0 db 2 0.500000 tag",
        "q2 Q0 dz 1 -1.250000 tag",
    ]
    once = parse_run(run_lines)
    assert format_run(once, "tag").splitlines() == run_lines
    assert parse_run(format_run(once, "tag").splitlines()) == once
    tied = evaluate(once, parse_qrels(["q1 0 db 1", "q1 0 da 0", "q2 0 dz 1"]))
    assert tied.per_query["mrr@10"]["q1"] == 1.0  # db wins the tie

    # qrels with duplicates: last judgment wins and survives a round trip
    qrels = parse_qrels(["q1 0 d1 1", "q1 0 d1 3", "q2 0 d2 0"])
    assert qrels["q1"]["d1"] == 3
    again = parse_qrels(format_qrels(qrels).splitlines())
    assert again == qrels
    print("ACCEPTANCE C10 PASS: run/qrels parse-emit-parse lossless with tie and "
          "duplicate fixtures")
