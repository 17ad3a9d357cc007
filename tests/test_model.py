"""Tokenizer and cross-encoder behavior."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from reranklab import tensor as T
from reranklab.model import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    CrossEncoderConfig,
    Vocab,
    checkpoint_views,
    init_params,
    score,
    score_batch,
    tokenize_pair,
)
from reranklab.tensor import Tape, finite_diff_grad
from reranklab.train import bce_loss

from conftest import max_rel_err


class TestVocab:
    def test_build_is_sorted_and_deterministic(self):
        v = Vocab.build(["beta alpha", "Gamma beta"])
        assert v.tokens == ["alpha", "beta", "gamma"]
        assert v.id_of("alpha") == 4
        assert v.size == 7

    def test_unknown_maps_to_unk(self):
        v = Vocab.build(["a b"])
        assert v.id_of("missing") == UNK_ID

    def test_reserved_ids_never_reassigned(self):
        v = Vocab.build(["a b c d e"])
        assert all(v.id_of(tok) >= 4 for tok in v.tokens)

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValueError):
            Vocab(["a", "a"])


# Known and unknown tokens, and the reserved names written out as text.
_TOKENS = ["t0", "t1", "zzz", "[PAD]", "[pad]", "[CLS]", "[SEP]", "[UNK]", "T1"]
# A vocabulary built from text holding "[PAD]" gets a regular "[pad]" token.
_PAD_VOCABS = [Vocab([f"t{i}" for i in range(4)]), Vocab.build(["t0 t1 [PAD] [SEP] [cls]"])]


class TestTokenizePair:
    def test_by_construction_example(self):
        v = Vocab(["a", "b", "c"])  # a:4 b:5 c:6
        ids = tokenize_pair(v, "a b", "c", max_len=8)
        assert ids == [0, 4, 5, 1, 6, 1, 2, 2]
        assert [i != PAD_ID for i in ids] == [True] * 6 + [False] * 2

    def test_empty_texts(self):
        v = Vocab(["a"])
        assert tokenize_pair(v, "", "", max_len=6) == [CLS_ID, SEP_ID, SEP_ID, PAD_ID, PAD_ID, PAD_ID]

    def test_longest_first_truncation(self):
        v = Vocab([f"p{i}" for i in range(100)] + ["q"])
        passage = " ".join(f"p{i}" for i in range(100))
        ids = tokenize_pair(v, "q", passage, max_len=8)
        # budget 5: passage trimmed to 4 tokens, query kept intact
        assert ids[:2] == [CLS_ID, v.id_of("q")]
        assert ids[2] == SEP_ID
        assert ids[3:7] == [v.id_of(f"p{i}") for i in range(4)]
        assert ids[7] == SEP_ID

    def test_structure_invariants(self, tiny_vocab):
        ids = tokenize_pair(tiny_vocab, "t0 t1 zzz", "t2 t3", max_len=12)
        assert ids[0] == CLS_ID
        real = [i for i in ids if i != PAD_ID]
        assert real.count(SEP_ID) == 2
        assert all(0 <= i < tiny_vocab.size for i in ids)
        assert len(ids) == 12
        assert ids[len(real) :] == [PAD_ID] * (12 - len(real))

    def test_max_len_too_small(self, tiny_vocab):
        with pytest.raises(ValueError):
            tokenize_pair(tiny_vocab, "t0", "t1", max_len=3)

    @given(
        texts=st.lists(
            st.lists(st.one_of(st.sampled_from(_TOKENS), st.text(max_size=4)), max_size=12).map(" ".join),
            min_size=2,
            max_size=2,
        ),
        max_len=st.integers(4, 20),
    )
    def test_padding_is_exactly_the_trailing_pad_run(self, texts, max_len):
        # The model's key mask is ids != PAD_ID; that is the padding only if no real token is PAD_ID.
        for vocab in _PAD_VOCABS:
            ids = tokenize_pair(vocab, *texts, max_len=max_len)
            real = [i for i in ids if i != PAD_ID]
            assert len(ids) == max_len
            assert ids == real + [PAD_ID] * (max_len - len(real))
            assert real[0] == CLS_ID and real[-1] == SEP_ID and real.count(SEP_ID) == 2


class TestConfig:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError):
            CrossEncoderConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_max_len_floor(self):
        with pytest.raises(ValueError):
            CrossEncoderConfig(vocab_size=10, max_len=4)

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            CrossEncoderConfig(vocab_size=0)

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            CrossEncoderConfig(vocab_size=10, seed=-1)


class TestInitParams:
    def test_same_seed_bit_identical(self, tiny_vocab):
        cfg = CrossEncoderConfig(vocab_size=tiny_vocab.size, d_model=8, n_heads=2, seed=3)
        a, b = init_params(cfg), init_params(cfg)
        for (name_a, pa), (name_b, pb) in zip(a.parameters(), b.parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self, tiny_vocab):
        a = init_params(CrossEncoderConfig(vocab_size=tiny_vocab.size, d_model=8, n_heads=2, seed=1))
        b = init_params(CrossEncoderConfig(vocab_size=tiny_vocab.size, d_model=8, n_heads=2, seed=2))
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.parameters(), b.parameters())
        )

    def test_parameter_count_closed_form(self):
        cfg = CrossEncoderConfig(vocab_size=50, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32)
        model = init_params(cfg)
        v, d, h, dh, dff, ml = 50, 16, 2, 8, 32, 32
        expected = (
            v * d  # token embedding
            + ml * d  # position embedding
            + 2 * d  # attention norm affine
            + h * 3 * d * dh  # q/k/v projections
            + h * dh * d  # per-head output projections
            + d  # attention output bias
            + 2 * d  # feed-forward norm affine
            + d * dff + dff + dff * d + d  # feed-forward
            + d + 1  # scoring head
        )
        assert model.parameter_count() == expected == 3505

    def test_biases_start_at_zero(self, tiny_model):
        for name, p in tiny_model.parameters():
            if name.endswith((".b1", ".b2", "out_bias", "head.bias", "norm.bias")):
                np.testing.assert_array_equal(p.data, 0.0)


class TestCheckpointViews:
    @pytest.mark.parametrize("prefix", ["", "v/"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_views_cover_every_fused_element_once(self, n_heads, n_layers, prefix):
        cfg = CrossEncoderConfig(vocab_size=10, d_model=8, n_layers=n_layers, n_heads=n_heads, d_ff=16)
        counts = {prefix + name: np.zeros_like(p.data) for name, p in init_params(cfg).parameters()}
        views = checkpoint_views(counts, n_heads)
        for view in views.values():
            view += 1.0  # reaches the fused array only through a view
        for name, count in counts.items():
            np.testing.assert_array_equal(count, 1.0, err_msg=name)
        fused = {name for name in counts if name.endswith((".attn.w_qkv", ".attn.w_out"))}
        assert len(fused) == 2 * n_layers
        assert all(views[name] is counts[name] for name in counts.keys() - fused)
        assert len(views) == len(counts) - len(fused) + 4 * n_heads * n_layers

    def test_desk_model_names_in_file_order(self):
        cfg = CrossEncoderConfig(vocab_size=100, d_model=64, n_layers=1, n_heads=2, d_ff=128, max_len=16)
        model = init_params(cfg)
        fused = ["layers.0.attn.w_qkv", "layers.0.attn.w_out"]
        assert [name for name in model.params if name.startswith("layers.0.attn.")] == fused + ["layers.0.attn.out_bias"]
        assert [model.params[name].shape for name in fused] == [(64, 192), (64, 64)]
        views = checkpoint_views({name: p.data for name, p in model.parameters()}, cfg.n_heads)
        assert list(views) == [
            "token_embedding",
            "position_embedding",
            "layers.0.attn_norm.gain",
            "layers.0.attn_norm.bias",
            "layers.0.attn.head0.w_query",
            "layers.0.attn.head0.w_key",
            "layers.0.attn.head0.w_value",
            "layers.0.attn.head0.w_out",
            "layers.0.attn.head1.w_query",
            "layers.0.attn.head1.w_key",
            "layers.0.attn.head1.w_value",
            "layers.0.attn.head1.w_out",
            "layers.0.attn.out_bias",
            "layers.0.ff_norm.gain",
            "layers.0.ff_norm.bias",
            "layers.0.ff.w1",
            "layers.0.ff.b1",
            "layers.0.ff.w2",
            "layers.0.ff.b2",
            "head.weight",
            "head.bias",
        ]
        heads = {name: view.shape for name, view in views.items() if ".head" in name}
        assert heads == {name: (32, 64) if name.endswith("w_out") else (64, 32) for name in heads}


class TestScore:
    def test_zero_head_gives_half(self, tiny_vocab, tiny_model):
        tiny_model.params["head.weight"].data[...] = 0.0
        tiny_model.params["head.bias"].data[...] = 0.0
        ids = tokenize_pair(tiny_vocab, "t0", "t1 t2", tiny_model.config.max_len)
        assert score(tiny_model, ids) == 0.5

    def test_deterministic(self, tiny_vocab, tiny_model):
        ids = tokenize_pair(tiny_vocab, "t0 t4", "t1", tiny_model.config.max_len)
        assert score(tiny_model, ids) == score(tiny_model, ids)

    def test_score_in_open_unit_interval(self, tiny_vocab, tiny_model, rng):
        for _ in range(10):
            toks = [f"t{i}" for i in rng.integers(0, 16, size=4)]
            ids = tokenize_pair(tiny_vocab, " ".join(toks[:2]), " ".join(toks[2:]), 8)
            s = score(tiny_model, ids)
            assert 0.0 < s < 1.0

    def test_masking_invariance(self, tiny_vocab, tiny_model, rng):
        # What padding feeds the model: the [PAD] embedding row and the position rows past the real length.
        batch = [tokenize_pair(tiny_vocab, q, p, tiny_model.config.max_len) for q, p in [("t0", "t1 t2"), ("t3", "")]]
        token, position = tiny_model.params["token_embedding"].data, tiny_model.params["position_embedding"].data
        for ids in batch:
            length = ids.index(PAD_ID)
            base = score(tiny_model, ids)
            for _ in range(5):
                token[PAD_ID] = rng.normal(size=token.shape[1])
                position[length:] = rng.normal(size=position[length:].shape)
                assert abs(score(tiny_model, ids) - base) < 1e-12

    def test_length_mismatch_rejected(self, tiny_vocab, tiny_model):
        ids = tokenize_pair(tiny_vocab, "t0", "t1", 12)
        with pytest.raises(ValueError, match="max_len"):
            score(tiny_model, ids)

    @pytest.mark.parametrize(
        "ids",
        [
            np.full(8, CLS_ID),  # one sequence, not a batch
            np.full((2, 7), CLS_ID),
            np.full((2, 9), CLS_ID),
            np.full((1, 2, 8), CLS_ID),
            np.full((2, 8), 4.5),  # would be truncated to id 4
            [[CLS_ID] * 8, [CLS_ID] * 12],  # ragged
        ],
    )
    def test_forward_rejects_malformed_ids(self, tiny_model, ids):
        with pytest.raises(ValueError, match=r"not a \(batch, max_len 8\) integer array"):
            tiny_model.forward(ids)

    def test_gradient_flow_through_every_parameter_group(self, rng):
        vocab = Vocab([f"t{i}" for i in range(16)])
        cfg = CrossEncoderConfig(
            vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=8, seed=5
        )
        model = init_params(cfg)
        ids = tokenize_pair(vocab, "t0 t1", "t2 t3", cfg.max_len)
        with Tape() as tape:
            out = model.forward([ids])
        tape.backward(out)
        for name in ("position_embedding", "layers.0.attn.w_qkv", "layers.0.attn.w_out", "layers.0.ff.w2", "head.bias"):
            p = model.params[name]
            fd = finite_diff_grad(lambda _: score(model, ids), p)
            assert max_rel_err(p.grad, fd.data) < 1e-4, name


def _mixed_length_batch(vocab, max_len):
    """Id lists whose real lengths (5, 10, 7, 12) differ, so their masks do."""
    texts = [("t0", "t1"), ("t0 t1 t2", "t3 t4 t5 t6"), ("t5", "t6 t7 t8 t9"), ("t2 t9", "t8 " * 7)]
    return [tokenize_pair(vocab, q, p, max_len) for q, p in texts]


class TestBatchedGradient:
    def test_mean_bce_gradient_every_parameter_group(self):
        vocab = Vocab([f"t{i}" for i in range(16)])
        cfg = CrossEncoderConfig(
            vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=16, seed=12
        )
        model = init_params(cfg)
        batch = _mixed_length_batch(vocab, cfg.max_len)
        assert len({sum(i != PAD_ID for i in ids) for ids in batch}) == len(batch)
        labels = np.array([1, 0, 1, 0])

        with Tape() as tape:
            loss = bce_loss(model.forward(batch), labels)
        tape.backward(loss)
        for name, p in model.parameters():
            assert p.grad is not None, f"no gradient reached {name}"
            fd = finite_diff_grad(lambda _: bce_loss(model.forward(batch), labels), p)
            assert max_rel_err(p.grad, fd.data) < 1e-4, name


class TestLastLayerClsOnly:
    """The last layer runs on the CLS row after its attention, exactly as the full-length pass."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_scores_and_gradients_match_full_length_reference(self, n_layers, n_heads):
        vocab = Vocab([f"t{i}" for i in range(16)])
        cfg = CrossEncoderConfig(
            vocab_size=vocab.size, d_model=8, n_layers=n_layers, n_heads=n_heads, d_ff=16, max_len=16, seed=3
        )
        model = init_params(cfg)
        batch = _mixed_length_batch(vocab, cfg.max_len)
        labels = np.array([1, 0, 1, 0])
        runs = []
        for forward in (model.forward, lambda ids: oracles.full_length_forward(model, ids)):
            with Tape() as tape:
                scores = forward(batch)
                loss = bce_loss(scores, labels)
            tape.backward(loss)
            runs.append((scores.data, {name: np.asarray(p.grad) for name, p in model.parameters()}))
            for _, p in model.parameters():
                p.zero_grad()
        (scores, got), (ref_scores, ref) = runs
        assert scores.shape == (len(batch), 1)
        np.testing.assert_allclose(scores, ref_scores, rtol=0, atol=1e-12)
        for name in ref:
            np.testing.assert_allclose(got[name], ref[name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_last_layer_products_see_one_row_per_sequence(self, monkeypatch, n_layers):
        vocab = Vocab([f"t{i}" for i in range(16)])
        cfg = CrossEncoderConfig(
            vocab_size=vocab.size, d_model=64, n_layers=n_layers, n_heads=2, d_ff=128, max_len=16
        )
        model = init_params(cfg)
        batch = [tokenize_pair(vocab, f"t{i % 16}", f"t{i % 7} t{i % 5}", cfg.max_len) for i in range(64)]
        names = {id(p): name for name, p in model.parameters()}
        rows = {}
        linear = T.linear

        def recording(x, w, b=None):
            rows[names[id(w)]] = int(np.prod(T.as_tensor(x).shape[:-1]))
            return linear(x, w, b)

        # attention's products with each w_qkv, with np.matmul, forward and then backward: per
        # call, the (first column, number of columns) of the weight it reads (w's, or w.T's rows),
        # and the leading shape of its other operand
        passes = [{}]
        qkv = {name: p.data for name, p in model.parameters() if name.endswith("attn.w_qkv")}
        matmul = np.matmul

        def spying(a, b, *args, **kwargs):
            for name, w in qkv.items():
                assert not np.shares_memory(a, w), name  # the weight is always the right operand
                if np.shares_memory(b, w):
                    first = (b.ctypes.data - w.ctypes.data) // w.itemsize
                    columns = b.shape[-1] if b.strides[-2] > b.strides[-1] else b.shape[-2]
                    passes[-1].setdefault(name, []).append(((first, columns), a.shape[:-1]))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(T, "linear", recording)
        monkeypatch.setattr(np, "matmul", spying)
        with Tape() as tape:
            loss = bce_loss(model.forward(batch), np.arange(64) % 2)
        passes.append({})
        tape.backward(loss)
        monkeypatch.undo()
        sequences, positions = len(batch), len(batch) * cfg.max_len
        d = cfg.d_model
        last = f"layers.{n_layers - 1}"
        for name in ("attn.w_out", "ff.w1", "ff.w2"):
            assert rows[f"{last}.{name}"] == sequences, name
        assert rows["head.weight"] == sequences
        for i in range(n_layers - 1):
            for name in ("attn.w_out", "ff.w1", "ff.w2"):
                assert rows[f"layers.{i}.{name}"] == positions, name
        for products in passes:  # the forward's, then the backward's
            # the last layer's keys and values are absorbed into its CLS query: no product with
            # its weight reads more than B rows, per head where the product is batched by head
            last_products = products.pop(f"{last}.attn.w_qkv")
            assert last_products
            assert {shape for _, shape in last_products} <= {(sequences,), (cfg.n_heads, sequences)}
            # the layers before project, and back-project, every position through all 3d columns
            assert len(products) == n_layers - 1
            for name, calls in products.items():
                assert calls == [((0, 3 * d), (positions,))], name


class TestScoreBatch:
    def test_single_item(self, tiny_vocab, tiny_model):
        seq = tokenize_pair(tiny_vocab, "t0", "t1", 8)
        assert score_batch(tiny_model, [seq]) == [score(tiny_model, seq)]

    def test_matches_per_item_scores(self, tiny_vocab, tiny_model):
        seqs = [tokenize_pair(tiny_vocab, f"t{i}", f"t{i + 1}", 8) for i in range(6)]
        batch = score_batch(tiny_model, seqs)
        single = [score(tiny_model, s) for s in seqs]
        assert all(abs(a - b) < 1e-12 for a, b in zip(batch, single))

    def test_concatenation_of_half_batches(self, tiny_vocab, tiny_model):
        seqs = [tokenize_pair(tiny_vocab, f"t{i}", "t0", 8) for i in range(4)]
        whole = score_batch(tiny_model, seqs)
        halves = score_batch(tiny_model, seqs[:2]) + score_batch(tiny_model, seqs[2:])
        assert whole == halves

    def test_mixed_lengths_match_single_scores_and_halves(self, tiny_vocab, tiny_model):
        seqs = _mixed_length_batch(tiny_vocab, 16)[:3] + [tokenize_pair(tiny_vocab, "t3", "", 16)]
        model = init_params(
            CrossEncoderConfig(
                vocab_size=tiny_vocab.size, d_model=8, n_layers=2, n_heads=2, d_ff=16, max_len=16, seed=7
            )
        )
        whole = score_batch(model, seqs)
        assert all(abs(a - score(model, s)) < 1e-12 for a, s in zip(whole, seqs))
        halves = score_batch(model, seqs[:2]) + score_batch(model, seqs[2:])
        assert all(abs(a - b) < 1e-12 for a, b in zip(whole, halves))

    def test_empty_batch(self, tiny_model):
        assert score_batch(tiny_model, []) == []
        assert score_batch(tiny_model, np.empty((0, 8), dtype=np.intp)) == []

    def test_id_matrix_scores_as_id_lists(self, tiny_vocab, tiny_model):
        seqs = [tokenize_pair(tiny_vocab, f"t{i}", f"t{i + 2} t3", 8) for i in range(5)]
        assert score_batch(tiny_model, np.array(seqs, dtype=np.intp)) == score_batch(tiny_model, seqs)


class TestEmptyVocab:
    def test_build_from_nothing_keeps_reserved_ids(self):
        v = Vocab.build([])
        assert v.size == 4
        ids = tokenize_pair(v, "anything goes", "here", max_len=8)
        real = [i for i in ids if i != PAD_ID]
        assert real[0] == CLS_ID
        assert all(i in (CLS_ID, SEP_ID, UNK_ID) for i in real)
