import numpy as np
import pytest

from multigram import autodiff as ad
from multigram.autodiff import ParamStore, Tape, Tensor
from multigram.encoders import (
    TreeLstmParams,
    bilstm_encode,
    bilstm_encode_batch,
    cnn_encode,
    encode_bi_forest,
    encode_dag,
    init_bilstm_params,
)
from multigram.structures import ngram_shape, tree_shape

from conftest import (
    fresh_bilstm_params,
    fresh_cnn_params,
    fresh_tree_params,
    random_bracketing,
    random_embeddings,
)
from gradcheck import check_gradients
from reference import (
    NodeState,
    build_dag,
    bilstm_encoder_macs,
    bilstm_reference,
    cnn_encoder_macs,
    encode_dag_reference,
    forest_encoder_macs,
    pyramid_encoder_macs,
    tree_encoder_macs,
    tree_lstm_cell,
    zero_state,
)


def zero_tree_params(embed_dim, hidden_dim):
    d = hidden_dim
    return TreeLstmParams(
        w=Tensor(np.zeros((5 * d, embed_dim))),
        u_left=Tensor(np.zeros((5 * d, d))),
        u_right=Tensor(np.zeros((5 * d, d))),
        bias=Tensor(np.zeros(5 * d)),
    )


class TestCell:
    def test_all_zero_inputs_give_zero_state(self):
        params = zero_tree_params(3, 2)
        state = tree_lstm_cell(Tensor(np.zeros(3)), zero_state(2), zero_state(2), params)
        np.testing.assert_allclose(state.h.data, 0.0)
        np.testing.assert_allclose(state.c.data, 0.0)

    def test_hand_evaluated_composition(self):
        # Zero parameters: every gate is 0.5, candidate is 0; with the
        # children's hidden vectors in the memory sum, h_l=[1], h_r=[0]
        # gives c = 0.5 and h = 0.5 * tanh(0.5).
        params = zero_tree_params(1, 1)
        left = NodeState(Tensor([1.0]), Tensor([0.0]))
        right = NodeState(Tensor([0.0]), Tensor([0.0]))
        state = tree_lstm_cell(None, left, right, params, memory_update="hidden")
        np.testing.assert_allclose(state.c.data, [0.5])
        np.testing.assert_allclose(state.h.data, [0.5 * np.tanh(0.5)])
        assert state.h.data[0] == pytest.approx(0.23105857863000487)

    def test_cell_variant_sums_child_memories(self):
        params = zero_tree_params(1, 1)
        left = NodeState(Tensor([1.0]), Tensor([2.0]))
        right = NodeState(Tensor([0.0]), Tensor([0.0]))
        state = tree_lstm_cell(None, left, right, params, memory_update="cell")
        np.testing.assert_allclose(state.c.data, [1.0])
        np.testing.assert_allclose(state.h.data, [0.5 * np.tanh(1.0)])

    def test_explicit_zero_states_match_skipped_terms(self):
        _, params = fresh_tree_params(4, 3, seed=5)
        x = Tensor(np.random.default_rng(1).normal(size=4))
        with_zeros = tree_lstm_cell(x, zero_state(3), zero_state(3), params)
        skipped = tree_lstm_cell(x, None, None, params)
        np.testing.assert_allclose(with_zeros.h.data, skipped.h.data)
        np.testing.assert_allclose(with_zeros.c.data, skipped.c.data)

    @pytest.mark.parametrize("memory_update", ["hidden", "cell"])
    def test_cell_gradients(self, memory_update):
        store, params = fresh_tree_params(4, 3, seed=2)
        x = Tensor(np.random.default_rng(3).normal(size=4))
        left = NodeState(
            Tensor(np.random.default_rng(4).normal(size=3)),
            Tensor(np.random.default_rng(5).normal(size=3)),
        )
        right = NodeState(
            Tensor(np.random.default_rng(6).normal(size=3)),
            Tensor(np.random.default_rng(7).normal(size=3)),
        )

        def closure():
            state = tree_lstm_cell(x, left, right, params, memory_update)
            return ad.sum_all(state.h)

        report = check_gradients(closure, store)
        assert report.ok, report.per_tensor

    def test_bad_memory_update(self):
        params = zero_tree_params(2, 2)
        with pytest.raises(ValueError):
            tree_lstm_cell(Tensor(np.zeros(2)), None, None, params, memory_update="verbatim")


ALL_NGRAM_KINDS = ("pyramid", "leftforest", "rightforest")


class TestEncodeDag:
    def test_single_token_equals_leaf_cell(self):
        _, params = fresh_tree_params(4, 3, seed=1)
        x = random_embeddings(1, 4, seed=2)
        out = encode_dag(ngram_shape("pyramid", 1, 5), x, params)
        assert out.h.shape == (1, 3)
        leaf = tree_lstm_cell(ad.pick_row(x, 0), None, None, params)
        np.testing.assert_allclose(out.h.data[0], leaf.h.data)

    @pytest.mark.parametrize("kind", ALL_NGRAM_KINDS)
    @pytest.mark.parametrize("memory_update", ["hidden", "cell"])
    def test_vectorized_matches_reference(self, kind, memory_update):
        _, params = fresh_tree_params(5, 4, seed=3)
        for n in (1, 2, 5, 8):
            x = random_embeddings(n, 5, seed=n)
            fast = encode_dag(ngram_shape(kind, n, 3), x, params, memory_update)
            slow = encode_dag_reference(build_dag(kind, n, 3), x, params, memory_update)
            np.testing.assert_allclose(fast.h.data, slow.h.data, atol=1e-12)
            assert fast.spans == slow.spans

    @pytest.mark.parametrize("memory_update", ["hidden", "cell"])
    def test_tree_kind_matches_reference(self, memory_update):
        _, params = fresh_tree_params(5, 4, seed=3)
        rng = np.random.default_rng(11)
        for n in (1, 2, 4, 7):
            tokens = [f"t{i}" for i in range(n)]
            parse = random_bracketing(tokens, rng)
            dag = build_dag("tree", tokens, 7, parse=parse)
            x = random_embeddings(n, 5, seed=n + 50)
            fast = encode_dag(tree_shape(parse, tokens), x, params, memory_update)
            slow = encode_dag_reference(dag, x, params, memory_update)
            np.testing.assert_allclose(fast.h.data, slow.h.data, atol=1e-12)
            assert fast.spans == slow.spans

    def test_low_orders_agree_pyramid_vs_leftforest_but_order3_differs(self):
        # Orders 1 and 2 have identical sub-structures in every ngram kind;
        # at order 3 the decompositions genuinely differ.
        _, params = fresh_tree_params(5, 4, seed=9)
        x = random_embeddings(6, 5, seed=10)
        pyramid = encode_dag(ngram_shape("pyramid", 6, 3), x, params)
        leftforest = encode_dag(ngram_shape("leftforest", 6, 3), x, params)
        order12 = 6 + 5
        np.testing.assert_allclose(
            pyramid.h.data[:order12], leftforest.h.data[:order12], atol=1e-12
        )
        assert not np.allclose(pyramid.h.data[order12:], leftforest.h.data[order12:])

    def test_within_level_order_permutation_is_bit_identical(self):
        _, params = fresh_tree_params(4, 3, seed=13)
        x = random_embeddings(6, 4, seed=14)
        dag = build_dag("leftforest", 6, 4)
        rng = np.random.default_rng(0)
        permuted = [i for level in dag.levels for i in rng.permutation(level)]
        base = encode_dag_reference(dag, x, params)
        shuffled = encode_dag_reference(dag, x, params, node_order=permuted)
        assert np.array_equal(base.h.data, shuffled.h.data)

    def test_cell_invoked_exactly_once_per_node(self):
        _, params = fresh_tree_params(4, 3, seed=13)
        x = random_embeddings(5, 4, seed=15)
        dag = build_dag("pyramid", 5, 4)
        calls = []

        def counting_cell(*args, **kwargs):
            calls.append(1)
            return tree_lstm_cell(*args, **kwargs)

        encode_dag_reference(dag, x, params, cell=counting_cell)
        assert len(calls) == len(dag.nodes)

    @pytest.mark.parametrize("kind, memory_update, expected", [
        ("pyramid", "hidden", (10, 20, 35)),
        ("pyramid", "cell", (12, 26, 47)),
        ("leftforest", "hidden", (11, 21, 36)),
        ("leftforest", "cell", (12, 24, 42)),
        ("rightforest", "hidden", (11, 21, 36)),
        ("rightforest", "cell", (12, 24, 42)),
    ])
    def test_tape_records_per_kind(self, kind, memory_update, expected):
        # Every level costs a fixed set of slices, products and one cell; a
        # stray slice or projection shows up here before it shows in time.
        _, params = fresh_tree_params(5, 4, seed=3)
        counts = []
        for n, max_order in ((2, 7), (9, 4), (40, 7)):
            with Tape() as tape:
                encode_dag(ngram_shape(kind, n, max_order), random_embeddings(n, 5),
                           params, memory_update)
            counts.append(len(tape))
        assert tuple(counts) == expected

    def test_misaligned_embeddings_rejected(self):
        _, params = fresh_tree_params(4, 3)
        with pytest.raises(ad.ShapeError):
            encode_dag(ngram_shape("pyramid", 5, 2), random_embeddings(4, 4), params)

    @pytest.mark.parametrize("kind", [*ALL_NGRAM_KINDS, "tree"])
    @pytest.mark.parametrize("memory_update", ["hidden", "cell"])
    def test_encoder_gradients(self, kind, memory_update):
        store, params = fresh_tree_params(3, 3, seed=21)
        n = 5
        if kind == "tree":
            tokens = [f"t{i}" for i in range(n)]
            shape = tree_shape(random_bracketing(tokens, np.random.default_rng(2)), n)
        else:
            shape = ngram_shape(kind, n, 3)
        x = random_embeddings(n, 3, seed=22)

        def closure():
            return ad.sum_all(encode_dag(shape, x, params, memory_update).h)

        report = check_gradients(closure, store, max_coords=24)
        assert report.ok, report.per_tensor


class TestBiForest:
    def test_output_width_doubles_hidden(self):
        _, left = fresh_tree_params(4, 5, seed=1, prefix="left")
        _, right = fresh_tree_params(4, 5, seed=2, prefix="right")
        out = encode_bi_forest(random_embeddings(6, 4), left, right, max_order=3)
        assert out.h.shape[1] == 10
        assert len(out.spans) == 6 + 5 + 4

    def test_identical_params_make_unigram_halves_equal(self):
        # Unigram encoding never consults the branching direction, so with
        # shared weights the two halves agree on order-1 rows.
        store, left = fresh_tree_params(4, 5, seed=7, prefix="left")
        right = TreeLstmParams(
            w=Tensor(left.w.data.copy()),
            u_left=Tensor(left.u_left.data.copy()),
            u_right=Tensor(left.u_right.data.copy()),
            bias=Tensor(left.bias.data.copy()),
        )
        out = encode_bi_forest(random_embeddings(6, 4), left, right, max_order=3)
        np.testing.assert_allclose(out.h.data[:6, :5], out.h.data[:6, 5:])

    def test_gradients_through_concatenation(self):
        store = ParamStore()
        from multigram.encoders import init_tree_lstm_params

        rng = np.random.default_rng(31)
        left = init_tree_lstm_params(store, "left", 3, 3, rng)
        right = init_tree_lstm_params(store, "right", 3, 3, rng)
        x = random_embeddings(5, 3, seed=32)

        def closure():
            return ad.sum_all(encode_bi_forest(x, left, right, max_order=3).h)

        report = check_gradients(closure, store, max_coords=16)
        assert report.ok, report.per_tensor


class TestBiLstm:
    def test_single_token(self):
        _, params = fresh_bilstm_params(4, 6, seed=3)
        out = bilstm_encode(random_embeddings(1, 4, seed=4), params)
        assert out.h.shape == (1, 6)
        assert [s.order for s in out.spans] == [1]

    def test_reversal_swaps_direction_halves(self):
        store, params = fresh_bilstm_params(4, 6, seed=5)
        # Share the two directions' weights so reversal is an exact symmetry.
        params.backward.w.data = params.forward.w.data.copy()
        params.backward.u.data = params.forward.u.data.copy()
        params.backward.bias.data = params.forward.bias.data.copy()
        x = random_embeddings(5, 4, seed=6)
        x_rev = Tensor(x.data[::-1].copy())
        direction = 3
        fwd = bilstm_encode(x, params).h.data
        rev = bilstm_encode(x_rev, params).h.data
        for i in range(5):
            np.testing.assert_allclose(rev[i, :direction], fwd[4 - i, direction:], atol=1e-12)
            np.testing.assert_allclose(rev[i, direction:], fwd[4 - i, :direction], atol=1e-12)

    def test_batch_matches_per_document(self):
        _, params = fresh_bilstm_params(3, 4, seed=7)
        docs = [random_embeddings(4, 3, seed=s) for s in (8, 9, 10)]
        stacked = Tensor(np.concatenate([d.data for d in docs]))
        batch_h = bilstm_encode_batch(stacked, batch=3, length=4, params=params)
        for b, doc in enumerate(docs):
            solo = bilstm_encode(doc, params).h.data
            np.testing.assert_allclose(batch_h.data[b * 4 : (b + 1) * 4], solo, atol=1e-12)

    def test_batch_matches_step_at_a_time_reference(self):
        store, params = fresh_bilstm_params(3, 4, seed=13)
        rng = np.random.default_rng(14)
        for side in (params.forward, params.backward):
            side.bias.data = rng.normal(size=side.bias.shape)
        docs = [random_embeddings(5, 3, seed=s) for s in (15, 16, 17)]
        stacked = Tensor(np.concatenate([d.data for d in docs]))
        probe = Tensor(rng.normal(size=(15, 4)))

        def batch_h():
            return bilstm_encode_batch(stacked, batch=3, length=5, params=params)

        def reference_h():
            return ad.concat_rows([bilstm_reference(doc, params) for doc in docs])

        grads = []
        for encode in (batch_h, reference_h):
            store.zero_grad()
            with Tape() as tape:
                h = encode()
                tape.backward(ad.sum_all(ad.mul(h, probe)))
            grads.append((h.data, {name: t.grad for name, t in store.items()}))
        (fast, fast_grads), (slow, slow_grads) = grads
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)
        for name, grad in slow_grads.items():
            np.testing.assert_allclose(fast_grads[name], grad, rtol=0, atol=1e-12, err_msg=name)

    def test_forward_records_at_most_three_tape_entries_per_step_and_direction(self):
        _, params = fresh_bilstm_params(3, 4, seed=18)

        def records(length):
            with Tape() as tape:
                bilstm_encode_batch(random_embeddings(2 * length, 3), 2, length, params)
            return len(tape)

        # One more position is one more step in each direction.
        assert records(7) - records(6) <= 2 * 3

    def test_empty_text_rejected(self):
        _, params = fresh_bilstm_params(3, 4)
        with pytest.raises(ad.ShapeError):
            bilstm_encode_batch(Tensor(np.zeros((0, 3))), 1, 0, params)

    def test_odd_hidden_rejected(self):
        with pytest.raises(ValueError):
            init_bilstm_params(ParamStore(), "enc", 4, 5, np.random.default_rng(0))

    def test_gradients(self):
        store, params = fresh_bilstm_params(3, 4, seed=11)
        x = random_embeddings(5, 3, seed=12)

        def closure():
            return ad.sum_all(bilstm_encode(x, params).h)

        report = check_gradients(closure, store, max_coords=20)
        assert report.ok, report.per_tensor


class TestCnn:
    def test_order_one_is_per_word_affine_tanh(self):
        _, params = fresh_cnn_params(4, 3, max_order=1, seed=13)
        x = random_embeddings(5, 4, seed=14)
        out = cnn_encode(x, params)
        expected = np.tanh(x.data @ params.filters[0].data + params.biases[0].data)
        np.testing.assert_allclose(out.h.data, expected, atol=1e-12)

    def test_span_set_matches_leftforest(self):
        _, params = fresh_cnn_params(4, 3, max_order=3, seed=15)
        out = cnn_encode(random_embeddings(6, 4, seed=16), params)
        dag = build_dag("leftforest", 6, 3)
        assert out.spans == dag.spans

    def test_order_clamped_to_length(self):
        _, params = fresh_cnn_params(4, 3, max_order=5, seed=17)
        out = cnn_encode(random_embeddings(2, 4, seed=18), params)
        assert len(out.spans) == 2 + 1

    def test_gradients(self):
        store, params = fresh_cnn_params(3, 3, max_order=3, seed=19)
        x = random_embeddings(5, 3, seed=20)

        def closure():
            return ad.sum_all(cnn_encode(x, params).h)

        report = check_gradients(closure, store, max_coords=20)
        assert report.ok, report.per_tensor


class TestMacAccounting:
    def test_forest_instrumentation_matches_closed_form(self):
        _, params = fresh_tree_params(7, 6, seed=23)
        for kind, formula in (
            ("pyramid", pyramid_encoder_macs),
            ("leftforest", forest_encoder_macs),
            ("rightforest", forest_encoder_macs),
        ):
            for n, order in ((11, 4), (1, 3), (5, 1)):
                ad.reset_mac_count()
                encode_dag(ngram_shape(kind, n, order), random_embeddings(n, 7, seed=24), params)
                assert ad.mac_count() == formula(n, order, 7, 6), (kind, n, order)

    def test_tree_instrumentation_matches_closed_form(self):
        _, params = fresh_tree_params(7, 6, seed=23)
        tokens = [f"t{i}" for i in range(9)]
        parse = random_bracketing(tokens, np.random.default_rng(25))
        ad.reset_mac_count()
        encode_dag(tree_shape(parse, tokens), random_embeddings(9, 7, seed=26), params)
        assert ad.mac_count() == tree_encoder_macs(9, 7, 6)

    def test_cnn_instrumentation_matches_closed_form(self):
        _, params = fresh_cnn_params(7, 6, max_order=4, seed=27)
        ad.reset_mac_count()
        cnn_encode(random_embeddings(11, 7, seed=28), params)
        assert ad.mac_count() == cnn_encoder_macs(11, 4, 7, 6)

    def test_bilstm_instrumentation_matches_closed_form(self):
        _, params = fresh_bilstm_params(7, 6, seed=29)
        ad.reset_mac_count()
        bilstm_encode(random_embeddings(11, 7, seed=30), params)
        assert ad.mac_count() == bilstm_encoder_macs(11, 7, 6)

    def test_cnn_cost_grows_with_order_per_span(self):
        # order-k span costs k*e*d for the convolution but a constant
        # 10*d*d for the forest composition.
        e, d = 300, 100
        assert cnn_encoder_macs(1, 1, e, d) == e * d
        per_span_forest = 2 * 5 * d * d
        assert 7 * e * d > per_span_forest  # high orders favor reuse
        assert 2 * e * d < per_span_forest  # low orders favor convolution

    def test_forest_beats_cnn_at_reference_scale(self):
        # n=200 tokens, orders up to 7, e=300, d=100.  Leaves compute three
        # gates: 200 * 3 * 300 * 100 = 18M of the forest's MACs.
        forest = forest_encoder_macs(200, 7, 300, 100)
        cnn = cnn_encoder_macs(200, 7, 300, 100)
        assert forest == 86_950_000
        assert cnn == 164_640_000
        assert forest < cnn
        # Even without the shared unigram projection the pyramid variant
        # stays below the convolution bank at this scale.
        assert pyramid_encoder_macs(200, 7, 300, 100) == 135_900_000
