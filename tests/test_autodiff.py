import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigram import autodiff as ad
from multigram.autodiff import (
    NumericError,
    ParamStore,
    ShapeError,
    Tape,
    Tensor,
)

from gradcheck import GradCheckReport, check_gradients

RNG = np.random.default_rng(12345)


def finite_difference(f, tensor, epsilon=1e-6):
    """Independent central-difference gradient of scalar f() wrt tensor."""
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        plus = float(f().data)
        flat[i] = orig - epsilon
        minus = float(f().data)
        flat[i] = orig
        grad[i] = (plus - minus) / (2 * epsilon)
    return grad.reshape(tensor.shape)


def analytic_gradient(f, tensor):
    tensor.grad = None
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    return np.zeros(tensor.shape) if tensor.grad is None else tensor.grad


def assert_matches_fd(f, tensors, tol=1e-6):
    for tensor in tensors:
        analytic = analytic_gradient(f, tensor)
        numeric = finite_difference(f, tensor)
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        out = ad.sigmoid(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.data, [0.25] * 4)

    def test_matvec_identity(self):
        out = ad.matvec(Tensor(np.eye(3)), Tensor([2.0, -1.0, 5.0]))
        np.testing.assert_allclose(out.data, [2.0, -1.0, 5.0])

    def test_weighted_sum_hand_expansion(self):
        # sum_i alpha_i h_i with alpha=[.3,.7], rows=I2 -> [.3,.7]
        out = ad.weighted_sum(Tensor([0.3, 0.7]), Tensor([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(out.data, [0.3, 0.7])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))
        with pytest.raises(ShapeError):
            ad.matvec(Tensor(np.eye(2)), Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_cross_entropy_uniform(self):
        loss = ad.cross_entropy(Tensor(np.zeros(5)), 2)
        assert loss.data == pytest.approx(np.log(5.0))

    def test_cross_entropy_gold_out_of_range(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(Tensor(np.zeros(3)), 3)


class TestBackwardBasics:
    def test_square_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.dot(x, x))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_sum_of_sigmoid_at_zero(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.sigmoid(x)))
        np.testing.assert_allclose(x.grad, [0.25] * 4)

    def test_fanout_accumulates(self):
        x = Tensor([1.5], requires_grad=True)
        with Tape() as tape:
            y = ad.add(x, x)
            tape.backward(ad.sum_all(y))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_value_used_m_times_accumulates_m_contributions(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            total = x
            for _ in range(4):
                total = ad.add(total, x)  # x appears 5 times in total
            tape.backward(ad.sum_all(total))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.sigmoid(x)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_backward_before_forward(self):
        x = Tensor([1.0], requires_grad=True)
        loss = ad.dot(x, x)  # built with no tape active
        with Tape() as tape:
            with pytest.raises(ValueError):
                tape.backward(loss)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([2.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                tape.backward(ad.dot(x, x))
        np.testing.assert_allclose(x.grad, [8.0])

    def test_backward_seed_scales(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.dot(x, x), seed=0.5)
        np.testing.assert_allclose(x.grad, [2.0])

    def test_dropped_temporaries_give_the_same_gradients_as_kept_ones(self):
        # Records keep keys, not tensors, so the temporaries below are freed
        # during the forward pass and CPython hands their ids to the leaves
        # made after them; a leaf must not pass for a freed intermediate.
        x = Tensor(RNG.normal(size=6), requires_grad=True)

        def forward(kept):
            h, leaves = x, [x]
            for i in range(100):
                t = ad.tanh(h)
                u = ad.mul(t, ad.scale(h, 0.3))
                h = ad.add(ad.scale(h, 0.5), u)
                leaf = Tensor(np.full(6, 0.01 * i), requires_grad=True)
                h = ad.add(h, leaf)
                leaves.append(leaf)
                if kept is not None:
                    kept.extend((t, u, h))
            return ad.sum_all(h), leaves

        grads = []
        for kept in (None, []):
            x.grad = None
            with Tape() as tape:
                loss, leaves = forward(kept)
                tape.backward(loss)
            grads.append([leaf.grad for leaf in leaves])
        assert all(g is not None for g in grads[0])
        for dropped, held in zip(*grads):
            np.testing.assert_array_equal(dropped, held)


class TestTapeRetention:
    """A record holds only what its gradient formula reads; every other
    intermediate array is freed once the forward pass drops it."""

    def forward(self, x, w, bias, mem, other, refs):
        pre = ad.linear_rows(x, w, bias)
        h, c = ad.tree_cell_gates(pre, (mem,))  # c is not used, as in hidden mode
        joined = ad.concat_rows([h, other])
        refs.extend(weakref.ref(t.data) for t in (pre, c, joined))
        return ad.sum_all(ad.tanh(joined))

    def test_unread_arrays_die_while_the_tape_lives_and_backward_is_exact(self):
        d, e, rows = 3, 4, 5
        x = Tensor(RNG.normal(size=(rows, e)), requires_grad=True)
        gates = ad.gate_count(1)
        w = Tensor(RNG.normal(size=(gates * d, e)) * 0.5, requires_grad=True)
        bias = Tensor(RNG.normal(size=gates * d), requires_grad=True)
        mem = Tensor(RNG.normal(size=(rows, d)), requires_grad=True)
        other = Tensor(RNG.normal(size=(2, d)), requires_grad=True)
        inputs = [x, w, bias, mem, other]
        refs = []
        for t in inputs:
            t.grad = None
        with Tape() as tape:
            loss = self.forward(*inputs, refs)
        gc.collect()
        assert len(refs) == 3
        assert [r() for r in refs] == [None] * 3  # pre-activation, c, concatenation
        tape.backward(loss)
        for t in inputs:
            numeric = finite_difference(lambda: self.forward(*inputs, []), t)
            np.testing.assert_allclose(t.grad, numeric, rtol=1e-6, atol=1e-6)


class TestBackwardRelease:
    """Backward releases each record once its pull has run, so what the
    pulls kept is freed during the pass, not when the tape is dropped."""

    def chain(self, x, steps):
        h = x
        for _ in range(steps):
            h = ad.tanh(h)  # tanh's pull keeps its output
        return ad.sum_all(ad.sigmoid(h))

    def test_arrays_the_pulls_kept_die_in_backward_and_len_still_counts(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            loss = self.chain(x, 3)
        kept = [weakref.ref(cell.cell_contents)
                for _, _, pull in tape._records for cell in pull.__closure__ or ()
                if isinstance(cell.cell_contents, np.ndarray)]
        assert len(kept) == 4 and all(ref() is not None for ref in kept)
        assert len(tape) == 5
        tape.backward(loss)
        assert [ref() for ref in kept] == [None] * 4
        assert len(tape) == 5
        expected = x.grad.copy()
        x.grad = None
        with Tape() as again:
            again.backward(self.chain(x, 3))
        np.testing.assert_array_equal(x.grad, expected)

    def test_a_second_backward_over_released_records_is_refused(self):
        x = Tensor(RNG.normal(size=3), requires_grad=True)
        with Tape() as tape:
            loss = self.chain(x, 2)
            tape.backward(loss)
            with pytest.raises(ValueError, match="released"):
                tape.backward(loss)

    def test_handoff_runs_once_after_its_share_of_the_records(self):
        x = Tensor(RNG.normal(size=3), requires_grad=True)
        with Tape() as tape:
            loss = self.chain(x, 8)  # 10 records
        released_at_signal = []
        tape.backward(loss, handoff=(
            0.5, lambda: released_at_signal.append(tape._records.count(None))
        ))
        assert released_at_signal == [5]

    def test_a_primitive_on_another_thread_records_nothing_on_this_tape(self):
        x = Tensor(RNG.normal(size=3), requires_grad=True)
        with Tape() as tape:
            loss = self.chain(x, 1)
            recorded = len(tape)
            elsewhere = []
            worker = threading.Thread(target=lambda: elsewhere.append(ad.tanh(x)))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert len(tape) == recorded
            assert not elsewhere[0].requires_grad
            tape.backward(loss)
        np.testing.assert_allclose(
            x.grad, finite_difference(lambda: self.chain(x, 1), x), rtol=1e-6, atol=1e-6
        )


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=12))
def test_softmax_normalizes(values):
    out = ad.softmax(Tensor(values))
    assert np.all(out.data >= 0)
    assert abs(out.data.sum() - 1.0) <= 1e-9


class TestPrimitiveGradients:
    """Every primitive against an independent finite-difference oracle."""

    def test_add_mul_scale(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        assert_matches_fd(lambda: ad.sum_all(ad.mul(ad.add(a, b), b)), [a, b])
        assert_matches_fd(lambda: ad.sum_all(ad.scale(a, -2.5)), [a])

    def test_matvec_matmul(self):
        w = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(RNG.normal(size=4), requires_grad=True)
        assert_matches_fd(lambda: ad.sum_all(ad.matvec(w, x)), [w, x])
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        assert_matches_fd(lambda: ad.sum_all(ad.tanh(ad.matmul(a, b))), [a, b])

    def test_linear_rows(self):
        x = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        bias = Tensor(RNG.normal(size=2), requires_grad=True)
        assert_matches_fd(
            lambda: ad.sum_all(ad.sigmoid(ad.linear_rows(x, w, bias))), [x, w, bias]
        )

    def test_activations(self):
        x = Tensor(RNG.normal(size=6), requires_grad=True)
        assert_matches_fd(lambda: ad.sum_all(ad.sigmoid(x)), [x])
        assert_matches_fd(lambda: ad.sum_all(ad.tanh(x)), [x])

    def test_softmax_weighted(self):
        scores = Tensor(RNG.normal(size=5), requires_grad=True)
        rows = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        assert_matches_fd(
            lambda: ad.sum_all(ad.weighted_sum(ad.softmax(scores), rows)),
            [scores, rows],
        )

    def test_concat_family(self):
        a = Tensor(RNG.normal(size=3), requires_grad=True)
        b = Tensor(RNG.normal(size=2), requires_grad=True)
        assert_matches_fd(lambda: ad.sum_all(ad.sigmoid(ad.concat([a, b]))), [a, b])
        m1 = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        m2 = Tensor(RNG.normal(size=(1, 3)), requires_grad=True)
        assert_matches_fd(
            lambda: ad.sum_all(ad.tanh(ad.concat_rows([m1, m2]))), [m1, m2]
        )
        m3 = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        assert_matches_fd(
            lambda: ad.sum_all(ad.tanh(ad.concat_cols([m1, m3]))), [m1, m3]
        )

    def test_split_last(self):
        x = Tensor(RNG.normal(size=(3, 6)), requires_grad=True)

        def f():
            a, b, c = ad.split_last(x, 3)
            return ad.sum_all(ad.mul(ad.sigmoid(a), ad.add(b, c)))

        assert_matches_fd(f, [x])

    def test_split_with_unused_output(self):
        x = Tensor(RNG.normal(size=(2, 4)), requires_grad=True)

        def f():
            used, _unused = ad.split_last(x, 2)
            return ad.sum_all(ad.tanh(used))

        assert_matches_fd(f, [x])

    def test_slices_and_lookup(self):
        x = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        assert_matches_fd(lambda: ad.sum_all(ad.tanh(ad.slice_rows(x, 1, 4))), [x])
        v = Tensor(RNG.normal(size=5), requires_grad=True)
        assert_matches_fd(lambda: ad.sum_all(ad.tanh(ad.slice_rows(v, 1, 4))), [v])
        assert_matches_fd(lambda: ad.sum_all(ad.sigmoid(ad.pick_row(x, 2))), [x])
        idx = np.array([0, 2, 2, 4])  # duplicate index exercises scatter-add
        assert_matches_fd(lambda: ad.sum_all(ad.tanh(ad.row_lookup(x, idx))), [x])

    def test_stack_rows(self):
        vs = [Tensor(RNG.normal(size=3), requires_grad=True) for _ in range(4)]
        assert_matches_fd(lambda: ad.sum_all(ad.tanh(ad.stack_rows(vs))), vs)

    def test_conv_ngram(self):
        x = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(RNG.normal(size=(9, 2)), requires_grad=True)  # order 3
        bias = Tensor(RNG.normal(size=2), requires_grad=True)
        assert_matches_fd(
            lambda: ad.sum_all(ad.tanh(ad.conv_ngram(x, w, bias, 3))), [x, w, bias]
        )

    @pytest.mark.parametrize("memories", [0, 1, 2])
    def test_tree_cell_gates(self, memories):
        # 3 + k gate blocks of width 3: a leaf, a chain-LSTM step, a binary node.
        pre = Tensor(RNG.normal(size=(4, 3 * (3 + memories))), requires_grad=True)
        mems = [Tensor(RNG.normal(size=(4, 3)), requires_grad=True) for _ in range(memories)]
        watched = [pre, *mems]

        def f_h():
            h, _ = ad.tree_cell_gates(pre, mems)
            return ad.sum_all(h)

        def f_both():
            h, c = ad.tree_cell_gates(pre, mems)
            return ad.sum_all(ad.add(h, ad.tanh(c)))

        assert_matches_fd(f_h, watched)
        assert_matches_fd(f_both, watched)

    @pytest.mark.parametrize("memories", [0, 1, 2])
    def test_tree_cell_gates_matches_unfused_ops(self, memories):
        # Blocks: input, output, candidate, then one forget gate per memory.
        pre = Tensor(RNG.normal(size=(3, 2 * (3 + memories))))
        mems = [Tensor(RNG.normal(size=(3, 2))) for _ in range(memories)]
        h, c = ad.tree_cell_gates(pre, mems)
        gi, go, gu, *forgets = ad.split_last(pre, 3 + memories)
        c_ref = ad.mul(ad.sigmoid(gi), ad.tanh(gu))
        for gf, mem in zip(forgets, mems):
            c_ref = ad.add(c_ref, ad.mul(ad.sigmoid(gf), mem))
        h_ref = ad.mul(ad.sigmoid(go), ad.tanh(c_ref))
        assert np.array_equal(c.data, c_ref.data)
        assert np.array_equal(h.data, h_ref.data)

    def test_tree_cell_gates_rejects_leaf_width_mismatch(self):
        with pytest.raises(ShapeError, match="multiple of 3"):
            ad.tree_cell_gates(Tensor(np.zeros((2, 10))), ())

    def test_segment_ops(self):
        scores = Tensor(RNG.normal(size=7), requires_grad=True)
        rows = Tensor(RNG.normal(size=(7, 3)), requires_grad=True)
        bounds = [0, 3, 7]

        def f():
            alpha = ad.segment_softmax(scores, bounds)
            pooled = ad.segment_weighted_sum(alpha, rows, bounds)
            return ad.sum_all(ad.tanh(pooled))

        assert_matches_fd(f, [scores, rows])

    def test_cross_entropy_varieties(self):
        logits = Tensor(RNG.normal(size=4), requires_grad=True)
        assert_matches_fd(lambda: ad.cross_entropy(logits, 1), [logits])
        logit_rows = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        golds = np.array([0, 3, 2])
        assert_matches_fd(lambda: ad.cross_entropy_rows(logit_rows, golds), [logit_rows])


class TestSegmentSoftmaxNormalization:
    def test_each_segment_sums_to_one(self):
        scores = Tensor(RNG.normal(size=10) * 10)
        out = ad.segment_softmax(scores, [0, 4, 10])
        assert abs(out.data[:4].sum() - 1.0) <= 1e-9
        assert abs(out.data[4:].sum() - 1.0) <= 1e-9


class TestDropout:
    def test_requires_probability_in_range(self):
        x = Tensor(np.ones(4))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                ad.dropout(x, bad, train=True, rng=np.random.default_rng(0))

    def test_eval_mode_is_identity(self):
        x = Tensor(RNG.normal(size=(3, 3)))
        assert ad.dropout(x, 0.5, train=False) is x

    def test_train_mode_preserves_expectation(self):
        # Monte-Carlo over >= 1e4 masks: mean of dropped values within 2%.
        x = Tensor(np.ones(64))
        rng = np.random.default_rng(7)
        total = np.zeros(64)
        trials = 10_000
        for _ in range(trials):
            total += ad.dropout(x, 0.2, train=True, rng=rng).data
        np.testing.assert_allclose(total / trials, np.ones(64), rtol=0.02)

    def test_gradient_flows_through_mask(self):
        x = Tensor(RNG.normal(size=8), requires_grad=True)
        rng_master = np.random.default_rng(3)

        # Same mask every call so the closure is deterministic.
        def f():
            return ad.sum_all(ad.tanh(ad.dropout(x, 0.25, True, np.random.default_rng(3))))

        assert_matches_fd(f, [x])

    def test_tape_keeps_a_boolean_mask_not_a_float_one(self):
        x = Tensor(np.ones((500, 200)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = ad.sum_all(ad.dropout(x, 0.5, True, np.random.default_rng(0)))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # A float64 mask, or the dropped-out output, would hold x.nbytes;
        # the boolean mask holds an eighth of it.
        assert x.data.nbytes / 8 <= held < x.data.nbytes / 4
        tape.backward(loss)
        kept = np.random.default_rng(0).random(x.shape) >= 0.5
        np.testing.assert_array_equal(x.grad, kept / 0.5)


class TestCheckGradients:
    def test_affine_sigmoid_layer(self):
        store = ParamStore()
        w = store.add("w", RNG.normal(size=(3, 4)) * 0.4)
        b = store.add("b", RNG.normal(size=3) * 0.1)
        x = Tensor(RNG.normal(size=4))

        def closure():
            return ad.sum_all(ad.sigmoid(ad.add(ad.matvec(w, x), b)))

        report = check_gradients(closure, store, epsilon=1e-3)
        assert report.ok
        assert report.max_error < 1e-4

    def test_empty_params(self):
        report = check_gradients(lambda: ad.sum_all(Tensor([1.0])), [])
        assert report.per_tensor == {}
        assert report.ok

    def test_detects_wrong_gradient(self):
        store = ParamStore()
        w = store.add("w", RNG.normal(size=(2, 2)))
        x = Tensor(RNG.normal(size=2))

        def closure():
            # Detach-like bug: value depends on w but grads never reach it.
            frozen = Tensor(w.data)
            return ad.sum_all(ad.matvec(frozen, x))

        report = check_gradients(closure, store)
        assert not report.ok


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            store.add("w", np.zeros(2))

    def test_zero_grad_and_state_roundtrip(self):
        store = ParamStore()
        w = store.add("w", np.arange(4.0))
        w.grad = np.ones(4)
        store.zero_grad()
        assert w.grad is None
        state = store.state_dict()
        w.data[:] = 0
        store.load_state_dict(state)
        np.testing.assert_allclose(w.data, np.arange(4.0))

    def test_load_shape_mismatch_names_tensor(self):
        store = ParamStore()
        store.add("encoder.w", np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="encoder.w"):
            store.load_state_dict({"encoder.w": np.zeros((3, 2))})


def _float32_cases():
    """(name, loss_fn, watched) triples: loss_fn maps float32 tensors to a
    scalar loss through one primitive; watched are the tensors whose
    gradients are checked."""
    def t(*shape):
        return Tensor(RNG.normal(size=shape).astype(np.float32), requires_grad=True)

    x, w, b, v, m = t(4, 3), t(2, 3), t(2), t(3), t(3, 2)
    s, pre, mem, leaf_pre = t(5), t(4, 10), t(4, 2), t(4, 6)
    return [
        ("add", lambda: ad.sum_all(ad.add(x, x)), [x]),
        ("mul", lambda: ad.sum_all(ad.mul(x, x)), [x]),
        ("scale", lambda: ad.sum_all(ad.scale(x, 0.5)), [x]),
        ("sigmoid", lambda: ad.sum_all(ad.sigmoid(x)), [x]),
        ("tanh", lambda: ad.sum_all(ad.tanh(x)), [x]),
        ("dot", lambda: ad.dot(v, v), [v]),
        ("matvec", lambda: ad.sum_all(ad.matvec(w, v)), [w, v]),
        ("matmul", lambda: ad.sum_all(ad.matmul(x, m)), [x, m]),
        ("linear_rows", lambda: ad.sum_all(ad.linear_rows(x, w, b, addend=t(4, 2))), [x, w, b]),
        ("weighted_sum", lambda: ad.sum_all(ad.weighted_sum(t(4), x)), [x]),
        ("conv_ngram", lambda: ad.sum_all(ad.conv_ngram(x, t(6, 2), b, 2)), [x, b]),
        ("tree_cell_gates", lambda: ad.sum_all(ad.tree_cell_gates(pre, (mem, mem))[0]), [pre, mem]),
        ("tree_cell_gates_leaf", lambda: ad.sum_all(ad.tree_cell_gates(leaf_pre, ())[1]), [leaf_pre]),
        ("concat", lambda: ad.sum_all(ad.concat([v, b])), [v, b]),
        ("concat_rows", lambda: ad.sum_all(ad.concat_rows([x, x])), [x]),
        ("concat_cols", lambda: ad.sum_all(ad.concat_cols([x, x])), [x]),
        ("split_last", lambda: ad.sum_all(ad.split_last(pre, 5)[1]), [pre]),
        ("slice_rows", lambda: ad.sum_all(ad.slice_rows(x, 1, 3)), [x]),
        ("pick_row", lambda: ad.sum_all(ad.pick_row(x, 2)), [x]),
        ("row_lookup", lambda: ad.sum_all(ad.row_lookup(x, [0, 2, 2])), [x]),
        ("slice_rows_vector", lambda: ad.sum_all(ad.slice_rows(v, 1, 3)), [v]),
        ("stack_rows", lambda: ad.sum_all(ad.stack_rows([v, v])), [v]),
        ("softmax", lambda: ad.dot(ad.softmax(v), v), [v]),
        ("softmax_rows", lambda: ad.sum_all(ad.mul(ad.softmax_rows(x), x)), [x]),
        ("segment_softmax", lambda: ad.dot(ad.segment_softmax(s, [0, 2, 5]), t(5)), [s]),
        ("segment_weighted_sum",
         lambda: ad.sum_all(ad.segment_weighted_sum(t(4), x, [0, 1, 4])), [x]),
        ("cross_entropy", lambda: ad.cross_entropy(v, 1), [v]),
        ("cross_entropy_rows", lambda: ad.cross_entropy_rows(x, [0, 2, 1, 1]), [x]),
        ("dropout", lambda: ad.sum_all(ad.dropout(x, 0.5, True, np.random.default_rng(0))), [x]),
    ]


@pytest.mark.parametrize(
    "name,loss_fn,watched", _float32_cases(), ids=[case[0] for case in _float32_cases()]
)
def test_float32_primitive_never_upcasts(name, loss_fn, watched):
    for tensor in watched:
        tensor.grad = None
    with Tape() as tape:
        loss = loss_fn()
        assert loss.data.dtype == np.float32, name
        tape.backward(loss)
    for tensor in watched:
        assert tensor.grad is not None and tensor.grad.dtype == np.float32, name


def test_tensor_dtype_policy():
    assert Tensor([1, 2]).data.dtype == np.float64
    assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
    assert Tensor(np.ones(2, dtype=np.int32)).data.dtype == np.float64


def test_softmax_normalization_tolerance_scales_with_dtype():
    # float32 mass over a few thousand units misses 1 by far more than 1e-9.
    scores = Tensor(np.random.default_rng(5).normal(size=5000).astype(np.float32))
    out = ad.softmax(scores)
    assert out.data.dtype == np.float32
    assert abs(float(out.data.sum()) - 1.0) <= 1024 * np.finfo(np.float32).eps


def test_mac_counter_tracks_linear_algebra():
    ad.reset_mac_count()
    ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))))
    assert ad.mac_count() == 2 * 3 * 5
    ad.linear_rows(Tensor(np.ones((4, 3))), Tensor(np.ones((2, 3))))
    assert ad.mac_count() == 2 * 3 * 5 + 4 * 3 * 2
    ad.reset_mac_count()
    assert ad.mac_count() == 0
