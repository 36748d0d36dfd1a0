"""Tests for the reverse-mode tape engine.

Gradient assertions use a central finite-difference oracle that is kept
independent of the engine: it only re-runs the forward computation at
perturbed parameter values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvbackend import autodiff as ad


def finite_difference(loss_fn, params, h=1e-5):
    """Central-difference gradients of loss_fn() w.r.t. each param tensor.

    loss_fn must read the current contents of the param arrays; we perturb
    each scalar entry in place and restore it.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            g.reshape(-1)[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic, numeric):
    return np.max(np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8))


class TestMatmul:
    def test_identity(self):
        m = ad.Tensor([[1.5, -2.0], [0.25, 7.0]])
        eye = ad.Tensor(np.eye(2))
        assert np.array_equal(ad.matmul(eye, m).value, m.value)

    def test_zero(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        z = ad.Tensor([[0.0], [0.0]])
        assert np.array_equal(ad.matmul(a, z).value, np.zeros((2, 1)))

    def test_hand_product(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[5.0], [6.0]])
        assert np.array_equal(ad.matmul(a, b).value, [[17.0], [39.0]])

    def test_shape_error_names_both_shapes(self):
        a = ad.Tensor(np.ones((2, 3)))
        b = ad.Tensor(np.ones((2, 3)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)


class TestSoftmaxMasked:
    def test_uniform_on_equal_logits(self):
        out = ad.softmax_masked(ad.Tensor([0.0, 0.0, 0.0]), [False, False, False])
        assert np.allclose(out.value, 1.0 / 3.0, atol=1e-15)

    def test_single_unmasked_entry(self):
        out = ad.softmax_masked(ad.Tensor([5.0, 1.0]), [False, True])
        assert np.array_equal(out.value, [[1.0, 0.0]])

    def test_unmasked_values(self):
        out = ad.softmax_masked(ad.Tensor([1.0, 2.0, 3.0]))
        expect = [0.09003057, 0.24472847, 0.66524096]
        assert np.allclose(out.value[0], expect, atol=1e-8)

    def test_all_masked_raises(self):
        with pytest.raises(ad.DegenerateMaskError):
            ad.softmax_masked(ad.Tensor([1.0, 2.0]), [True, True])

    def test_mask_length_checked(self):
        with pytest.raises(ad.ShapeError):
            ad.softmax_masked(ad.Tensor([1.0, 2.0]), [True])

    def test_stability_with_huge_logits(self):
        out = ad.softmax_masked(ad.Tensor([1000.0, 1000.0, -1000.0]))
        assert np.all(np.isfinite(out.value))
        assert np.allclose(out.value[0, :2], 0.5)

    @given(
        logits=st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_simplex_and_exact_zeros(self, logits, data):
        n = len(logits)
        mask = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(
                lambda m: not all(m)
            )
        )
        out = ad.softmax_masked(ad.Tensor(logits), mask).value[0]
        assert abs(out.sum() - 1.0) <= 1e-12
        for w, m in zip(out, mask):
            if m:
                assert w == 0.0
            else:
                assert w > 0.0


class TestSigmoid:
    def test_zero(self):
        assert ad.sigmoid(ad.Tensor(0.0)).item() == 0.5

    def test_one(self):
        assert ad.sigmoid(ad.Tensor(1.0)).item() == pytest.approx(
            0.7310585786300049, abs=1e-15
        )

    def test_symmetry_identity(self):
        x = 3.7
        lhs = ad.sigmoid(ad.Tensor(-x)).item()
        rhs = 1.0 - ad.sigmoid(ad.Tensor(x)).item()
        assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_stable_at_extremes(self):
        lo = ad.sigmoid(ad.Tensor(-700.0)).item()
        hi = ad.sigmoid(ad.Tensor(700.0)).item()
        assert 0.0 <= lo < 1e-200
        assert hi == 1.0

    @given(st.floats(-700, 700))
    def test_monotone(self, x):
        eps = 1e-3
        assert ad.sigmoid(ad.Tensor(x)).item() <= ad.sigmoid(ad.Tensor(x + eps)).item()


class TestBackward:
    def test_square(self):
        tape = ad.Tape()
        p = tape.parameter(3.0)
        loss = ad.mul(p, p)
        tape.backward(loss)
        assert p.grad[0, 0] == 6.0

    def test_sigmoid_derivative_at_zero(self):
        tape = ad.Tape()
        p = tape.parameter(0.0)
        loss = ad.sigmoid(p)
        tape.backward(loss)
        assert p.grad[0, 0] == 0.25

    def test_loss_not_on_tape(self):
        tape = ad.Tape()
        tape.parameter(1.0)
        with pytest.raises(ad.TrackingError):
            tape.backward(ad.Tensor(2.0))

    def test_two_backward_passes_bitwise_identical(self):
        tape = ad.Tape()
        rng = np.random.default_rng(0)
        w = tape.parameter(rng.standard_normal((3, 3)))
        x = ad.Tensor(rng.standard_normal((1, 3)))
        y = ad.matmul(x, w)
        s = ad.softmax_masked(y, [False, True, False])
        loss = ad.matmul(s, ad.transpose(ad.sigmoid(y)))
        tape.backward(loss)
        first = w.grad.copy()
        tape.backward(loss)
        assert np.array_equal(first, w.grad)

    def test_unused_parameter_gets_zero_buffer(self):
        tape = ad.Tape()
        p = tape.parameter(2.0)
        q = tape.parameter(np.ones((2, 2)))
        loss = ad.mul(p, p)
        tape.backward(loss)
        assert q.grad.shape == (2, 2)
        assert np.array_equal(q.grad, np.zeros((2, 2)))

    def test_composite_matches_finite_differences(self):
        # exercise every op in one graph and check against the FD oracle
        rng = np.random.default_rng(7)
        tape = ad.Tape()
        W = tape.parameter(rng.standard_normal((4, 4)) * 0.3)
        b = tape.parameter(rng.standard_normal((1, 4)) * 0.3)
        v = tape.parameter(rng.standard_normal((1, 4)) * 0.3)
        c = tape.parameter(0.7)
        x = ad.Tensor(rng.standard_normal((3, 4)))
        mask = [False, True, False]

        def forward(params):
            W_, b_, v_, c_ = params
            h = ad.tanh(ad.add(ad.matmul(ad.zero_rows(x.detach(), mask), W_), b_))
            scores = ad.transpose(ad.matmul(h, ad.transpose(v_)))
            alpha = ad.softmax_masked(scores, mask)
            pooled = ad.matmul(alpha, h)
            num = ad.matmul(pooled, ad.transpose(v_))
            den = ad.mul(ad.norm(pooled), ad.norm(v_))
            cos = ad.div(num, den)
            p = ad.sigmoid(ad.add(ad.mul(c_, cos), ad.affine(c_, 0.5, -0.2)))
            return ad.affine(ad.log(ad.clamp(p, 1e-12, 1.0 - 1e-12)), -1.0)

        loss = forward([W, b, v, c])
        tape.backward(loss)
        analytic = [W.grad.copy(), b.grad.copy(), v.grad.copy(), c.grad.copy()]

        detached = [t.detach() for t in (W, b, v, c)]
        fd = finite_difference(lambda: forward(detached).item(), [W, b, v, c])
        for a, n in zip(analytic, fd):
            assert relative_error(a, n) < 1e-4


    def test_stacked_ops_match_finite_differences(self):
        # gather, reshape, stacked and flat matmul over 3 and 4 axes, logits
        # broadcast against per-set softmax masks, row_dot, row norms and
        # broadcasting in one graph
        rng = np.random.default_rng(11)
        tape = ad.Tape()
        W = tape.parameter(rng.standard_normal((3, 3)) * 0.5)
        u = tape.parameter(rng.standard_normal((1, 3)) * 0.5)
        c = tape.parameter(0.8)
        X = ad.Tensor(rng.standard_normal((5, 3)))
        q = ad.Tensor(rng.standard_normal((4, 3)))
        members = np.array([[0, 1, 2], [2, 3, 4], [4, 0, 1]])  # rows shared by groups
        # two sets per group, each under its own mask
        masked = np.array([[[False, True, False], [True, False, False]],
                           [[False, False, False], [False, False, True]],
                           [[True, False, False], [True, True, False]]])
        pair_set = np.array([0, 3, 5, 1])

        def forward(params):
            W_, u_, c_ = params
            P = ad.gather(ad.add(ad.matmul(X, W_), u_), members)
            A = ad.softmax_masked(ad.reshape(ad.matmul(P, ad.transpose(P)), (3, 1, 3, 3)),
                                  masked[:, :, None, :])
            O = ad.zero_rows(ad.tanh(ad.matmul(A, ad.reshape(P, (3, 1, 3, 3)))), masked)
            alpha = ad.softmax_masked(ad.row_dot(ad.add(O, u_), u_), masked)
            pooled = ad.matmul(ad.reshape(alpha, (3, 2, 1, 3)), O)
            h = ad.gather(ad.reshape(pooled, (6, 3)), pair_set)
            cos = ad.div(ad.row_dot(q, h), ad.mul(ad.norm(q), ad.norm(h)))
            p = ad.sigmoid(ad.add(ad.mul(c_, cos), ad.sub(c_, ad.Tensor(0.3))))
            return ad.row_dot(ad.affine(ad.log(p), -1.0), ad.Tensor([1.0, 0.0, 2.0, 1.0]))

        loss = forward([W, u, c])
        tape.backward(loss)
        analytic = [W.grad.copy(), u.grad.copy(), c.grad.copy()]
        detached = [t.detach() for t in (W, u, c)]
        fd = finite_difference(lambda: forward(detached).item(), [W, u, c])
        for a, n in zip(analytic, fd):
            assert relative_error(a, n) < 1e-4


class TestBatchedOps:
    def test_gather_accumulates_repeats(self):
        tape = ad.Tape()
        x = tape.parameter(np.arange(6.0).reshape(3, 2))
        out = ad.gather(x, [[0, 2], [0, 0]])
        assert np.array_equal(out.value, [[[0, 1], [4, 5]], [[0, 1], [0, 1]]])
        weights = ad.Tensor([[0.5, 0.5, 0.25, 0.25, 1.0, 1.0, 2.0, 2.0]])
        tape.backward(ad.row_dot(ad.reshape(out, (1, 8)), weights))
        # row 0 picked three times, row 1 never
        assert np.array_equal(x.grad, [[3.5, 3.5], [0.0, 0.0], [0.25, 0.25]])

    def test_scatter_rows_writes_rows_picked_once_and_sums_repeats(self):
        g = np.array([[-0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        # each row picked at most once, in order: written as it is, -0.0 too
        once = ad.scatter_rows(g, [0, 2, 3], (4, 2))
        assert once.tobytes() == np.array([[-0.0, 1.0], [0, 0], [2, 3], [4, 5]]).tobytes()
        # a repeat in order, and one out of order, are summed
        assert np.array_equal(ad.scatter_rows(g, [1, 1, 3], (4, 2)), [[0, 0], [2, 4], [0, 0], [4, 5]])
        assert np.array_equal(ad.scatter_rows(g, [3, 1, 3], (4, 2)), [[0, 0], [2, 3], [0, 0], [4, 6]])

    def test_reshape_round_trips_values_and_gradient(self):
        tape = ad.Tape()
        x = tape.parameter(np.arange(12.0).reshape(3, 4))
        y = ad.reshape(x, (1, 3, 2, 2))
        assert y.shape == (1, 3, 2, 2) and np.array_equal(y.value.reshape(3, 4), x.value)
        tape.backward(ad.row_dot(ad.reshape(ad.mul(y, y), (1, 12)), ad.Tensor(np.ones((1, 12)))))
        assert np.array_equal(x.grad, 2.0 * x.value)

    def test_logits_broadcast_against_larger_mask(self):
        rng = np.random.default_rng(2)
        tape = ad.Tape()
        logits = tape.parameter(rng.standard_normal((2, 3, 3)))
        masked = np.array([[[False, True, False], [True, False, False]],
                           [[False, False, False], [False, False, True]]])
        y = ad.softmax_masked(ad.reshape(logits, (2, 1, 3, 3)), masked[:, :, None, :])
        assert y.shape == (2, 2, 3, 3)
        for g in range(2):
            for r in range(2):
                one = ad.softmax_masked(ad.Tensor(logits.value[g]), masked[g, r]).value
                assert np.array_equal(y.value[g, r], one)
        # the gradient sums back over the sets that share a group's logits
        weights = ad.Tensor(rng.standard_normal((1, 36)))
        tape.backward(ad.row_dot(ad.reshape(y, (1, 36)), weights))
        w = weights.value.reshape(2, 2, 3, 3)
        want = (y.value * (w - (w * y.value).sum(-1, keepdims=True))).sum(axis=1)
        assert np.allclose(logits.grad, want, rtol=1e-14, atol=1e-15)

    def test_per_set_mask_gives_exact_zeros(self):
        logits = ad.Tensor(np.random.default_rng(0).standard_normal((2, 3, 3)))
        masked = np.array([[False, True, False], [True, False, False]])
        out = ad.softmax_masked(logits, masked[:, None, :]).value
        assert np.all(out[0, :, 1] == 0.0) and np.all(out[1, :, 0] == 0.0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-15)

    def test_degenerate_set_raises(self):
        with pytest.raises(ad.DegenerateMaskError):
            ad.softmax_masked(ad.Tensor(np.zeros((2, 2))), [[False, False], [True, True]])

    def test_scalar_broadcast_sums_gradient(self):
        tape = ad.Tape()
        c = tape.parameter(2.0)
        x = ad.Tensor(np.arange(4.0).reshape(2, 2))
        tape.backward(ad.row_dot(ad.row_dot(ad.mul(c, x), ad.Tensor([[1.0, 1.0]])),
                                 ad.Tensor([0.5, 0.5])))
        assert c.grad.shape == (1, 1) and c.grad[0, 0] == 3.0

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2))))
        with pytest.raises(ad.ShapeError):
            ad.softmax_masked(ad.Tensor(np.ones((2, 3, 3))), np.zeros((4, 1, 3), dtype=bool))
        with pytest.raises(ad.ShapeError):
            ad.Tensor(np.ones((1, 1, 1, 1, 1)))


class TestDeterminism:
    def test_forward_ops_bitwise_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        r1 = ad.matmul(ad.Tensor(a), ad.Tensor(b)).value
        r2 = ad.matmul(ad.Tensor(a), ad.Tensor(b)).value
        assert np.array_equal(r1, r2)
        s1 = ad.softmax_masked(ad.Tensor(a[0]), None).value
        s2 = ad.softmax_masked(ad.Tensor(a[0]), None).value
        assert np.array_equal(s1, s2)

    def test_clear_keeps_parameters(self):
        tape = ad.Tape()
        p = tape.parameter(1.0)
        ad.mul(p, p)
        tape.clear()
        loss = ad.mul(p, p)
        tape.backward(loss)
        assert p.grad[0, 0] == 2.0
