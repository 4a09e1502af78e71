"""Tests for the tape-based autograd engine."""

import threading

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled

from conftest import gradcheck


class TestConstruction:
    def test_dtype_coercion(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_from_tensor(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        np.testing.assert_array_equal(a.data, b.data)

    def test_zeros_ones(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4.0

    def test_repr(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True, name="w")
        assert "w" in repr(t) and "requires_grad" in repr(t)

    def test_detach_and_item(self):
        t = Tensor([5.0], requires_grad=True)
        assert not t.detach().requires_grad
        assert Tensor(3.0).item() == 3.0


class TestBackwardMechanics:
    def test_scalar_backward_default_grad(self):
        t = Tensor([2.0, 3.0], requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0, 6.0])

    def test_nonscalar_needs_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (t * 2).backward()

    def test_backward_on_leaf_raises(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError, match="non-grad"):
            t.backward()

    def test_grad_accumulates_over_reuse(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t + t).sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0])

    def test_diamond_graph(self):
        t = Tensor([3.0], requires_grad=True)
        a = t * 2
        b = t * 5
        (a + b).sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_deep_chain_no_recursion_error(self):
        t = Tensor([1.0], requires_grad=True)
        x = t
        for _ in range(3000):
            x = x + 1.0
        x.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_no_grad_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = t * 2
        assert is_grad_enabled()
        assert out.node is None and not out.requires_grad

    def test_no_grad_is_thread_local(self):
        """A ``no_grad`` in one thread must not drop another thread's
        tape nodes (rank threads run side by side)."""
        inside, recorded = threading.Event(), threading.Event()
        seen = {}

        def eval_thread():
            with no_grad():
                inside.set()
                recorded.wait(timeout=10)
                seen["eval"] = (Tensor([1.0], requires_grad=True) * 2).node

        def train_thread():
            inside.wait(timeout=10)
            t = Tensor([1.0], requires_grad=True)
            seen["enabled"] = is_grad_enabled()
            out = (t * 3).sum()
            out.backward()
            seen["train"] = out.node
            seen["grad"] = t.grad
            recorded.set()

        threads = [threading.Thread(target=eval_thread),
                   threading.Thread(target=train_thread)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
        assert not any(th.is_alive() for th in threads)
        assert inside.is_set() and recorded.is_set()
        assert seen["enabled"] and seen["train"] is not None
        np.testing.assert_array_equal(seen["grad"], [3.0])
        assert seen["eval"] is None
        assert is_grad_enabled()

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None


class TestBroadcasting:
    def test_add_broadcast_grad(self, rng):
        gradcheck(lambda a, b: (a + b).sum(),
                  [rng.standard_normal((3, 4)), rng.standard_normal(4)],
                  rng)

    def test_mul_scalar_broadcast(self, rng):
        gradcheck(lambda a, b: a * b,
                  [rng.standard_normal((2, 3)),
                   rng.standard_normal((1, 3))], rng)

    def test_div_broadcast(self, rng):
        gradcheck(lambda a, b: a / b,
                  [rng.standard_normal((3, 2)),
                   rng.standard_normal((3, 1)) + 3.0], rng)


class TestArithmeticGradients:
    def test_sub(self, rng):
        gradcheck(lambda a, b: a - b,
                  [rng.standard_normal((3,)), rng.standard_normal((3,))],
                  rng)

    def test_rsub_rdiv(self):
        t = Tensor([2.0], requires_grad=True)
        (5.0 - t).sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0])
        t2 = Tensor([2.0], requires_grad=True)
        (4.0 / t2).sum().backward()
        np.testing.assert_allclose(t2.grad, [-1.0])

    def test_neg_pow(self, rng):
        gradcheck(lambda a: (-a) ** 3.0,
                  [rng.standard_normal((4,)) + 2.0], rng)

    def test_matmul_2d(self, rng):
        gradcheck(lambda a, b: a @ b,
                  [rng.standard_normal((3, 4)),
                   rng.standard_normal((4, 2))], rng)

    def test_matmul_batched(self, rng):
        gradcheck(lambda a, b: a @ b,
                  [rng.standard_normal((2, 3, 4)),
                   rng.standard_normal((2, 4, 5))], rng)

    def test_matmul_vector(self, rng):
        gradcheck(lambda a, b: a @ b,
                  [rng.standard_normal((3, 4)),
                   rng.standard_normal((4,))], rng)


class TestReductionsAndShaping:
    def test_sum_axis_keepdims(self, rng):
        gradcheck(lambda a: a.sum(axis=1, keepdims=True),
                  [rng.standard_normal((3, 4))], rng)

    def test_sum_multi_axis(self, rng):
        gradcheck(lambda a: a.sum(axis=(0, 2)),
                  [rng.standard_normal((2, 3, 4))], rng)

    def test_mean(self, rng):
        gradcheck(lambda a: a.mean(axis=0),
                  [rng.standard_normal((5, 2))], rng)

    def test_reshape(self, rng):
        gradcheck(lambda a: a.reshape(6, 2) @ Tensor(np.eye(2)),
                  [rng.standard_normal((3, 4))], rng)

    def test_transpose(self, rng):
        gradcheck(lambda a: a.transpose(1, 0, 2).sum(axis=0),
                  [rng.standard_normal((2, 3, 4))], rng)

    def test_swapaxes(self, rng):
        gradcheck(lambda a: a.swapaxes(0, 1).sum(axis=1),
                  [rng.standard_normal((3, 4))], rng)

    def test_getitem_slice(self, rng):
        gradcheck(lambda a: a[1:3], [rng.standard_normal((5, 2))], rng)

    def test_getitem_fancy_repeated(self, rng):
        idx = np.array([0, 2, 2, 1])
        gradcheck(lambda a: a[idx], [rng.standard_normal((4, 3))], rng)


class TestNonlinearities:
    def test_exp_log_sqrt(self, rng):
        x = np.abs(rng.standard_normal((4,))) + 0.5
        gradcheck(lambda a: a.exp(), [x], rng)
        gradcheck(lambda a: a.log(), [x], rng)
        gradcheck(lambda a: a.sqrt(), [x], rng)

    def test_tanh_sigmoid(self, rng):
        x = rng.standard_normal((5,))
        gradcheck(lambda a: a.tanh(), [x], rng)
        gradcheck(lambda a: a.sigmoid(), [x], rng)

    def test_relu(self, rng):
        x = rng.standard_normal((20,)) + 0.05  # avoid the kink
        gradcheck(lambda a: a.relu(), [x], rng)

    def test_silu(self, rng):
        gradcheck(lambda a: a.silu(), [rng.standard_normal((6,))], rng)

    def test_silu_matches_x_sigmoid(self, rng):
        x = Tensor(rng.standard_normal((10,)))
        np.testing.assert_allclose(x.silu().data,
                                   (x * x.sigmoid()).data, rtol=1e-6)
