from __future__ import annotations

import numpy as np
import pytest

from paptrack import kernels

from oracles import gated_costs_loop


def random_instance(rng, nq=64, nm=20, n_classes=7):
    q_xy = rng.uniform(-30, 30, size=(nq, 2))
    m_xy = rng.uniform(-30, 30, size=(nm, 2))
    q_cls = rng.integers(-1, n_classes, size=nq).astype(np.int64)  # -1 = any class
    m_cls = rng.integers(0, n_classes, size=nm).astype(np.int64)
    return q_xy, q_cls, m_xy, m_cls


def test_numpy_path_costs_and_count():
    q_xy = np.array([[0.0, 0.0], [10.0, 0.0]])
    q_cls = np.array([0, kernels.ANY_CLASS], dtype=np.int64)
    m_xy = np.array([[3.0, 4.0]])
    m_cls = np.array([1], dtype=np.int64)
    costs, n_eval = kernels.gated_costs(q_xy, q_cls, m_xy, m_cls, 20.0)
    assert np.isinf(costs[0, 0])  # class 0 query never evaluates a class-1 measurement
    assert costs[1, 0] == pytest.approx(np.hypot(7.0, 4.0))
    assert n_eval == 1


def test_kernel_matches_loop_oracle_exactly():
    rng = np.random.default_rng(17)
    for _ in range(10):
        q_xy, q_cls, m_xy, m_cls = random_instance(rng)
        gate = float(rng.uniform(1.0, 40.0))
        c_np, n_np = kernels.gated_costs(q_xy, q_cls, m_xy, m_cls, gate)
        c_loop, n_loop = gated_costs_loop(q_xy, q_cls, m_xy, m_cls, gate)
        assert n_np == n_loop
        assert np.array_equal(c_np, c_loop)  # bitwise, including inf placement


def test_kernel_and_loop_oracle_agree_on_empty_inputs():
    empty_xy = np.zeros((0, 2))
    empty_cls = np.zeros(0, dtype=np.int64)
    c_np, n_np = kernels.gated_costs(empty_xy, empty_cls, empty_xy, empty_cls, 5.0)
    c_loop, n_loop = gated_costs_loop(empty_xy, empty_cls, empty_xy, empty_cls, 5.0)
    assert c_np.shape == c_loop.shape == (0, 0)
    assert n_np == n_loop == 0
