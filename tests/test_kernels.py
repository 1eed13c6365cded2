from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paptrack.perception import gated_costs
from paptrack.queries import ANY_CLASS

from oracles import gated_costs_loop

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, *path_first) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter with `path_first` and then src/ on its path."""
    path = [*map(str, path_first), str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def random_instance(rng, nq=64, nm=20, n_classes=7):
    q_xy = rng.uniform(-30, 30, size=(nq, 2))
    m_xy = rng.uniform(-30, 30, size=(nm, 2))
    q_cls = rng.integers(-1, n_classes, size=nq).astype(np.int64)  # -1 = any class
    m_cls = rng.integers(0, n_classes, size=nm).astype(np.int64)
    return q_xy, q_cls, m_xy, m_cls


def test_numpy_path_costs_and_count():
    q_xy = np.array([[0.0, 0.0], [10.0, 0.0]])
    q_cls = np.array([0, ANY_CLASS], dtype=np.int64)
    m_xy = np.array([[3.0, 4.0]])
    m_cls = np.array([1], dtype=np.int64)
    costs, n_eval = gated_costs(q_xy, q_cls, m_xy, m_cls, 20.0)
    assert np.isinf(costs[0, 0])  # class 0 query never evaluates a class-1 measurement
    assert costs[1, 0] == pytest.approx(np.hypot(7.0, 4.0))
    assert n_eval == 1


def locked_rows(layout: str, q_cls: np.ndarray) -> np.ndarray:
    """`q_cls` with its class-locked rows (class >= 0) laid out as `layout` says; the others are ANY_CLASS."""
    out = q_cls.copy()
    if layout == "head":  # as assemble_queries lays them out: predicted rows first
        k = len(out) // 4
        out[:k] = np.maximum(out[:k], 0)
        out[k:] = ANY_CLASS
    elif layout == "scattered":  # not a prefix: the first row is ANY_CLASS, the second locked
        out[0], out[1] = ANY_CLASS, 0
    elif layout == "none":
        out[:] = ANY_CLASS
    elif layout == "all":
        out = np.maximum(out, 0)
    return out


@pytest.mark.parametrize("layout", ["head", "scattered", "none", "all"])
def test_kernel_matches_loop_oracle_exactly(layout):
    rng = np.random.default_rng(17)
    for _ in range(10):
        q_xy, q_cls, m_xy, m_cls = random_instance(rng)
        q_cls = locked_rows(layout, q_cls)
        m_xy[-1] = np.nan  # a NaN distance is out of the gate
        gate = float(rng.uniform(1.0, 40.0))
        c_np, n_np = gated_costs(q_xy, q_cls, m_xy, m_cls, gate)
        c_loop, n_loop = gated_costs_loop(q_xy, q_cls, m_xy, m_cls, gate)
        assert n_np == n_loop
        assert c_np.tobytes() == c_loop.tobytes()  # bit for bit, including inf placement
        assert np.isinf(c_np[:, -1]).all()


def test_kernel_and_loop_oracle_agree_on_empty_inputs():
    empty_xy = np.zeros((0, 2))
    empty_cls = np.zeros(0, dtype=np.int64)
    c_np, n_np = gated_costs(empty_xy, empty_cls, empty_xy, empty_cls, 5.0)
    c_loop, n_loop = gated_costs_loop(empty_xy, empty_cls, empty_xy, empty_cls, 5.0)
    assert c_np.shape == c_loop.shape == (0, 0)
    assert n_np == n_loop == 0


@pytest.mark.parametrize("first", ["scipy.optimize", "paptrack.kernels"])
def test_solver_is_scipy_optimize_linear_sum_assignment_whichever_is_imported_first(first):
    second = "paptrack.kernels" if first == "scipy.optimize" else "scipy.optimize"
    code = (f"import {first}, {second}, sys; "
            "print(sys.modules['paptrack.kernels'].linear_sum_assignment is sys.modules['scipy.optimize'].linear_sum_assignment)")
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_missing_solver_extension_raises_import_error_naming_the_directory(tmp_path):
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")  # a scipy package without optimize/_lsap
    out = run_python("import paptrack.kernels", tmp_path)
    assert out.returncode == 1
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith(f"ImportError: no compiled scipy.optimize._lsap extension in {tmp_path / 'scipy' / 'optimize'} (scipy ")
