"""Graph generators, the circulant embedding, and edge-list I/O."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kurasim
from kurasim.graphs import (
    AdjacencyMatrix,
    GeneratingVector,
    circulant,
    gen_complete,
    gen_erdos_renyi,
    gen_ring,
    gen_watts_strogatz,
    read_edge_list,
    ring_generating_vector,
    write_edge_list,
)


# ---------------------------------------------------------------- validation

def test_adjacency_rejects_asymmetric():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        AdjacencyMatrix(n=3, entries=m, kind="custom", params={})


def test_adjacency_rejects_self_loops():
    m = np.eye(3)
    with pytest.raises(ValueError):
        AdjacencyMatrix(n=3, entries=m, kind="custom", params={})


def test_adjacency_rejects_non_binary():
    m = np.zeros((2, 2))
    m[0, 1] = m[1, 0] = 0.5
    with pytest.raises(ValueError):
        AdjacencyMatrix(n=2, entries=m, kind="custom", params={})


def test_adjacency_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        AdjacencyMatrix(n=3, entries=np.zeros((2, 2)), kind="custom", params={})


# ---------------------------------------------------------------------- ring

def test_ring_n5_k1_first_row():
    g = gen_ring(5, 1)
    assert g.entries[0].tolist() == [0.0, 1.0, 0.0, 0.0, 1.0]
    assert g.kind == "ring"
    assert g.params == {"k": 1}


def test_ring_n3_k1_is_triangle():
    g = gen_ring(3, 1)
    assert np.array_equal(g.entries, 1.0 - np.eye(3))


def test_ring_n200_k100_is_complete():
    g = gen_ring(200, 100)
    assert np.array_equal(g.entries, 1.0 - np.eye(200))


@given(st.integers(min_value=2, max_value=48).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n // 2))))
def test_ring_degree_law(nk):
    n, k = nk
    g = gen_ring(n, k)
    deg = g.degrees()
    assert np.all(deg == deg[0])
    # 2k neighbour offsets collapse onto n-1 distinct nodes when 2k >= n-1
    assert deg[0] == min(2 * k, n - 1)


def test_ring_invalid_params():
    with pytest.raises(ValueError):
        gen_ring(1, 1)
    with pytest.raises(ValueError):
        gen_ring(5, 0)
    with pytest.raises(ValueError):
        gen_ring(5, 3)


def test_complete_equals_max_radius_ring():
    for n in range(2, 65):
        assert np.array_equal(gen_complete(n).entries, gen_ring(n, n // 2).entries)
    assert gen_complete(4).kind == "complete"


# -------------------------------------------------------------- erdos-renyi

def test_er_p0_empty_p1_complete():
    assert gen_erdos_renyi(10, 0.0, 1).edge_count == 0
    assert np.array_equal(gen_erdos_renyi(10, 1.0, 1).entries, 1.0 - np.eye(10))


def test_er_deterministic_in_seed():
    a = gen_erdos_renyi(50, 0.3, 7)
    b = gen_erdos_renyi(50, 0.3, 7)
    c = gen_erdos_renyi(50, 0.3, 8)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_er_edge_count_statistics():
    # n=200, p=0.2: mean = 3980, per-draw sigma = sqrt(19900*0.2*0.8) ~ 56.4
    counts = np.array([gen_erdos_renyi(200, 0.2, s).edge_count for s in range(100)])
    assert abs(counts.mean() - 3980.0) < 4 * 56.4 / np.sqrt(100)
    assert counts.std() < 2 * 56.4


def test_er_invalid_p():
    with pytest.raises(ValueError):
        gen_erdos_renyi(10, -0.1, 0)
    with pytest.raises(ValueError):
        gen_erdos_renyi(10, 1.5, 0)


# ----------------------------------------------------------- watts-strogatz

def test_ws_q0_is_ring():
    for seed in (0, 3):
        g = gen_watts_strogatz(20, 3, 0.0, seed)
        assert np.array_equal(g.entries, gen_ring(20, 3).entries)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=6, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(min_value=1, max_value=n // 2 - 1),
                        st.floats(min_value=0.0, max_value=1.0),
                        st.integers(min_value=0, max_value=2**32))))
def test_ws_preserves_edge_count(args):
    n, k, q, seed = args
    g = gen_watts_strogatz(n, k, q, seed)
    assert g.edge_count == n * k
    assert np.array_equal(g.entries, g.entries.T)
    assert np.all(np.diag(g.entries) == 0.0)


def test_ws_full_rewiring_stays_simple():
    g = gen_watts_strogatz(20, 2, 1.0, 5)
    assert g.edge_count == 40
    assert np.all(np.diag(g.entries) == 0.0)
    assert set(np.unique(g.entries)) <= {0.0, 1.0}


def test_ws_rejects_half_ring():
    # rewiring needs absent edges to move onto; k = n//2 leaves none for even n
    with pytest.raises(ValueError):
        gen_watts_strogatz(10, 5, 0.1, 0)


def test_ws_deterministic_in_seed():
    a = gen_watts_strogatz(30, 3, 0.4, 11)
    b = gen_watts_strogatz(30, 3, 0.4, 11)
    assert np.array_equal(a.entries, b.entries)


# ------------------------------------------------------- circulant embedding

def test_generating_vector_examples():
    assert ring_generating_vector(5, 1).c.tolist() == [0.0, 1.0, 0.0, 0.0, 1.0]
    assert ring_generating_vector(4, 2).c.tolist() == [0.0, 1.0, 1.0, 1.0]
    assert ring_generating_vector(6, 2).c.tolist() == [0.0, 1.0, 1.0, 0.0, 1.0, 1.0]


def test_circulant_reconstructs_every_ring():
    for n in range(2, 65):
        for k in range(1, n // 2 + 1):
            m = circulant(ring_generating_vector(n, k))
            assert np.array_equal(m, gen_ring(n, k).entries), (n, k)


def test_circulant_column_rule():
    # column j of the matrix is the generating vector rotated down by j
    c = GeneratingVector(c=np.array([0.0, 1.0, 0.0, 0.0]))
    m = circulant(c)
    for j in range(4):
        assert np.array_equal(m[:, j], np.roll(c.c, j)), j


# ------------------------------------------------------------- edge-list I/O

def test_edge_list_exact_bytes(tmp_path):
    path = tmp_path / "ring.txt"
    write_edge_list(gen_ring(5, 1), path)
    assert path.read_text() == "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"


def test_edge_list_round_trip(tmp_path):
    g = gen_watts_strogatz(40, 4, 0.3, 9)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    h = read_edge_list(path)
    assert h.n == g.n
    assert np.array_equal(h.entries, g.entries)
    assert h.kind == "custom"


def test_edge_list_rejects_malformed(tmp_path):
    for body in ("3 1\n0 1\n1 2\n",      # count mismatch
                 "3 2\n0 1\n0 1\n",      # duplicate edge
                 "3 1\n1 0\n",           # not i < j
                 "3 1\n0 3\n",           # node out of range
                 "3 1\n0 0\n",           # self loop
                 "junk\n"):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(ValueError):
            read_edge_list(path)


def test_er_deterministic_across_processes():
    script = ("import hashlib\n"
              "from kurasim.graphs import gen_erdos_renyi\n"
              "g = gen_erdos_renyi(60, 0.25, 13)\n"
              "print(int(g.entries.sum()))\n"
              "print(hashlib.sha256(g.entries.tobytes()).hexdigest())\n")
    # the child imports the same kurasim as this process, however it was found
    env = {**os.environ, "PYTHONPATH": str(Path(kurasim.__file__).parents[1])}
    runs = [subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    here = gen_erdos_renyi(60, 0.25, 13)
    assert runs[0].splitlines()[0] == str(int(here.entries.sum()))
