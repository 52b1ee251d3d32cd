"""Graph generators, the circulant embedding, and edge-list I/O."""

import hashlib
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kurasim
from kurasim import graphs
from kurasim.graphs import (
    AdjacencyMatrix,
    circulant,
    gen_complete,
    gen_erdos_renyi,
    gen_ring,
    gen_watts_strogatz,
    read_edge_list,
    ring_generating_vector,
    write_edge_list,
)
from kurasim.seeding import rng_for


# ---------------------------------------------------------------- validation

def test_adjacency_rejects_asymmetric():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        AdjacencyMatrix.from_dense(n=3, entries=m)


def test_adjacency_rejects_self_loops():
    m = np.eye(3)
    with pytest.raises(ValueError):
        AdjacencyMatrix.from_dense(n=3, entries=m)


def test_adjacency_rejects_non_binary():
    m = np.zeros((2, 2))
    m[0, 1] = m[1, 0] = 0.5
    with pytest.raises(ValueError):
        AdjacencyMatrix.from_dense(n=2, entries=m)


def test_adjacency_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        AdjacencyMatrix.from_dense(n=3, entries=np.zeros((2, 2)))


def test_edges_are_stored_sorted_and_checked():
    g = AdjacencyMatrix(4, [2, 0, 1], [3, 3, 2])
    assert g.rows.tolist() == [0, 1, 2] and g.cols.tolist() == [3, 2, 3]
    assert g.edge_count == 3 and g.degrees().tolist() == [1, 1, 2, 2]
    assert g.entries is g.entries and not g.entries.flags.writeable
    for rows, cols, match in (([0, 1, 0], [1, 2, 1], r"duplicate edge \(0, 1\)"),
                              ([1], [1], r"edge \(1, 1\) violates"),
                              ([0], [4], r"edge \(0, 4\) violates"),
                              ([0.0], [1.0], "integer"),
                              ([0, 1], [1], "equal length")):
        with pytest.raises(ValueError, match=match):
            AdjacencyMatrix(4, rows, cols)


def _dense_ring(n, k):
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :])
    d = np.minimum(d, n - d)
    return ((d >= 1) & (d <= k)).astype(float)


def _dense_erdos_renyi(n, p, seed):
    iu, ju = np.triu_indices(n, k=1)
    hit = rng_for(seed, "erdos_renyi").random(iu.size) < p
    m = np.zeros((n, n))
    m[iu[hit], ju[hit]] = m[ju[hit], iu[hit]] = 1.0
    return m


def _dense_watts_strogatz(n, k, q, seed):
    # the reference rewiring loop on a dense matrix: the neighbour-set
    # generator must make the same draws and pick the same nodes
    rng = rng_for(seed, "watts_strogatz")
    m = _dense_ring(n, k)
    for i in range(n):
        for off in range(1, k + 1):
            j = (i + off) % n
            if rng.random() >= q:
                continue
            m[i, j] = m[j, i] = 0.0
            candidates = np.flatnonzero(m[i] == 0.0)
            candidates = candidates[candidates != i]
            t = candidates[rng.integers(candidates.size)]
            m[i, t] = m[t, i] = 1.0
    return m


_SEEDS = st.integers(min_value=0, max_value=2**32)
_FAMILIES = st.one_of(
    st.integers(min_value=2, max_value=40).flatmap(lambda n: st.tuples(
        st.just(gen_ring), st.just(_dense_ring),
        st.tuples(st.just(n), st.integers(min_value=1, max_value=n // 2)))),
    st.tuples(st.just(gen_complete), st.just(lambda n: 1.0 - np.eye(n)),
              st.tuples(st.integers(min_value=2, max_value=40))),
    st.tuples(st.just(gen_erdos_renyi), st.just(_dense_erdos_renyi),
              st.tuples(st.integers(min_value=2, max_value=40),
                        st.floats(min_value=0.0, max_value=1.0), _SEEDS)),
    st.integers(min_value=6, max_value=40).flatmap(lambda n: st.tuples(
        st.just(gen_watts_strogatz), st.just(_dense_watts_strogatz),
        st.tuples(st.just(n), st.integers(min_value=1, max_value=n // 2 - 1),
                  st.floats(min_value=0.0, max_value=1.0), _SEEDS))),
)


@settings(max_examples=80, deadline=None)
@given(_FAMILIES)
def test_edge_arrays_match_dense_construction(case):
    gen, dense_gen, args = case
    g, dense = gen(*args), dense_gen(*args)
    assert np.array_equal(g.entries, dense)
    assert g.edge_count == int(dense.sum()) // 2
    assert np.array_equal(g.degrees(), dense.sum(axis=1))
    h = AdjacencyMatrix.from_dense(g.n, dense)
    assert np.array_equal(h.rows, g.rows) and np.array_equal(h.cols, g.cols)


# ------------------------------------------------------------------ product

@settings(max_examples=150, deadline=None)
@given(_FAMILIES, st.booleans(), st.sampled_from([(), (3,)]), st.booleans(), _SEEDS)
@example((gen_erdos_renyi, _dense_erdos_renyi, (30, 0.02, 1)), False, (3,), True, 0)
@example((gen_erdos_renyi, _dense_erdos_renyi, (12, 0.0, 0)), True, (), False, 0)
def test_edge_product_matches_dense_product(case, from_file, batch, complex_, seed):
    gen, dense_gen, args = case
    g, dense = gen(*args), dense_gen(*args)
    if from_file:
        with tempfile.TemporaryDirectory() as tmp:
            write_edge_list(g, Path(tmp) / "g.edges")
            g = read_edge_list(Path(tmp) / "g.edges")
    rng = rng_for(seed, "test_product")
    x = rng.standard_normal((*batch, g.n))
    if complex_:
        x = x + 1j * rng.standard_normal(x.shape)
    want = x @ dense
    # the edge arrays, with whatever density: entries is never built
    with mock.patch.object(graphs, "_DENSE_NS", math.inf):
        assert g.sparse
        got = g.product(x)
    assert g._entries is None
    # both sum a node's neighbours, in some order, so they differ by less
    # than degree * eps times the sum of the magnitudes (per real part);
    # an isolated node's sum is exactly 0
    bound = g.degrees() * np.finfo(float).eps * ((np.abs(x.real) + np.abs(x.imag)) @ dense)
    assert got.shape == x.shape and got.dtype == want.dtype
    assert np.all(np.abs(got - want) <= bound)
    with mock.patch.object(graphs, "_DENSE_NS", 0.0):
        assert not g.sparse
        assert np.all(np.abs(g.product(x) - want) <= bound)


def test_product_route_follows_density():
    # figure 4's graphs take dense products; the large-graph WS edge list does not
    for seed in range(3):
        assert not gen_erdos_renyi(200, 0.2, seed).sparse
        assert not gen_watts_strogatz(200, 10, 0.1, seed).sparse
        assert gen_watts_strogatz(1500, 10, 0.1, seed).sparse
    empty = gen_erdos_renyi(2000, 0.0, 0)
    assert empty.sparse and not empty.product(np.ones((2, 2000), dtype=complex)).any()
    assert empty._entries is None
    with pytest.raises(ValueError, match="node count"):
        empty.product(np.ones(1999))
    with pytest.raises(ValueError, match="node count"):
        empty.product(np.ones((1, 1, 2000)))


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


def test_ring_edges_match_dense_ring_for_every_radius():
    for n in range(2, 41):
        for k in range(1, n // 2 + 1):
            g = gen_ring(n, k)
            rows, cols = np.nonzero(np.triu(_dense_ring(n, k), 1))
            assert np.array_equal(g.rows, rows) and np.array_equal(g.cols, cols), (n, k)


def test_sorted_int_edges_are_kept_without_a_copy():
    rows, cols = np.triu_indices(50, 1)
    g = AdjacencyMatrix(50, rows, cols)
    assert np.shares_memory(g.rows, rows) and np.shares_memory(g.cols, cols)


def test_ring_generation_memory_is_bounded():
    tracemalloc.start()
    try:
        g = gen_ring(200_000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two edge arrays, the constructor's int64 sort key and a few bool
    # masks: measured 1.56 times the edge bytes (5.6 with the old temporaries)
    assert peak <= 1.75 * (g.rows.nbytes + g.cols.nbytes)


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


@pytest.mark.parametrize("block", [1, 7, 64, graphs._ER_BLOCK_PAIRS])
def test_er_edges_match_one_draw_over_every_pair(block):
    # the whole-stream oracle: one draw over all pairs in np.triu_indices
    # order; blocks of 1 and 7 pairs split rows, a block of 64 joins them
    for n, p, seed in [(2, 0.5, 0), (5, 1.0, 1), (13, 0.3, 2), (40, 0.05, 3),
                       (41, 0.5, 4), (60, 0.0, 5), (97, 0.2, 6)]:
        rows, cols = np.triu_indices(n, k=1)
        hit = rng_for(seed, "erdos_renyi").random(rows.size) < p
        with mock.patch.object(graphs, "_ER_BLOCK_PAIRS", block):
            g = gen_erdos_renyi(n, p, seed)
        assert np.array_equal(g.rows, rows[hit]) and np.array_equal(g.cols, cols[hit])


def test_er_edge_count_statistics():
    # n=200, p=0.2: mean = 3980, per-draw sigma = sqrt(19900*0.2*0.8) ~ 56.4
    counts = np.array([gen_erdos_renyi(200, 0.2, s).edge_count for s in range(100)])
    assert abs(counts.mean() - 3980.0) < 4 * 56.4 / np.sqrt(100)
    assert counts.std() < 2 * 56.4


def test_er_generation_memory_is_bounded():
    tracemalloc.start()
    try:
        g = gen_erdos_renyi(8000, 5 / 8000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block of about 2^18 pairs at a time (2 MiB of draws), then the
    # edges: measured 2.7 MiB, where one draw over all 32 million pairs
    # peaked at 763 MiB
    assert g.edge_count == 20149
    assert peak <= 4 * 2**20 + 8 * (g.rows.nbytes + g.cols.nbytes)


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
    assert ring_generating_vector(5, 1).tolist() == [0.0, 1.0, 0.0, 0.0, 1.0]
    assert ring_generating_vector(4, 2).tolist() == [0.0, 1.0, 1.0, 1.0]
    assert ring_generating_vector(6, 2).tolist() == [0.0, 1.0, 1.0, 0.0, 1.0, 1.0]


def test_circulant_reconstructs_every_ring():
    for n in range(2, 65):
        for k in range(1, n // 2 + 1):
            m = circulant(ring_generating_vector(n, k))
            assert np.array_equal(m, gen_ring(n, k).entries), (n, k)


def test_generating_vector_of_generated_graphs_is_the_one_of_their_parameters():
    # bit for bit, so every closed form of a generated graph keeps its bytes
    for n in range(2, 41):
        for k in range(1, n // 2 + 1):
            c = gen_ring(n, k).generating_vector()
            assert c.dtype == float and np.array_equal(c, ring_generating_vector(n, k)), (n, k)
        assert np.array_equal(gen_complete(n).generating_vector(),
                              np.append(0.0, np.ones(n - 1))), n
        if n >= 4:  # the widest ring Watts-Strogatz takes
            k = n // 2 - 1
            assert np.array_equal(gen_watts_strogatz(n, k, 0.0, 3).generating_vector(),
                                  ring_generating_vector(n, k)), n


def _offset_graph(n, offsets, modular):
    """Edges i < j whose offset j - i, or (modular) n - (j - i) too, is in offsets."""
    i, j = np.triu_indices(n, k=1)
    d = j - i
    hit = np.isin(d, offsets) | (np.isin(n - d, offsets) if modular else False)
    return AdjacencyMatrix(n, i[hit], j[hit])


@st.composite
def _graphs_near_circulant(draw):
    """Random graphs, circulant graphs, and offset sets not closed under j -> n - j."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "modular", "linear"]))
    if kind == "random":
        pairs = n * (n - 1) // 2
        hit = np.array(draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs)), dtype=bool)
        i, j = np.triu_indices(n, k=1)
        return AdjacencyMatrix(n, i[hit], j[hit])
    offsets = draw(st.sets(st.integers(1, max(1, n - 1)))) if n > 1 else set()
    return _offset_graph(n, sorted(offsets), kind == "modular")


@settings(max_examples=300, deadline=None)
@given(_graphs_near_circulant())
@example(AdjacencyMatrix(1, [], []))
@example(AdjacencyMatrix(9, [], []))
@example(_offset_graph(10, [1, 4, 7, 8], modular=False))  # 2m = n*sum(c), yet not circulant
def test_generating_vector_exactly_when_circulant(graph):
    # circulant: A[i, j] = A[i + 1, j + 1], indices mod n
    a = graph.entries
    rotation_invariant = np.array_equal(a, np.roll(a, (1, 1), axis=(0, 1)))
    c = graph.generating_vector()
    assert (c is not None) == rotation_invariant
    if c is not None:
        assert np.array_equal(circulant(c), a)


def test_circulant_column_rule():
    # column j of the matrix is the generating vector rotated down by j
    c = np.array([0.0, 1.0, 0.0, 0.0])
    m = circulant(c)
    for j in range(4):
        assert np.array_equal(m[:, j], np.roll(c, j)), j


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
    for body, match in (
            ("3 1\n0 1\n1 2\n", "header promises 1 edges, file has 2"),  # count mismatch
            ("3 2\n0 1\n0 1\n", r"duplicate edge \(0, 1\)"),
            ("3 1\n1 0\n", r"edge \(1, 0\) violates 0 <= i < j < n=3"),  # not i < j
            ("3 1\n0 3\n", r"edge \(0, 3\) violates"),  # node out of range
            ("3 1\n0 -1\n", r"edge \(0, -1\) violates"),
            ("3 1\n0 0\n", r"edge \(0, 0\) violates"),  # self loop
            ("junk\n", "malformed edge-list header 'junk'"),
            ("3 1 1\n0 1\n", "malformed edge-list header '3 1 1'"),
            ("3 1\n0 1 2\n", "malformed edge line '0 1 2'"),  # three tokens
            ("3 2\n0 1\n2\n", "malformed edge line '2'"),
            ("3 1\n0 x\n", "malformed edge line '0 x'"),
            ("3 1\n0 99999999999999999999\n", "malformed edge line"),
            ("\n  \n", "empty edge-list file")):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match=match):
            read_edge_list(path)


@pytest.mark.parametrize("body, match", [
    ("5 4\n0 1\n2 9\n0 1\n1 x\n", r"edge \(2, 9\) violates"),
    ("5 4\n0 1\n1 x\n0 1\n2 9\n", "malformed edge line '1 x'"),
    ("5 4\n0 1\n0 1\n1 x\n2 9\n", r"duplicate edge \(0, 1\)"),
    ("5 4\n3 4\n0 1\n3 4\n4 2\n", r"duplicate edge \(3, 4\)"),
    ("5 4\n1 2\n0 1\n1 2\n0 1\n", r"duplicate edge \(1, 2\)"),
    ("5 3\n4 2\n0 1\n0 1\n", r"edge \(4, 2\) violates"),
], ids=["range", "malformed", "duplicate", "unsorted-duplicate", "first-repeat", "range-first"])
def test_edge_list_reports_first_bad_line(tmp_path, body, match):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=match):
        read_edge_list(path)


def test_edge_list_skips_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("\n4 2\n\n2 3\n   \n0 1\n\n")
    g = read_edge_list(path)
    assert (g.n, g.edge_count) == (4, 2)
    assert g.rows.tolist() == [0, 2] and g.cols.tolist() == [1, 3]


def test_edge_list_takes_any_int_literal(tmp_path):
    # np.loadtxt rejects "1_1"; the line-by-line parse reads it as int() does
    path = tmp_path / "g.txt"
    path.write_text("12 2\n0 1_1\n+0 2\n")
    g = read_edge_list(path)
    assert g.rows.tolist() == [0, 0] and g.cols.tolist() == [2, 11]


def test_edge_list_reading_memory_is_bounded(tmp_path):
    path = tmp_path / "ring.edges"
    write_edge_list(gen_ring(20_000, 3), path)
    tracemalloc.start()
    try:
        g = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 25 bytes per edge; a parse that holds every line and its
    # split fields took 393
    assert peak <= 64 * g.edge_count


def test_shuffled_edge_list_reads_back_canonical(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(gen_watts_strogatz(60, 3, 0.4, 2), path)
    sorted_bytes = path.read_bytes()
    header, *body = sorted_bytes.decode().splitlines()
    np.random.default_rng(0).shuffle(body)
    path.write_text("\n".join([header, *body]) + "\n")
    write_edge_list(read_edge_list(path), path)
    assert path.read_bytes() == sorted_bytes


# sha256 of write_edge_list output, recorded from the dense-matrix generators
# that the edge-array generators replaced
GOLDEN_EDGE_LISTS = [
    (gen_ring, (5, 1), "4a66125c2bb3dbfab3c668b7aee22324e038a384bd5d7dec2ba209e998a2b73d"),
    (gen_ring, (8, 4), "1e2ecc1e89815835b832f4fc8a274b799d7931ac93e5aaed4b80773ced878bec"),
    (gen_ring, (7, 3), "51ac8588af7eae34e8cc91650d0b3eb8146ae2ecb8f5218311140fa1ac6b711d"),
    (gen_ring, (64, 3), "dfa2c70a79a0c798d2b7a8e7ed8216a6d45ccf14d8a0672a0606ecda40ce845a"),
    (gen_ring, (1500, 10), "58abcd13fb4ac6dd543221c96d664b0a141a8f19a8c306b636159567ef0ff403"),
    (gen_complete, (2,), "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834"),
    (gen_complete, (3,), "7c0343f77a3c54a7b291511fde0fd472255dbdfd45e57dc93771a4b4e021c6ad"),
    (gen_complete, (200,), "c5d83e6c367a65e23777557f98e53686d222478055c25ebfca8e57c3a9446764"),
    (gen_erdos_renyi, (10, 0.0, 1),
     "88401cdce0f0466b01d2dbdde250d17cab1a783cd5a7d82bba6da2a3cb8c3338"),
    (gen_erdos_renyi, (10, 1.0, 1),
     "1df85460ce06d8c58223cfd1f4578b56f4ca71b66182291bfa1732f3659ee352"),
    (gen_erdos_renyi, (60, 0.25, 13),
     "a45fa01dcb1ea8a7dc9a1cca64c21dceeb4ba509a6e056cbb7c7a962cc0fefa0"),
    (gen_erdos_renyi, (200, 0.2, 0),
     "b214820c741448b8ef42a556747357fee086dcacd44813f7adf855926eacdedd"),
    (gen_erdos_renyi, (1500, 0.01, 4),
     "a882624cfd072b4ca01533734a0f38774b67c60afda5adc0cc74769c00894422"),
    (gen_watts_strogatz, (6, 2, 1.0, 0),
     "4626cf6e6068c372f3c64b163f57349595c2303c4a3eda81dffcc6a37d585ab5"),
    (gen_watts_strogatz, (7, 2, 0.9, 2),
     "0086b6f92d1f493e376f6e4bbd359d59175e09574f1fc40546fe64713dfa9fa0"),
    (gen_watts_strogatz, (9, 3, 1.0, 1),
     "55aca84688dafbcf43b387e677bb157e821d2f6c8fcec436e654954237dd30a9"),
    (gen_watts_strogatz, (20, 2, 1.0, 5),
     "dca7308b6fe6c2a11c6741982740a28fd752fc7ca170aa3146c047ebbb8d79e3"),
    (gen_watts_strogatz, (40, 4, 0.3, 9),
     "3ac1720509ccb7dfcb2579f1c6222bff4dc2a557ad88dec52bcc94a17090493f"),
    (gen_watts_strogatz, (200, 5, 0.1, 0),
     "2469f02b6736a706db1c5b415f3d92e94ce50520fb8a953d2906565efa2b90ae"),
    (gen_watts_strogatz, (200, 3, 0.5, 2**32 - 1),
     "475e7b55f8cd2555eeb4e8ea8e82dcd0d27157044f19d26807bbbf2a9e398788"),
    (gen_watts_strogatz, (1500, 10, 0.1, 0),
     "c3c56f76f6bead7468466e97ebcc718c92d5ee353023b958d73595a292ecb8e0"),
    (gen_watts_strogatz, (1500, 10, 0.1, 3),
     "6a70f5e0e846ca74bbd1244e871aec671194685f82338d511a82b101015aaede"),
    (gen_watts_strogatz, (1500, 10, 0.1, 7),
     "6bfaaab91942618eea508f95e91b837e234d71de0941d84629da8365a1237379"),
]


@pytest.mark.parametrize("gen, args, digest", GOLDEN_EDGE_LISTS,
                         ids=[f"{g.__name__}{a}" for g, a, _ in GOLDEN_EDGE_LISTS])
def test_edge_list_golden_bytes(tmp_path, gen, args, digest):
    path = tmp_path / "g.txt"
    write_edge_list(gen(*args), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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
