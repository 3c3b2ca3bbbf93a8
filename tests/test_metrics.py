"""Tests for the W1 distances and the return histograms of the metrics module."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowrl.errors import ContractError, check_edges
from flowrl.metrics import (
    ReturnHistogram,
    histogram_edges,
    histogram_from_atoms,
    histogram_from_samples,
    wasserstein1_discrete,
    wasserstein1_histograms,
    wasserstein1_samples,
)

from helpers import ref_edges_ok


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), n_bins=st.integers(1, 20),
       lo=st.floats(-50.0, 50.0), span=st.floats(1e-2, 100.0))
def test_w1_variants_are_symmetric_zero_on_identical_input_and_agree_on_a_grid(
        seed, n, n_bins, lo, span):
    rng = np.random.default_rng(seed)
    edges = histogram_edges((lo, lo + span), n_bins)
    # samples on the left bin edges: each bin's mass sits at its left edge, so the
    # histogram CDF integral is the exact W1
    x = edges[rng.integers(0, n_bins, size=n)]
    y = edges[rng.integers(0, n_bins, size=n)]
    w = np.full(n, 1.0 / n)
    hx, hy = (histogram_from_samples(v, edges)[0] for v in (x, y))
    pairs = {
        "samples": (lambda p, q: wasserstein1_samples(p, q), x, y),
        "discrete": (lambda p, q: wasserstein1_discrete(p, w, q, w), x, y),
        "histograms": (wasserstein1_histograms, hx, hy),
    }
    values = {}
    for name, (w1, p, q) in pairs.items():
        values[name] = w1(p, q)
        assert w1(q, p) == values[name], name
        assert w1(p, p) == 0.0 and w1(q, q) == 0.0, name
    for name in ("discrete", "histograms"):
        assert values[name] == pytest.approx(values["samples"], rel=1e-12, abs=1e-12 * span)
    # atom sets of unequal size: the discrete and histogram variants still agree
    z = edges[rng.integers(0, n_bins, size=n + 3)]
    mz = rng.dirichlet(np.ones(n + 3))
    assert wasserstein1_histograms(hx, histogram_from_atoms(z, mz, edges)) == pytest.approx(
        wasserstein1_discrete(x, w, z, mz), rel=1e-12, abs=1e-12 * span)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_edges_and_masses_rejected(bad):
    edges = histogram_edges((0.0, 1.0), 2)
    with pytest.raises(ContractError):
        histogram_from_samples([bad, 0.5], edges)
    with pytest.raises(ContractError):
        histogram_from_samples([0.5], [0.0, bad, 1.0])
    with pytest.raises(ContractError):
        histogram_from_atoms(np.array([bad, 0.2]), np.array([0.5, 0.5]), edges)
    with pytest.raises(ContractError):
        ReturnHistogram([0.0, bad, 1.0], [0.5, 0.5])
    with pytest.raises(ContractError):
        ReturnHistogram(edges, [bad, 0.5])


@pytest.mark.parametrize("edges", [[0.5], [], [[0.0, 1.0]]], ids=["one-edge", "empty", "2-d"])
def test_edges_that_bound_no_bin_rejected(edges):
    with pytest.raises(ContractError, match="edges"):
        histogram_from_samples([0.5], edges)
    with pytest.raises(ContractError, match="edges"):
        histogram_from_atoms(np.array([0.5]), np.array([1.0]), edges)
    with pytest.raises(ContractError, match="edges"):
        ReturnHistogram(edges, [])


class TestW1InputChecks:
    VALUES = np.array([0.0, 1.0])
    MASSES = np.array([0.5, 0.5])

    def test_discrete_rejects_masses_of_another_length(self):
        with pytest.raises(ContractError):
            wasserstein1_discrete(self.VALUES, np.array([1.0]), self.VALUES, self.MASSES)
        with pytest.raises(ContractError):
            wasserstein1_discrete(self.VALUES, self.MASSES, self.VALUES, np.full(3, 1.0 / 3.0))

    @pytest.mark.parametrize("masses", [[np.nan, 0.5], [np.inf, 0.5], [1.5, -0.5]])
    def test_discrete_rejects_non_finite_or_negative_masses(self, masses):
        with pytest.raises(ContractError):
            wasserstein1_discrete(self.VALUES, np.array(masses), self.VALUES, self.MASSES)
        with pytest.raises(ContractError):
            wasserstein1_discrete(self.VALUES, self.MASSES, self.VALUES, np.array(masses))

    @pytest.mark.parametrize("masses", [[5.0, 5.0], [0.5, 0.5 - 1e-8]])
    def test_discrete_rejects_masses_that_do_not_sum_to_one(self, masses):
        with pytest.raises(ContractError):
            wasserstein1_discrete(self.VALUES, np.array(masses), self.VALUES, self.MASSES)
        # within 1e-9 of 1 is a distribution
        assert wasserstein1_discrete(self.VALUES, [0.5, 0.5 - 1e-10], [0.0], [1.0]) > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_samples_rejects_non_finite_samples(self, bad):
        with pytest.raises(ContractError):
            wasserstein1_samples([bad, 0.0], [0.0, 1.0])
        with pytest.raises(ContractError):
            wasserstein1_samples([0.0, 1.0], [0.0, bad])

    def test_histogram_from_atoms_rejects_masses_of_another_length(self):
        with pytest.raises(ContractError):
            histogram_from_atoms(self.VALUES, np.array([0.2, 0.3, 0.5]),
                                 histogram_edges((0.0, 1.0), 2))


@pytest.mark.parametrize("n_bins", [True, 2.5, 0, np.float64(3.0)])
def test_histogram_bin_count_must_be_a_positive_integer(n_bins):
    with pytest.raises(ContractError):
        histogram_edges((0.0, 1.0), n_bins)


EDGE_CASES = {
    "rising": [0.0, 0.5, 1.0],
    "nan-first": [np.nan, 0.5, 1.0],
    "nan-middle": [0.0, np.nan, 1.0],
    "nan-last": [0.0, 0.5, np.nan],
    "inf-first": [-np.inf, 0.5, 1.0],
    "inf-last": [0.0, 0.5, np.inf],
    "inf-middle": [0.0, np.inf, 1.0],
    "neg-inf-middle": [0.0, -np.inf, 1.0],
    "signed-zeros": [-0.0, 0.0],
    "equal-neighbours": [0.0, 1.0, 1.0, 2.0],
    "falling": [1.0, 0.0],
    "overflowing-diff": [-1e308, 1e308],
    "2-d": [[0.0, 1.0], [2.0, 3.0]],
    "0-d": 1.0,
    "empty": [],
    "one": [0.0],
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
@pytest.mark.parametrize("least", [1, 2])
def test_check_edges_accepts_what_the_whole_array_test_accepts(name, least):
    edges = EDGE_CASES[name]
    for size in (least, least + 1, least + 2):   # sizes at and around the bin minimum
        x = np.asarray(edges, dtype=np.float64)
        if x.ndim == 1 and x.size > size:
            x = x[:size]
        if ref_edges_ok(x, least):
            assert check_edges(x, least).tobytes() == x.tobytes()
        else:
            with pytest.raises(ContractError):
                check_edges(x, least)
    assert ref_edges_ok([0.0, 1.0, 2.0], 2) and not ref_edges_ok([0.0, 1.0], 2)


@pytest.mark.parametrize("support", [
    (-np.inf, 1.0), (0.0, np.inf), (-1e308, 1e308), (np.nan, 1.0), (1.0, 1.0), (1.0, 0.0),
    (0, 1, 2), (0.0,), (), None, "01", ((0.0, 1.0), (2.0, 3.0)), ("a", 1.0)])
def test_histogram_support_must_be_two_finite_numbers(support):
    with pytest.raises(ContractError):   # never a NaN edge, a RuntimeWarning or a raw ValueError
        histogram_edges(support, 4)


def test_histogram_edges_that_round_together_rejected():
    with pytest.raises(ContractError):   # a span of one subnormal cannot hold 4 distinct bins
        histogram_edges((0.0, 5e-324), 4)
    assert histogram_edges(np.array([-2, 3]), 5).tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
