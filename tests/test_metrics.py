"""Tests for the W1 distances and the histogram CSV files of the metrics module."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowrl.errors import ContractError
from flowrl.metrics import (
    export_histogram,
    histogram_edges,
    histogram_from_atoms,
    histogram_from_samples,
    load_histogram_csv,
    wasserstein1_discrete,
    wasserstein1_histograms,
    wasserstein1_samples,
)


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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 90),
       lo=st.floats(-50.0, 50.0), span=st.floats(1e-3, 100.0))
def test_histogram_csv_round_trip_bit_exact(tmp_path_factory, seed, n_bins, lo, span):
    path = tmp_path_factory.mktemp("hist") / "hist.csv"
    samples = np.random.default_rng(seed).normal(lo + span / 2, span, size=500)
    hist, _ = export_histogram(samples, n_bins, (lo, lo + span), path)
    back = load_histogram_csv(path)
    assert back.edges.tobytes() == hist.edges.tobytes()
    assert back.masses.tobytes() == hist.masses.tobytes()


@pytest.mark.parametrize("row", ["0.0,1.0", "0.0,1.0,1.0,0.0", "0.0,1.0,one",
                                 "0.0,1.0,np.float64(1.0)", "0.0,1.0,nan", "0.0,inf,1.0"])
def test_malformed_histogram_csv_rejected(tmp_path, row):
    path = tmp_path / "hist.csv"
    path.write_text(f"bin_left,bin_right,mass\n{row}\n")
    with pytest.raises(ContractError):
        load_histogram_csv(path)


def test_histogram_csv_with_a_gap_between_bins_rejected(tmp_path):
    path = tmp_path / "hist.csv"
    path.write_text("bin_left,bin_right,mass\n0.0,1.0,0.5\n1.5,2.0,0.5\n")
    with pytest.raises(ContractError):
        load_histogram_csv(path)
