"""Tests for the histogram CSV files the metrics module writes and reads."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowrl.errors import ContractError
from flowrl.metrics import export_histogram, load_histogram_csv


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
