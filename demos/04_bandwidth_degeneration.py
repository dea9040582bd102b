"""Bandwidth controls how much the density term can say.

The density ratio (largest over smallest path density across sampled
pairs) measures how strongly the density factor differentiates edges at a
given bandwidth. Small bandwidth: sharp contrast. Large bandwidth: every
factor drifts toward 1 and the ratio toward 1, and the density-aware
pipeline produces exactly the classical label propagation output.

Run:  python3 demos/04_bandwidth_degeneration.py
"""

from dataclasses import replace

import numpy as np

from pmlp import (
    PmlpConfig,
    assignments_from_dataset,
    density_ratio_sweep,
    gen_gaussian_blobs,
    run_classical_lpa,
    run_pmlp,
)

cfg = PmlpConfig(kde_support_n=45, neighbor_count=5, seed=7)

# 200 random pairs over two blobs 8 apart, 150 rows each (seed 7).
print("bandwidth       density ratio")
for report in density_ratio_sweep(
    bandwidths=(0.5, 5.0, 100.0, 1e6, 1e12), pairs=200, separation=8.0,
    sigma=1.0, samples_per_cluster=150, cfg=cfg,
):
    print(f"  h = {report.bandwidth_h:>8g}   R = {report.density_ratio:.9f}")

# The same two blobs, labelled once per blob.
dataset = gen_gaussian_blobs(
    means=[[0.0, 0.0], [8.0, 0.0]], sigma=1.0, per_class=150,
    labeled_per_class=1, seed=7,
)

assignments = assignments_from_dataset(dataset)
classical = run_classical_lpa(dataset.features, assignments, cfg)
print()
print("max |density-aware - classical| over the final label matrix:")
for h in (5.0, 100.0, 1e12):
    result = run_pmlp(dataset.features, assignments, replace(cfg, bandwidth_h=h))
    gap = np.max(np.abs(result.final_labels.data - classical.final_labels.data))
    print(f"  h = {h:>8g}   gap = {gap:.3e}")
print("the gap collapses with the ratio: infinite bandwidth is classical LPA.")
