"""What the path-density factor sees.

Two Gaussian clusters, and two kinds of point pairs: neighbors inside one
cluster, and a pair straddling the gap. The straight segment between the
cross-cluster pair dips through empty space, so the kernel density sampled
along it is small; inside a cluster it stays high. That scalar is exactly
the factor the affinity matrix gets multiplied by.

Run:  python3 demos/01_density_along_paths.py
"""

from dataclasses import replace

import numpy as np

from pmlp import PmlpConfig, gen_gaussian_blobs
from pmlp.density import batch_normalized_density, batch_path_density_info

dataset = gen_gaussian_blobs(
    means=[[0.0, 0.0], [8.0, 0.0]], sigma=1.0, per_class=150,
    labeled_per_class=1, seed=7,
)
features = dataset.features
cfg = PmlpConfig(bandwidth_h=2.0, kde_support_n=45, path_points_k=5)

pairs = {
    "within-cluster": (0, 1),   # both rows from the first cluster
    "cross-cluster": (0, 150),  # first cluster to second cluster
}
factors = batch_path_density_info(features, list(pairs.values()), cfg)

print("pair densities at bandwidth h=2 (five points per segment)")
fracs = np.arange(1, cfg.path_points_k + 1) / (cfg.path_points_k + 1)
for (name, (i, j)), factor in zip(pairs.items(), factors):
    # the equal-division points the factor samples between rows i and j
    x_i, x_j = features[i], features[j]
    points = x_i + fracs[:, None] * (x_j - x_i)
    densities = batch_normalized_density(
        points, features, cfg.kde_support_n, cfg.bandwidth_h
    )
    pretty = ", ".join("%.3f" % v for v in densities)
    print(f"  {name:15s} points [{pretty}]  ->  factor {factor:.4f}")

print()
print("the same cross-cluster pair as the bandwidth grows")
for h in (0.5, 2.0, 10.0, 100.0, 1e12):
    factor = batch_path_density_info(
        features, [pairs["cross-cluster"]], replace(cfg, bandwidth_h=h)
    )[0]
    print(f"  h = {h:>8g}   factor = {factor:.6f}")
print("at huge bandwidth every factor approaches 1: the density term")
print("vanishes and the affinity reduces to the plain inverse distance.")
