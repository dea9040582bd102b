"""Transductive labeling on two moons, with and without density awareness.

Two interleaving crescents, two ground-truth labels per class, everything
else unlabeled. The nearest-neighbor graph alone sometimes shortcuts
across the gap between the moons; weighting each edge by the density along
its segment suppresses those shortcuts, so the propagated labels follow
the crescents.

Run:  python3 demos/02_two_moons_labeling.py
Writes demo output CSV (point, true class, both predictions) next to it.
"""

import csv
import os

from pmlp import PmlpConfig, confidences, gen_two_moons, run_classical_lpa, run_pmlp

dataset = gen_two_moons(n=300, noise=0.1, labeled_per_class=2, seed=1)
# Each labelled row's class, and -1 on every other row.
ground_truth = dataset.ground_truth
cfg = PmlpConfig(bandwidth_h=0.05, kde_support_n=15, neighbor_count=5, seed=1)

density_aware = run_pmlp(dataset.features, ground_truth, cfg)
classical = run_classical_lpa(dataset.features, ground_truth, cfg)

unlabeled = ~dataset.labeled_mask
truth = dataset.true_class


def accuracy(result):
    predicted = result.final_labels.argmax(axis=1)
    return (predicted[unlabeled] == truth[unlabeled]).mean()


print("two moons, n=300, noise=0.1, 2 labels per class")
print(f"  density-aware accuracy : {accuracy(density_aware):.4f}")
print(f"  classical accuracy     : {accuracy(classical):.4f}")

conf = confidences(density_aware.final_labels)
print(f"  confident rows (>= tau): {(conf >= cfg.tau).mean():.3f}")

out_path = os.path.join(os.path.dirname(__file__), "two_moons_predictions.csv")
with open(out_path, "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["x", "y", "true_class", "density_aware", "classical", "labeled"])
    pm_pred = density_aware.final_labels.argmax(axis=1)
    cl_pred = classical.final_labels.argmax(axis=1)
    for row, (x, y) in enumerate(dataset.features):
        writer.writerow(
            [repr(x), repr(y), int(truth[row]), int(pm_pred[row]),
             int(cl_pred[row]), int(dataset.labeled_mask[row])]
        )
print(f"  wrote {out_path} (plot it with any tool)")
