"""The adaptive confidence-threshold schedule in action.

Feed the scheduler batches of predictions from a model that slowly gets
more confident. Every time the cumulative count of confident predictions
crosses a multiple of 50, the threshold ratchets up by the epoch's step
(0.01 up to epoch 200, 0.001 up to 400, and so on), saturating at the cap.

Run:  python3 demos/05_threshold_schedule.py
"""

import numpy as np

from pmlp import ThresholdSchedulerState, update_threshold

rng = np.random.default_rng(0)
state = ThresholdSchedulerState(tau=0.90, tau_max=0.99)

print("epoch  confident-so-far  tau")
for epoch in range(1, 481, 20):
    # a model that sharpens over time: confidence drifts up with the epoch
    sharpness = 1.0 + epoch / 60.0
    raw = rng.random((40, 3)) ** sharpness
    predictions = raw / raw.sum(axis=1, keepdims=True)
    state = update_threshold(state, predictions, epoch)
    print(f"{state.epoch:5d}  {state.high_count:16d}  {state.tau:.3f}")

print()
print("tau never decreases: 0.01 steps up to epoch 200, 0.001 steps up to")
print("400, 0.0001 after that. Run long enough it saturates at the 0.99 cap.")
