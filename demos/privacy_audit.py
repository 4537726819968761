"""Audit the masking: closed-form sweeps at scale, exact enumeration at toy scale.

Full-rank mask-coefficient matrices mean every coalition observation is
one-time-padded.  The audit checks every possible coalition, then
cross-validates the criterion on an instance small enough to enumerate
outright, including two broken encodings that must leak.
"""

import math

import numpy as np

from bipoly import (
    EvalPoint,
    SchemeParams,
    exhaustive_mi_check,
    perfect_privacy_check,
    sample_points,
    sweep_collusion_subsets,
)

# Production-scale sweep: every 3-subset of 51 workers.
params = SchemeParams(K=5, L=5, T=3, m=5, N=51, q=2**31 - 1)
points = sample_points(params, np.random.default_rng(1))
report = sweep_collusion_subsets(points, params.K, params.T, params.m, params.q)
print(f"coalitions checked: {report.subsets_checked} "
      f"(= C(51,3) = {math.comb(51, 3)}), failures: {len(report.failing_subsets)}")

# Toy instance, small enough to enumerate every (input, mask) tuple and
# measure the exact mutual information of the coalition view.
pts = [EvalPoint(1, 2), EvalPoint(2, 0)]
mi = exhaustive_mi_check(pts, K=1, T=2, m=2, q=5)
print(f"exact MI with proper masking: {mi} bits")

# Broken encoding #1: left masks zeroed out -> the A value leaks.
leak = exhaustive_mi_check([EvalPoint(1, 1)], K=1, T=1, m=1, q=3,
                           zero_r_masks=True)
print(f"exact MI with left masks zeroed: {leak:.6f} bits (= log2 3)")

# Broken encoding #2: a worker evaluated at x = 0 sees unmasked blocks.
bad = perfect_privacy_check([EvalPoint(0, 4)], K=1, T=1, m=2, q=5)
print(f"x = 0 coalition passes rank check: {bad.passed} "
      f"(deficient matrix: {bad.failed_name})")
print(f"exact MI at x = 0: {exhaustive_mi_check([EvalPoint(0, 4)], 1, 1, 2, 5):.6f} bits")
