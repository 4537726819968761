"""Recovery thresholds and upload costs under a per-worker budget.

The budget counts how many matrix partitions the master may send to one
worker.  The bivariate scheme spends one partition on the A share and
the rest on B derivative shares; the univariate baseline needs a fresh
partition of each matrix per sub-task, so it climbs in m half as fast.
"""

from dataclasses import replace

from bipoly import SchemeParams, gasp_upload_cost_bits, upload_cost_bits
from bipoly.baseline import GaspParams
from bipoly.simulator import GASP, PROPOSED, scheme_point

params = SchemeParams(K=5, L=5, T=3, m=1, N=51, q=2**31 - 1)
r = s = c = 100

print("budget  proposed m/R_th   baseline m/R_th   upload bits (proposed vs baseline)")
for budget in range(2, 11):
    pm, pr = scheme_point(PROPOSED, budget, params)
    gm, gr = scheme_point(GASP, budget, params)
    p_bits = upload_cost_bits(replace(params, m=pm), r, s, c)
    g_bits = gasp_upload_cost_bits(
        GaspParams(params.K, params.L, params.T, gm), params.N, r, s, c, params.q
    )
    print(f"{budget:>6}   m={pm} R={pr:<10} m={gm} R={gr:<10} "
          f"{p_bits:>11,} vs {g_bits:>11,}")

print()
print("Past budget 6 the proposed scheme saturates at m = L = 5: extra")
print("budget buys nothing, while the baseline still needs it to grow m.")
