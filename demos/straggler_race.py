"""Race the two schemes against a straggler-heavy worker pool.

Three speed classes (fast, slow, very slow), 17 workers each.  The
y-axis of interest is the expected time until enough sub-task results
arrive to decode.  More sub-tasks per upload budget means the fast
class can carry more of the load.
"""

from bipoly.cli import load_sim_config
from bipoly.simulator import GASP, PROPOSED, budget_sweep, sweep_rows_to_csv

cfg = load_sim_config("heterogeneous")
budgets = [2, 3, 4, 5, 6, 8, 10]
trials = 2000  # bump to 10000 to tighten the estimates

rows = budget_sweep(
    cfg["classes"], cfg["params"], budgets, (PROPOSED, GASP), trials, seed=0
)

print(sweep_rows_to_csv(rows))

proposed = {r.budget: r.mean_time_s for r in rows if r.scheme == PROPOSED}
gasp = {r.budget: r.mean_time_s for r in rows if r.scheme == GASP}
print("budget  proposed(s)  baseline(s)  speedup")
for b in budgets:
    print(f"{b:>6}  {proposed[b]:>11.3f}  {gasp[b]:>11.3f}  "
          f"{gasp[b] / proposed[b]:>6.1f}x")
