"""The benchmark's workloads, run at their own scale and pinned by sha256.

The golden CLI script plans 5 goals with at most 1000 samples. This test runs
the first instances of seed 1 of each ``perfbench`` workload: 10-goal
Held-Karp with the oracle, 2000-sample RRT* pair plans, 40-goal 2-opt/Or-opt
with first-feasible RRT legs, and dataset generation with validation. Each
instance goes through the workload's own ``generate``, then ``prepare``,
``execute``, ``check`` and ``cleanup`` as the harness's untraced
``run_checked`` calls them, and the sha256 of their digest lines (tour, cost
bits and samples; the dataset files' bytes) is pinned. A change that alters
one on purpose re-records the pin and says why.
"""

import hashlib

import pytest

from perfbench import harness, workloads

SEED = 1
INSTANCES = range(4)

SHA256 = {
    "oracle-guided": "8f238f227533414ba3b8035ca48389a86bd7bbb523f7d46f39214e4c609e50f0",
    "rrt-star": "774a51a4054a858ec87f27ff11c7c9a3f6b8666ff268e3b27f5c940a6b9555bf",
    "many-goals": "20f1468369acb0f4aecc48dc2f0226c92aca4e7e5a6b72b5a0bd578e54fe215b",
    "dataset": "0e343b3cd19051f3ae80b6bb04524acd7881aeb6bd2eeb8c591880446eba1752",
}


@pytest.mark.parametrize("name", sorted(SHA256))
def test_workload_outputs_are_pinned(name, tmp_path):
    workload = workloads.all_workloads(str(tmp_path))[name]
    lines = [harness.run_checked(workload, workload.generate(SEED, index))[1].digest_line
             for index in INSTANCES]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SHA256[name], lines
