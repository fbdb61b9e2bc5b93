"""Cross-process determinism: a run's exported metrics do not depend on
the interpreter's string-hash seed.

Each policy runs Experiment Two's mixed job classes on 4 nodes with
per-action faults, stalls, retries and stall timeouts active, in fresh
interpreters under ``PYTHONHASHSEED`` 0, 1 and 2.  Any iteration over a
``set`` or hash-ordered structure that leaks into a decision shows up as
a differing ``metrics_to_json`` digest.  (Experiment One is unsuitable:
its identical jobs make the rival policies' outputs coincide.)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

POLICIES = ("apc", "edf", "dfrs", "proportional_fairness")

_RUN = """
import hashlib, json, sys
from repro.scenario import Scenario, Simulation
from repro.sim.export import metrics_to_json
from repro.sim.simulator import SimulationConfig
from repro.virt.faults import ActionFaultModel, RetryPolicy

out = {}
for policy in sys.argv[1:]:
    scenario = Scenario(
        name="determinism", workload="experiment2", nodes=4, job_count=30,
        interarrival=20.0, seed=5, policy=policy,
        sim=SimulationConfig(
            fault_model=ActionFaultModel.uniform(
                0.3, stall_probability=0.2, stall_duration_mean=300, seed=5
            ),
            retry_policy=RetryPolicy(),
            action_timeout=150,
        ),
    )
    sim = Simulation.from_scenario(scenario, decision_clock=lambda: 0.0)
    metrics = sim.run()
    out[policy] = {
        "digest": hashlib.sha256(metrics_to_json(metrics).encode()).hexdigest(),
        "attempts": metrics.faults.total_attempts,
    }
print(json.dumps(out))
"""


def _run_under(hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", _RUN, *POLICIES],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return {seed: _run_under(seed) for seed in ("0", "1", "2")}


@pytest.mark.parametrize("policy", POLICIES)
def test_export_is_identical_under_every_hash_seed(runs, policy):
    digests = {seed: runs[seed][policy]["digest"] for seed in runs}
    assert len(set(digests.values())) == 1, digests
    # The fault model was really exercised.
    assert runs["0"][policy]["attempts"] > 0


def test_policies_produce_distinct_runs(runs):
    digests = [runs["0"][policy]["digest"] for policy in POLICIES]
    assert len(set(digests)) == len(POLICIES)
