"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest bench/tests -q

It takes a few minutes: every workload runs traced twice and untraced once.
"""

import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from checks import Oracle, mode_set_moments
from tracing import _block_tail, self_times
from workloads import WORKLOADS

# Used by no run made while the benchmark was written and tuned.
HELD_OUT_SEED = 7919

COUNTS = (
    "moments.table_entries",
    "samplers.sweeps",
    "diagnostics.outcomes",
    "cli.bytes_written",
    "samplers.dropped_mass",
)


def test_self_time_subtracts_direct_children_only():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["a.x", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_photon_moments_match_the_exact_table():
    oracle = Oracle(WORKLOADS["exact-small"], 3)
    counts = oracle.table_counts
    probs = oracle.table_probs
    for modes in ([0], [2], [1, 3], [0, 1, 2, 3]):
        total = counts[:, modes].sum(axis=1)
        mean = float(probs @ total)
        var = float(probs @ total**2) - mean**2
        closed = mode_set_moments(oracle.sigma, modes)
        assert closed == pytest.approx((mean, var), rel=1e-9, abs=1e-12)


def test_block_tail_is_the_pair_tail_when_nothing_leaks():
    r, budget = 1.0, 24
    log_t2 = 2 * math.log(math.tanh(r))
    direct = sum(
        math.exp(math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) - k * math.log(4)
                 + k * log_t2 - math.log(math.cosh(r)))
        for k in range(budget // 2 + 1, 3000)
    )
    assert _block_tail(math.sinh(r) ** 2, r, budget) == pytest.approx(direct, rel=1e-12)


def test_fock_check_rejects_a_sample_with_a_lost_photon():
    oracle = Oracle(WORKLOADS["fock-large"], 3)
    rng = np.random.default_rng(0)
    counts = np.zeros((50, WORKLOADS["fock-large"].n_modes), dtype=np.int64)
    for row in counts:
        for column in oracle.weights.T:  # one photon per source
            row[rng.choice(row.size, p=column)] += 1
    assert oracle.check_samples(counts) == []
    counts[0, counts[0].argmax()] -= 1
    assert oracle.check_samples(counts)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fock-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_at_one_seed(name):
    values = []
    for _ in range(2):
        traced = run.Traced(WORKLOADS[name], HELD_OUT_SEED, seconds=1e-3)
        traced.run()
        assert traced.problems == []
        it = traced.iterations[0]
        values.append({k: it["per_layer"][k] for k in COUNTS})
    assert values[0] == values[1]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_held_out_seed_passes_every_check(name):
    untraced = run.Untraced(WORKLOADS[name], HELD_OUT_SEED, seconds=1e-3)
    untraced.run()
    assert [p for r in untraced.records for p in r["problems"]] == []
    metrics = untraced.metrics()
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
