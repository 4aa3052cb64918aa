"""Traced replays: spans around the benchmark's calls into each module.

The traced run works from outside the program.  A fresh child process
imports ``blsampler`` and replays, call by call, the sequence that
``cli.run`` (sampling modes) or ``theorem_bound_report`` (diagnose-bounds)
executes, with a span around every public call.  Spans are kept in memory
and printed as one JSON line when the child ends.

Child entry points (``python3 bench/tracing.py <kind> ...``):

``replay <workload> <seed> <traced>``
    The main sequence (spans under ``replay``), then, when traced, the side
    replays that feed per-layer counts (spans under ``side``, outside the
    accounting): the ``a_matrix`` and ``takagi_factor`` calls an engine or
    an enumeration makes, and the dropped truncation mass.
``cli <workload> <seed> <out>``
    ``cli.main`` in-process, one span around it.
``growth <rank> <degree>``
    Cold ``_moments.tables(rank).ensure(degree)``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402


class Tracer:
    """In-memory spans ``(name, start, end, parent)``; off means no records."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus what its direct children cover.  Spans
    are strictly nested (one thread), so children never overlap."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# ---------------------------------------------------------------- replays


def _replay_sampling(w, seed: int, tr: Tracer):
    import numpy as np

    from blsampler import (
        BlockApproxSampler,
        ChainRuleEngine,
        accumulate_unitary,
        block_approx_covariance,
        build_lattice,
        quad_to_complex,
        sample_random_circuit,
        state_covariance,
        truncation_threshold,
    )
    from blsampler.samplers import distinguishable_fock_sample

    state = {}
    with tr.span("lattice.build_lattice"):
        lattice = build_lattice(w.dim, w.sources, w.edge)
    with tr.span("lattice.sample_random_circuit"):
        circuit = sample_random_circuit(lattice, w.depth, np.random.default_rng([seed]))
    state["lattice"], state["circuit"] = lattice, circuit
    if w.mode == "sample-exact":
        with tr.span("samplers.truncation_threshold"):
            policy = truncation_threshold(w.sources, w.squeezing, 1e-6)
        with tr.span("gaussian.state_covariance"):
            cov = state_covariance(circuit, lattice, w.squeezing)
        with tr.span("gaussian.quad_to_complex"):
            sigma = quad_to_complex(cov)
        with tr.span("samplers.ChainRuleEngine"):
            draw = ChainRuleEngine(sigma, policy).sample
        state["policy"], state["covariances"] = policy, [sigma]
    elif w.mode == "sample-approx":
        with tr.span("samplers.truncation_threshold"):
            policy = truncation_threshold(w.sources, w.squeezing, 1e-6)
        with tr.span("gaussian.block_approx_covariance"):
            blocks = block_approx_covariance(circuit, lattice, w.squeezing)
        with tr.span("samplers.BlockApproxSampler"):
            draw = BlockApproxSampler(circuit, lattice, w.squeezing, policy, blocks=blocks).sample
        state["policy"], state["blocks"] = policy, blocks
    else:
        with tr.span("lattice.accumulate_unitary"):
            unitary = accumulate_unitary(circuit)
        draw = lambda rng: distinguishable_fock_sample(unitary, lattice, rng)  # noqa: E731
    samples = []
    for i in range(w.samples):
        rng = np.random.default_rng([seed, i])
        with tr.span("samplers.sample"):
            samples.append(draw(rng))
    state["samples"] = samples
    return state


def _replay_bounds(w, seed: int, tr: Tracer):
    """``cli._run_bounds`` with ``theorem_bound_report`` unrolled into its
    public calls, so each instance's time splits by module."""
    import inspect

    import numpy as np

    from blsampler import (
        TruncationPolicy,
        accumulate_unitary,
        block_approx_covariance,
        build_lattice,
        enumerate_gbs_distribution,
        fidelity,
        frobenius_diff,
        product_distribution,
        quad_to_complex,
        sample_random_circuit,
        state_covariance,
        truncation_threshold,
        tvd,
        tvd_upper_bound,
    )
    from blsampler.diagnostics import leakage_rate, theorem_bound_report

    defaults = inspect.signature(theorem_bound_report).parameters
    modes_cap = defaults["enumerate_modes_cap"].default
    budget_cap = defaults["enumerate_budget_cap"].default
    with tr.span("lattice.build_lattice"):
        lattice = build_lattice(w.dim, w.sources, w.edge)
    rng = np.random.default_rng([seed])
    with tr.span("samplers.truncation_threshold"):
        policy = truncation_threshold(w.sources, w.squeezing, 1e-6)
    reports, enumerated, outcomes, masses = [], [], 0, []
    for _ in range(w.samples):
        with tr.span("replay.instance"):
            with tr.span("lattice.sample_random_circuit"):
                circuit = sample_random_circuit(lattice, w.depth, rng)
            with tr.span("lattice.accumulate_unitary"):
                unitary = accumulate_unitary(circuit)
            with tr.span("diagnostics.leakage_rate"):
                leak = leakage_rate(unitary, lattice, circuit.depth)
            with tr.span("gaussian.state_covariance"):
                v_out = state_covariance(circuit, lattice, w.squeezing)
            with tr.span("gaussian.block_approx_covariance"):
                blocks = block_approx_covariance(circuit, lattice, w.squeezing)
            with tr.span("gaussian.assemble"):
                v_a = blocks.assemble()
            with tr.span("gaussian.frobenius_diff"):
                x_measured = frobenius_diff(v_out, v_a)
            with tr.span("gaussian.fidelity"):
                infidelity = 1.0 - fidelity(v_out, v_a)
            report = {"eta_max": leak.eta_max, "x_measured": x_measured,
                      "infidelity_measured": infidelity}
            if lattice.n_modes <= modes_cap:
                budget = min(int(policy.n_total_max), budget_cap)
                clamped = TruncationPolicy(
                    epsilon=policy.epsilon,
                    n_total_max=budget,
                    n_mode_max=min(int(policy.n_mode_max), budget),
                )
                with tr.span("gaussian.quad_to_complex"):
                    sigmas = [quad_to_complex(v_out)] + [quad_to_complex(b) for b in blocks.blocks]
                dists = []
                for sigma in sigmas:
                    with tr.span("diagnostics.enumerate_gbs_distribution"):
                        dists.append(enumerate_gbs_distribution(sigma, clamped))
                with tr.span("diagnostics.product_distribution"):
                    approx = product_distribution(
                        dists[1:], lattice.sublattices, lattice.n_modes, budget=budget
                    )
                with tr.span("diagnostics.tvd"):
                    report["tvd_table"] = tvd(dists[0], approx)
                with tr.span("diagnostics.tvd_upper_bound"):
                    report["tvd_upper"] = tvd_upper_bound(dists[0], approx)
                enumerated.append((sigmas, budget))
                outcomes += dists[0].counts.shape[0] + approx.counts.shape[0]
                masses.append(dists[0].mass)
            reports.append(report)
    return {"reports": reports, "enumerated": enumerated, "outcomes": outcomes,
            "dropped_mass": 1.0 - min(masses) if masses else 0.0}


# ---------------------------------------------------------------- side


def _engine_ranks(covariances, tr: Tracer) -> list[int]:
    """Replay the factorizations a ``ChainRuleEngine`` makes at init:
    ``a_matrix`` + ``takagi_factor`` of every prefix-reduced covariance."""
    import numpy as np

    from blsampler import a_matrix, reduce_complex
    from blsampler.kernels import takagi_factor

    ranks = []
    for sigma in covariances:
        for k in range(1, sigma.n_modes + 1):
            red = reduce_complex(sigma, np.arange(k))
            with tr.span("gaussian.a_matrix"):
                am = a_matrix(red)
            with tr.span("kernels.takagi_factor"):
                ranks.append(takagi_factor(am.matrix).shape[1])
    return ranks


def _enumeration_tables(sigma, budget: int, tr: Tracer) -> tuple[int, int]:
    """Replay the factorization ``enumerate_gbs_distribution`` makes and
    return the (rank, degree) of the moment tables it then uses: the M x M
    block with one form per photon for a pure state, else the full matrix
    with two forms per photon."""
    import numpy as np

    from blsampler import a_matrix
    from blsampler.kernels import takagi_factor

    with tr.span("gaussian.a_matrix"):
        a = a_matrix(sigma).matrix
    m = sigma.n_modes
    pure = max(np.abs(a[:m, m:]).max(), np.abs(a[m:, :m]).max()) <= 1e-10 * max(1.0, np.abs(a).max())
    with tr.span("kernels.takagi_factor"):
        rank = takagi_factor(a[:m, :m] if pure else a).shape[1]
    return rank, budget if pure else 2 * budget


def _block_tail(mean_photons: float, squeezing: float, budget: int) -> float:
    """P(photons landing in a block > budget) for one squeezer routed
    through the circuit: 2K photons, K ~ NegBin(1/2, sech^2 r), each kept
    with probability eta = mean / sinh^2 r (binomial thinning)."""
    sinh2 = math.sinh(squeezing) ** 2
    eta = min(max(mean_photons / sinh2, 0.0), 1.0) if sinh2 > 0 else 0.0
    if eta == 0.0:
        return 0.0
    tail = 0.0
    k = budget // 2 + 1
    while True:
        log_pk = (math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) - k * math.log(4.0)
                  + 2 * k * math.log(math.tanh(squeezing)) - math.log(math.cosh(squeezing)))
        term = math.exp(log_pk) * _binomial_sf(2 * k, eta, budget)
        tail += term
        if log_pk < -745.0 or term < 1e-17 * tail:
            return tail
        k += 1


def _binomial_sf(n: int, p: float, b: int) -> float:
    """P(Binomial(n, p) > b)."""
    if p >= 1.0:
        return 1.0 if n > b else 0.0
    return sum(
        math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                 + j * math.log(p) + (n - j) * math.log1p(-p))
        for j in range(b + 1, n + 1)
    )


def _side(w, state, tr: Tracer) -> dict:
    """Counts that need extra library calls, under a ``side`` span."""
    import numpy as np

    from blsampler import enumerate_gbs_distribution, quad_to_complex

    out = {"takagi_calls": 0, "table_rank": 0, "table_degree": 0, "dropped_mass": 0.0,
           "sweeps": 0, "lookups": 0, "outcomes": 0}
    if w.mode == "diagnose-bounds":
        tables = [_enumeration_tables(s, budget, tr)
                  for sigmas, budget in state["enumerated"] for s in sigmas]
        out["takagi_calls"] = len(tables)
        if tables:
            out["table_rank"] = max(r for r, _ in tables)
            out["table_degree"] = max(d for r, d in tables if r == out["table_rank"])
        out["outcomes"] = state["outcomes"]
        out["dropped_mass"] = state["dropped_mass"]
        return out
    samples = np.array(state["samples"], dtype=np.int64)
    if w.mode == "sample-fock":
        return out
    policy = state["policy"]
    if w.mode == "sample-exact":
        covariances = state["covariances"]
        block_modes = [np.arange(w.n_modes)]
        with tr.span("diagnostics.enumerate_gbs_distribution"):
            mass = enumerate_gbs_distribution(covariances[0], policy).mass
        out["dropped_mass"] = max(0.0, 1.0 - mass)
    else:
        covariances = [quad_to_complex(b) for b in state["blocks"].blocks]
        block_modes = [np.asarray(m) for m in state["lattice"].sublattices]
        tails = []
        for sigma in covariances:
            mean = float(np.trace(sigma.matrix[: sigma.n_modes, : sigma.n_modes]).real) - sigma.n_modes / 2
            tails.append(_block_tail(mean, w.squeezing, policy.n_total_max))
        out["dropped_mass"] = -math.expm1(sum(math.log1p(-t) for t in tails))
    ranks = _engine_ranks(covariances, tr)
    out["takagi_calls"] = len(ranks)
    out["table_rank"] = max(ranks)
    out["table_degree"] = 2 * policy.n_total_max
    # One conditional sweep per distinct prefix per engine (block): the
    # engine caches sweeps by prefix, so this is its miss count.
    for modes in block_modes:
        block = samples[:, modes]
        out["sweeps"] += sum(len({tuple(row[:k]) for row in block}) for k in range(modes.size))
        out["lookups"] += block.shape[0] * modes.size
    return out


# ---------------------------------------------------------------- children


def _child_replay(name: str, seed: int, traced: bool) -> dict:
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    tr = Tracer(traced)
    tr.spans.append(["import", _T0, None, -1])
    import blsampler  # noqa: F401

    tr.spans[-1][2] = time.perf_counter()
    with tr.span("replay"):
        if w.mode == "diagnose-bounds":
            state = _replay_bounds(w, seed, tr)
        else:
            state = _replay_sampling(w, seed, tr)
    main_end = time.perf_counter()
    result = {"main_end": main_end}
    if traced:
        with tr.span("side"):
            result["counts"] = _side(w, state, tr)
        if "samples" in state:
            result["samples"] = [[int(c) for c in row] for row in state["samples"]]
        result["reports"] = state.get("reports")
    result["spans"] = tr.spans
    return result


def _child_cli(name: str, seed: int, out: str) -> dict:
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    tr = Tracer()
    tr.spans.append(["import", _T0, None, -1])
    from blsampler import cli

    tr.spans[-1][2] = time.perf_counter()
    with tr.span("cli.main"):
        code = cli.main(w.cli_args(seed, out))
    return {"code": code, "spans": tr.spans}


def _child_growth(rank: int, degree: int) -> dict:
    tr = Tracer()
    tr.spans.append(["import", _T0, None, -1])
    from blsampler import _moments

    tr.spans[-1][2] = time.perf_counter()
    with tr.span("moments.ensure"):
        tables = _moments.tables(rank)
        tables.ensure(degree)
    entries = sum(tables.size(g) for g in range(degree + 1))
    return {"entries": entries, "spans": tr.spans}


if __name__ == "__main__":
    kind, *rest = sys.argv[1:]
    if kind == "replay":
        payload = _child_replay(rest[0], int(rest[1]), rest[2] == "1")
    elif kind == "cli":
        payload = _child_cli(rest[0], int(rest[1]), rest[2])
    else:
        payload = _child_growth(int(rest[0]), int(rest[1]))
    sys.stdout.write("\n" + json.dumps(payload) + "\n")
