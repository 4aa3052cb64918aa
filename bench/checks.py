"""Output checks: each artifact against a closed form computed here.

Every check returns a list of problems; an empty list means the output
passed.  Statistical checks use a z bound of ``Z_BOUND`` standard errors.
Twenty runs of every workload make at most a few thousand such tests, so at
5.5 sigma the chance of one false alarm stays below 1e-4 even allowing for
the skew of photon counts; the bound is set by that noise floor, not by any
known defect.
"""

from __future__ import annotations

import json
import math

import numpy as np

from blsampler import (
    accumulate_unitary,
    block_approx_covariance,
    build_lattice,
    enumerate_gbs_distribution,
    quad_to_complex,
    sample_random_circuit,
    state_covariance,
    truncation_threshold,
)

Z_BOUND = 5.5
# Null replicates used to measure the TVD noise floor of an exact run.
TVD_REPLICATES = 200
TVD_FLOOR_SIGMAS = 6.0
# Smallest expected count for which a bin gets its own z test.
MIN_EXPECTED = 20.0


def circuit_for(workload, seed: int):
    """The lattice and circuit the CLI builds for this workload and seed."""
    lattice = build_lattice(workload.dim, workload.sources, workload.edge)
    circuit = sample_random_circuit(lattice, workload.depth, np.random.default_rng([seed]))
    return lattice, circuit


def mode_set_moments(sigma: np.ndarray, modes) -> tuple[float, float]:
    """Mean and variance of the photon total over ``modes`` of a zero-mean
    Gaussian state with complex covariance ``sigma`` (a, a^+ ordering).

    ``<a_j^+ a_k> = Sigma_kj - delta_jk / 2`` and ``<a_j a_k> = Sigma_j,k+M``;
    Isserlis' theorem gives ``Cov(n_j, n_k) = |<a_j^+ a_k>|^2 + |<a_j a_k>|^2
    + delta_jk <n_j>``.
    """
    m = sigma.shape[0] // 2
    idx = np.asarray(modes, dtype=int)
    normal = sigma[np.ix_(idx, idx)] - np.eye(idx.size) / 2.0
    anomalous = sigma[np.ix_(idx, idx + m)]
    mean = float(np.trace(normal).real)
    var = float((np.abs(normal) ** 2).sum() + (np.abs(anomalous) ** 2).sum()) + mean
    return mean, var


def z_problems(label: str, observed_mean: float, mean: float, var: float, n: int) -> list[str]:
    if var <= 0.0:
        return [] if abs(observed_mean - mean) <= 1e-12 else [
            f"{label}: mean {observed_mean} but the closed form is exactly {mean}"
        ]
    z = (observed_mean - mean) / math.sqrt(var / n)
    return [] if abs(z) <= Z_BOUND else [
        f"{label}: mean {observed_mean:.5g} vs closed form {mean:.5g} (z = {z:.2f})"
    ]


def parse_jsonl(workload, seed: int, artifact: bytes) -> tuple[np.ndarray | None, list[str]]:
    """Count matrix of a sampling artifact, plus format problems."""
    try:
        rows = [json.loads(line) for line in artifact.splitlines()]
    except ValueError as exc:
        return None, [f"artifact is not JSON lines: {exc}"]
    if not rows or "config" not in rows[0]:
        return None, ["artifact lacks its config line"]
    config, records = rows[0]["config"], rows[1:]
    problems = []
    for key, want in [("mode", workload.mode), ("seed", seed), ("n_samples", workload.samples)]:
        if config.get(key) != want:
            problems.append(f"config {key} = {config.get(key)!r}, expected {want!r}")
    if len(records) != workload.samples:
        return None, problems + [f"{len(records)} records, expected {workload.samples}"]
    counts = np.zeros((len(records), workload.n_modes), dtype=np.int64)
    for i, rec in enumerate(records):
        if rec.get("sample_id") != i or rec.get("stream") != i or rec.get("seed") != seed:
            return None, problems + [f"record {i} has ids {rec}"]
        row = rec.get("counts")
        if not isinstance(row, list) or len(row) != workload.n_modes:
            return None, problems + [f"record {i} has no {workload.n_modes}-mode counts"]
        counts[i] = row
    if (counts < 0).any():
        problems.append("negative photon count")
    return counts, problems


class Oracle:
    """Closed forms for one (workload, seed), built once and reused."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.lattice, self.circuit = circuit_for(workload, seed)
        self.policy = None
        if workload.squeezing is not None:
            self.policy = truncation_threshold(workload.sources, workload.squeezing, 1e-6)
        if workload.mode == "sample-exact":
            sigma = quad_to_complex(
                state_covariance(self.circuit, self.lattice, workload.squeezing)
            )
            self.sigma = sigma.matrix
            table = enumerate_gbs_distribution(sigma, self.policy)
            self.table_mass = table.mass
            self.table_counts = np.asarray(table.counts, dtype=np.int64)
            self.table_probs = np.asarray(table.probs) / table.mass
            self.tvd_threshold = self._tvd_floor()
        elif workload.mode == "sample-approx":
            blocks = block_approx_covariance(self.circuit, self.lattice, workload.squeezing)
            self.block_moments = [
                mode_set_moments(quad_to_complex(b).matrix, range(b.n_modes))
                for b in blocks.blocks
            ]
        elif workload.mode == "sample-fock":
            u = accumulate_unitary(self.circuit)
            self.weights = np.abs(u[:, list(self.lattice.sources)]) ** 2  # M x N

    # ---------------------------------------------------------- exact
    def _keys(self, counts: np.ndarray) -> np.ndarray:
        base = self.policy.n_total_max + 1
        return counts @ (base ** np.arange(counts.shape[1], dtype=np.int64))

    def _tvd_floor(self) -> float:
        """Mean + TVD_FLOOR_SIGMAS sd of the TVD between the exact table and
        ``samples`` draws from it: the noise floor an exact sampler sits on."""
        n = self.workload.samples
        rng = np.random.default_rng([self.seed, 0x7D])
        draws = rng.choice(self.table_probs.size, size=(TVD_REPLICATES, n), p=self.table_probs)
        values = []
        for row in draws:
            idx, freq = np.unique(row, return_counts=True)
            q = self.table_probs[idx]
            values.append(0.5 * (np.abs(freq / n - q).sum() + 1.0 - q.sum()))
        values = np.array(values)
        return float(values.mean() + TVD_FLOOR_SIGMAS * values.std())

    def tvd(self, counts: np.ndarray) -> float:
        n = counts.shape[0]
        keys, freq = np.unique(self._keys(counts), return_counts=True)
        table_keys = self._keys(self.table_counts)
        order = np.argsort(table_keys)
        pos = np.searchsorted(table_keys[order], keys)
        pos = np.minimum(pos, order.size - 1)
        found = table_keys[order[pos]] == keys
        q = np.where(found, self.table_probs[order[pos]], 0.0)
        return float(0.5 * (np.abs(freq / n - q).sum() + 1.0 - q[found].sum()))

    # ---------------------------------------------------------- checks
    def check_samples(self, counts: np.ndarray) -> list[str]:
        w = self.workload
        n = counts.shape[0]
        problems: list[str] = []
        if w.mode == "sample-exact":
            if (counts.sum(axis=1) > self.policy.n_total_max).any():
                problems.append("sample above the photon budget")
            for j in range(w.n_modes):
                mean, var = mode_set_moments(self.sigma, [j])
                problems += z_problems(f"mode {j}", counts[:, j].mean(), mean, var, n)
            value = self.tvd(counts)
            if value > self.tvd_threshold:
                problems.append(
                    f"TVD {value:.4f} against the exact table exceeds the noise "
                    f"floor {self.tvd_threshold:.4f}"
                )
        elif w.mode == "sample-approx":
            for b, (modes, (mean, var)) in enumerate(zip(self.lattice.sublattices, self.block_moments)):
                totals = counts[:, list(modes)].sum(axis=1)
                if (totals > self.policy.n_total_max).any():
                    problems.append(f"block {b} above the photon budget")
                problems += z_problems(f"block {b}", totals.mean(), mean, var, n)
        elif w.mode == "sample-fock":
            if (counts.sum(axis=1) != w.sources).any():
                problems.append(f"a sample does not hold exactly {w.sources} photons")
            problems += self._fock_bins(counts)
        return problems

    def _fock_bins(self, counts: np.ndarray) -> list[str]:
        """Per-mode counts against sum_s |U[j, s]|^2.  Modes expected to
        receive fewer than MIN_EXPECTED photons are pooled into one bin;
        modes the light cone never reaches must stay empty."""
        n = counts.shape[0]
        per_mode = self.weights.sum(axis=1)
        problems = []
        dark = per_mode == 0.0
        if counts[:, dark].any():
            problems.append("photon in a mode outside every light cone")
        own = n * per_mode >= MIN_EXPECTED
        bins = [np.array([j]) for j in np.flatnonzero(own)]
        bins.append(np.flatnonzero(~own & ~dark))
        for modes in bins:
            p = self.weights[modes].sum(axis=0)  # per-photon landing probability
            mean, var = float(p.sum()), float((p * (1.0 - p)).sum())
            if n * mean < MIN_EXPECTED:
                continue
            label = f"mode {modes[0]}" if modes.size == 1 else f"{modes.size} pooled modes"
            problems += z_problems(label, counts[:, modes].sum(axis=1).mean(), mean, var, n)
        return problems


def check_bounds_report(workload, seed: int, payload: bytes, instances: int) -> list[str]:
    """diagnose-bounds: finite fields, table TVD under its upper bound,
    infidelity in [0, 1]."""
    try:
        doc = json.loads(payload)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    config = doc.get("config", {})
    if config.get("seed") != seed or config.get("n_samples") != instances:
        problems.append(f"config seed/n_samples = {config.get('seed')}/{config.get('n_samples')}")
    reports = doc.get("reports", [])
    if len(reports) != instances:
        return problems + [f"{len(reports)} reports, expected {instances}"]
    for i, rep in enumerate(reports):
        for key, value in rep.items():
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                problems.append(f"instance {i}: {key} is not finite")
        missing = [k for k in ("tvd_table", "tvd_upper", "infidelity_measured")
                   if not isinstance(rep.get(k), (int, float))]
        if missing:
            problems.append(f"instance {i}: {', '.join(missing)} missing")
            continue
        if not rep["tvd_table"] <= rep["tvd_upper"]:
            problems.append(f"instance {i}: tvd_table {rep['tvd_table']} > tvd_upper {rep['tvd_upper']}")
        if not 0.0 <= rep["infidelity_measured"] <= 1.0:
            problems.append(f"instance {i}: infidelity_measured {rep['infidelity_measured']}")
    return problems


def stderr_problems(stderr: bytes) -> list[str]:
    """stderr may carry JSON objects only."""
    problems = []
    for line in stderr.decode(errors="replace").splitlines():
        if not line.strip():
            continue
        try:
            json.loads(line)
        except ValueError:
            problems.append(f"non-JSON stderr: {line[:120]}")
    return problems
