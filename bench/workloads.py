"""The benchmark's workloads: one fixed `bls` config each.

Sample and instance counts are sized so that one invocation does enough
work after the first result for its rate to be measured, while a run of
30 s still holds several invocations on a 2-vCPU machine.  BENCHMARK.json
lists approx-large and bounds-small; README.md says why the others are not
listed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    dim: int
    sources: int
    edge: int
    depth: int
    squeezing: float | None
    samples: int
    why: str

    @property
    def n_modes(self) -> int:
        return self.sources * self.edge**self.dim

    def cli_args(self, seed: int, out: str, samples: int | None = None) -> list[str]:
        args = [
            "--mode", self.mode,
            "--dim", str(self.dim),
            "--sources", str(self.sources),
            "--sublattice-edge", str(self.edge),
            "--depth", str(self.depth),
        ]
        if self.squeezing is not None:
            args += ["--squeezing", repr(self.squeezing), "--epsilon", "1e-06"]
        args += [
            "--samples", str(self.samples if samples is None else samples),
            "--seed", str(seed),
            "--threads", "1",
            "--out", out,
        ]
        return args


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "exact-small", "sample-exact", 1, 2, 2, 4, 0.5, 100,
            "small exact config: cold rank-4 moment-table growth, few distinct "
            "prefixes, so the conditional cache absorbs the sweeps",
        ),
        Workload(
            "exact-bright", "sample-exact", 1, 2, 2, 4, 1.0, 300,
            "same lattice at r=1: the budget cap binds, many distinct prefixes, "
            "so time goes to conditional sweeps rather than table growth",
        ),
        Workload(
            "approx-large", "sample-approx", 1, 8, 64, 64, 0.5, 150,
            "large block config: block covariance, 512 Takagi factorizations "
            "at engine init, then per-block chain-rule draws",
        ),
        Workload(
            "fock-large", "sample-fock", 2, 8, 8, 16, None, 5000,
            "the only sampler that never touches gaussian, kernels or _moments; "
            "2-d lattice; JSONL writing is about half the time",
        ),
        Workload(
            "bounds-small", "diagnose-bounds", 1, 2, 4, 4, 0.5, 3,
            "the only workload of the diagnostics layer: enumeration, product "
            "table and TVD; largest peak memory",
        ),
    ]
}
