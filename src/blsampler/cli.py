"""Command-line front end: configure, sample, diagnose, emit artifacts.

Modes
-----
``sample-exact``      chain-rule sampling of the full Gaussian state
``sample-approx``     per-sublattice sampling of the block approximation
``sample-fock``       distinguishable-particle single-photon sampling
``diagnose-leakage``  per-circuit leakage rates vs the diffusive bound (CSV)
``diagnose-walk``     mean column-weight profile vs the averaging map (CSV)
``diagnose-bounds``   full approximation-error chain per instance (JSON)
``kernels-selftest``  oracle-equivalence suite for the matrix kernels

Sampling artifacts are JSON lines: compact, key-sorted JSON, one record
per line.  The first line carries the full normalized config, each
following line one sample
``{"counts"|"clicks", "sample_id", "sampler", "seed", "stream"}``.
Rerunning a sampling mode with the same config and seed reproduces the
file byte for byte: sample i draws from its own ``default_rng([seed, i])``
substream, which ``_sample_rngs`` derives a chunk of samples at a time.

Exit codes: 0 success, 2 invalid config (an ``--out`` that cannot be
written included), 3 oracle/kernel scale exceeded (a photon budget past
its cap included, refused in ``validate``), 4 numerical conditioning or
sampling failure.  stderr receives JSON error objects only (enabling
``BLS_LOG`` adds human-readable log lines).

Each runner imports only what its mode runs: the fast samplers load no
Gaussian, kernel or diagnostics module, ``sample-exact`` no diagnostics,
the ``diagnose-*`` modes no chain-rule engine, and ``kernels-selftest`` no
Gaussian or diagnostics module.  The artifact writers live here.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConditioningError, SamplingError, SizeCapError
from .lattice import MAX_MODE_CELLS, build_lattice, sample_random_circuit, source_columns
from .samplers import (
    BlockApproxSampler,
    DistinguishableFockSampler,
    TruncationPolicy,
    check_block_draws,
    truncation_threshold,
)

__all__ = ["main", "validate", "run"]

SAMPLING_MODES = ("sample-exact", "sample-approx", "sample-fock")
DIAGNOSE_MODES = ("diagnose-leakage", "diagnose-walk", "diagnose-bounds")
ALL_MODES = SAMPLING_MODES + DIAGNOSE_MODES + ("kernels-selftest",)
_STREAM_CHUNK = 1024  # sample substreams seeded per numpy pass

# --samples means: samples per run, circuits, trials, or instances.
_DEFAULT_SAMPLES = {
    "sample-exact": 100,
    "sample-approx": 100,
    "sample-fock": 100,
    "diagnose-leakage": 100,
    "diagnose-walk": 1000,
    "diagnose-bounds": 1,
}

# Optional flags a mode never reads; giving one is refused.  The source
# type follows the mode: sample-fock has single photons, the rest squeezers.
_UNREAD = {
    "kernels-selftest": ("dim", "sources", "edge", "depth", "squeezing",
                         "detector", "epsilon", "samples", "seed", "threads"),
    "sample-fock": ("squeezing", "epsilon"),
    "diagnose-leakage": ("squeezing", "detector", "epsilon"),
    "diagnose-walk": ("squeezing", "detector", "epsilon"),
    "diagnose-bounds": ("detector",),
}

EXIT_INVALID_CONFIG = 2
EXIT_SIZE_CAP = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures keep stderr machine-readable."""

    def error(self, message):
        _emit_error("invalid-config", message)
        raise SystemExit(EXIT_INVALID_CONFIG)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bls",
        description="Sample photon-number outcomes of random linear-optical "
        "circuits and check the approximation bounds that justify the fast "
        "samplers.",
        epilog="--squeezing and --epsilon apply to sample-exact, sample-approx and "
        "diagnose-bounds, --detector to the sampling modes; other modes refuse them.",
    )
    parser.add_argument("--mode", choices=ALL_MODES, help="what to run")
    parser.add_argument("--dim", type=int, help="lattice dimension d >= 1")
    parser.add_argument("--sources", type=int, help="number of sources N >= 1")
    parser.add_argument(
        "--sublattice-edge",
        type=int,
        dest="edge",
        help="modes per sublattice edge L >= 1 (M = N * L^d)",
    )
    parser.add_argument("--depth", type=int, help="brickwork rounds D >= 0")
    parser.add_argument("--squeezing", type=float, help="squeezing r >= 0")
    parser.add_argument(
        "--detector",
        choices=("pnr", "threshold"),
        help="photon-number-resolving or threshold clicks (default pnr)",
    )
    parser.add_argument(
        "--epsilon", type=float, help="truncation tail target (default 1e-6)"
    )
    parser.add_argument(
        "--samples",
        type=int,
        help="samples / circuits / trials / instances depending on mode",
    )
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--threads", type=int, help="accepted only as 1")
    parser.add_argument("--out", help="artifact path")
    return parser


def validate(args) -> tuple[dict, list[str]]:
    """Normalize a parsed command line; collect every violation."""
    problems: list[str] = []
    mode = args.mode
    if mode is None:
        problems.append("--mode is required")
        return {}, problems

    config: dict = {"mode": mode}
    unread = _UNREAD.get(mode, ())
    for name in unread:
        if getattr(args, name) is not None:
            flag = "sublattice-edge" if name == "edge" else name
            problems.append(f"--{flag} has no effect in {mode}")
    out = args.out  # a character device such as a pty passes
    if out is not None and (os.path.isdir(out)
                            or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
        problems.append("--out must name a file in an existing directory")
    if mode == "kernels-selftest":
        config["out"] = args.out
        return config, problems

    squeezing = None
    if "squeezing" not in unread:
        squeezing = args.squeezing
        if squeezing is None:
            problems.append(f"--squeezing is required for {mode}")
        elif not (0.0 <= squeezing < math.inf):
            problems.append("--squeezing must be finite and >= 0")

    detector = args.detector or "pnr"
    if detector == "threshold" and mode == "sample-fock":
        problems.append("threshold detection requires squeezed sources")

    for name, label, least in [
        ("dim", "--dim", 1),
        ("sources", "--sources", 1),
        ("edge", "--sublattice-edge", 1),
        ("depth", "--depth", 0),
    ]:
        value = getattr(args, name)
        if value is None:
            if not (mode == "diagnose-walk" and name == "sources"):
                problems.append(f"{label} is required for {mode}")
        elif value < least:
            problems.append(f"{label} must be >= {least}")

    epsilon = args.epsilon if args.epsilon is not None else 1e-6
    if not 0.0 < epsilon < 1.0:
        problems.append("--epsilon must lie in (0, 1)")

    n_samples = args.samples if args.samples is not None else _DEFAULT_SAMPLES[mode]
    if n_samples < 1:
        problems.append("--samples must be >= 1")
    elif n_samples < 2 and mode == "diagnose-walk":
        problems.append("--samples must be >= 2 for diagnose-walk")
    elif n_samples > 2**32 and mode in SAMPLING_MODES:  # stream i is one uint32 word
        problems.append("--samples must be <= 2**32 for sampling modes")

    seed = args.seed
    if seed is None:
        if mode in SAMPLING_MODES:
            problems.append("--seed is required for sampling modes")
        else:
            seed = 0
    elif seed < 0:
        problems.append("--seed must be >= 0")

    if args.threads not in (None, 1):
        problems.append("--threads must be 1")

    if args.out is None:
        problems.append("--out is required")

    config.update(
        dim=args.dim,
        n_sources=args.sources,
        edge=args.edge,
        depth=args.depth,
        squeezing=squeezing,
        source_type="fock" if mode == "sample-fock" else "squeezed",
        detector=detector,
        epsilon=epsilon,
        n_samples=n_samples,
        seed=seed,
        out=args.out,
    )
    if problems:
        return config, problems

    if mode == "diagnose-walk" and args.sources is None:
        config["n_sources"] = 1
    # Python ints, so nothing overflows; an edge >= 2 passes the cap well
    # before numpy's 64 axes, so the exponent stops there.
    m = config["n_sources"] * config["edge"] ** min(config["dim"], 64)
    walk = n_samples * m if mode == "diagnose-walk" else 0
    # every mode but the walk builds the M x N source columns
    columns = config["n_sources"] * m if mode != "diagnose-walk" else 0
    # sample-exact and diagnose-bounds build dense 2M x 2M covariances, so
    # M stops at 4096 there; ROADMAP items 1 and 2 replace this cap with
    # one set from the exact engine's real cost
    dense = (2 * m) ** 2 if mode in ("sample-exact", "diagnose-bounds") else 0
    for label, size in [("N * L^d modes", m), ("depth * M", config["depth"] * m),
                        ("samples * M walk amplitudes", walk),
                        ("N * M source-column entries", columns),
                        ("(2M)^2 dense covariance entries", dense)]:
        if size > MAX_MODE_CELLS:
            raise SizeCapError(f"{label} exceeds the cap of {MAX_MODE_CELLS}")
    try:
        lattice = build_lattice(config["dim"], config["n_sources"], config["edge"])
    except ValueError as exc:
        problems.append(str(exc))
        return config, problems
    config.update(
        n_modes=lattice.n_modes,
        k_scale=lattice.k_scale,
        gamma_scale=lattice.gamma_scale,
    )
    if squeezing is not None:
        ceiling = None  # truncation_threshold's default cap
        if mode == "sample-exact":  # the engine's moment tables set its own
            from .chainrule import _MAX_PHOTONS as ceiling
        policy = truncation_threshold(config["n_sources"], squeezing, epsilon, ceiling)
        if mode == "sample-approx":  # its draws land 2K photons whatever the budget
            check_block_draws(config["n_sources"], squeezing, policy)
        config.update(
            n_total_max=policy.n_total_max, n_mode_max=policy.n_mode_max
        )
    return config, problems


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _sample_line(counts: np.ndarray, clicks: bool, sampler: str, seed: int, i: int) -> str:
    """``_json_line`` of sample record ``i`` in O(occupied modes): zeros go
    out as runs of one token, and only the occupied modes are formatted.
    ``sampler`` is written as is, so it must need no JSON escaping."""
    zero = "false," if clicks else "0,"
    occupied = counts.nonzero()[0]
    parts, start = [], 0
    for j, value in zip(occupied.tolist(), counts[occupied].tolist()):
        parts += (zero * (j - start), "true," if clicks else f"{value},")
        start = j + 1
    parts.append(zero * (len(counts) - start))
    return (f'{{"{"clicks" if clicks else "counts"}":[{"".join(parts)[:-1]}],'
            f'"sample_id":{i},"sampler":"{sampler}","seed":{seed},"stream":{i}}}\n')


def _write_json(path, payload) -> None:
    """Write a report as pretty, key-sorted JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, fieldnames, rows, config: dict) -> None:
    """Write rows as CSV, preceded by a ``# config:`` comment line."""
    import csv  # here, so that the sampling modes never load it

    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _embedded(config: dict, **extra) -> dict:
    # The artifact describes the experiment, not where it is written, so
    # the same experiment produces the same bytes wherever it runs.
    out = {k: v for k, v in config.items() if k != "out"}
    out.update(extra)
    return out


class _PCG64Seed(ISeedSequence):
    """One substream's PCG64 seed words, as its ``SeedSequence`` hashes them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise RuntimeError(f"PCG64 asked for {n_words} {np.dtype(dtype)} seed words")
        return self.words


def _sample_rngs(seed: int, n: int):
    """Yield ``np.random.default_rng([seed, i])`` for i < n <= 2**32, bit for
    bit: numpy's ``SeedSequence`` hash of ``[seed words..., i]``, a fixed uint32
    mix (NEP 19), runs here on a chunk of i at once, step for step as it does."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> 16
    def mix(pool, dst, value):  # pool word dst mixed with hashmix(value)
        r = pool[dst] * np.uint32(0xCA01F9DD) - hashmix(value) * np.uint32(0x4973F715)
        pool[dst] = r ^ r >> 16
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    for start in range(0, n, _STREAM_CHUNK):
        index = np.arange(start, min(start + _STREAM_CHUNK, n), dtype=np.uint32)
        entropy = [np.full_like(index, w) for w in words] + [index]
        const, mult = 0x43B0D7E5, 0x931E8875  # mix_entropy's hashmix constants
        pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros_like(index))
                for k in range(4)]
        for src, dst in [(s, d) for s in range(4) for d in range(4) if s != d]:
            mix(pool, dst, pool[src])
        for word, dst in [(w, d) for w in entropy[4:] for d in range(4)]:
            mix(pool, dst, word)
        const, mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, np.uint64)
        state = np.stack([hashmix(pool[k % 4]) for k in range(8)], axis=1)
        for row in state.astype("<u4").view("<u8").astype(np.uint64):
            yield np.random.Generator(np.random.PCG64(_PCG64Seed(row)))


def _run_sampling(config: dict) -> str:
    lattice = build_lattice(config["dim"], config["n_sources"], config["edge"])
    circuit = sample_random_circuit(
        lattice, config["depth"], np.random.default_rng([config["seed"]])
    )
    mode, r = config["mode"], config["squeezing"]
    if mode != "sample-fock":
        policy = TruncationPolicy(config["epsilon"], config["n_total_max"])
    if mode == "sample-exact":
        from .chainrule import ChainRuleEngine
        from .gaussian import quad_to_complex, state_covariance

        sigma = quad_to_complex(state_covariance(circuit, lattice, r))
        draw = ChainRuleEngine(sigma, policy).sample
        sampler_name = "exact"
    elif mode == "sample-approx":
        draw = BlockApproxSampler(circuit, lattice, r, policy).sample
        sampler_name = "approx"
    else:
        draw = DistinguishableFockSampler(source_columns(circuit), lattice).sample
        sampler_name = "distinguishable"

    seed, n = config["seed"], config["n_samples"]
    clicks = config["detector"] == "threshold"  # a click is a count >= 1
    with open(config["out"], "w") as fh:
        fh.write(_json_line({"config": _embedded(config)}))
        for i, rng in enumerate(_sample_rngs(seed, n)):
            fh.write(_sample_line(draw(rng), clicks, sampler_name, seed, i))
    return f"wrote {n} samples to {config['out']}"


def _run_leakage(config: dict) -> str:
    from .diagnostics import leakage_rate

    lattice = build_lattice(config["dim"], config["n_sources"], config["edge"])
    rng = np.random.default_rng([config["seed"]])
    eta_cols = [f"eta_{i}" for i in range(lattice.n_sources)]

    def rows():  # one circuit at a time, straight to the file
        for index in range(config["n_samples"]):
            circuit = sample_random_circuit(lattice, config["depth"], rng)
            report = leakage_rate(source_columns(circuit), lattice, config["depth"])
            yield {"circuit": index, "eta_max": report.eta_max, "bound": report.bound,
                   **dict(zip(eta_cols, report.per_source_eta))}

    _write_csv(
        config["out"],
        ["circuit", "eta_max", "bound", *eta_cols],
        rows(),
        config=_embedded(config),
    )
    return f"measured {config['n_samples']} circuits -> {config['out']}"


def _run_walk(config: dict) -> str:
    from .diagnostics import random_walk_profile

    profile = random_walk_profile(
        build_lattice(config["dim"], config["n_sources"], config["edge"]),
        config["depth"],
        config["n_samples"],
        np.random.default_rng([config["seed"]]),
    )
    rows = (
        {"depth": t, "mode": j, "empirical": profile.empirical[t, j],
         "stderr": profile.stderr[t, j], "theory": profile.theory[t, j]}
        for t, j in np.ndindex(profile.empirical.shape)
    )
    _write_csv(
        config["out"],
        ["depth", "mode", "empirical", "stderr", "theory"],
        rows,
        config=_embedded(config, walk_source=profile.source),
    )
    return f"profiled {config['n_samples']} trials -> {config['out']}"


def _run_bounds(config: dict) -> str:
    from .diagnostics import theorem_bound_report

    lattice = build_lattice(config["dim"], config["n_sources"], config["edge"])
    rng = np.random.default_rng([config["seed"]])
    policy = TruncationPolicy(config["epsilon"], config["n_total_max"])
    reports = []
    for index in range(config["n_samples"]):
        circuit = sample_random_circuit(lattice, config["depth"], rng)
        report = theorem_bound_report(circuit, config["squeezing"], policy=policy)
        reports.append({"instance": index, **report})
    _write_json(config["out"], {"config": _embedded(config), "reports": reports})
    return f"evaluated {len(reports)} instances -> {config['out']}"


def _run_selftest(config: dict) -> tuple[str, int]:
    from .kernels import run_selftest

    report = run_selftest()
    if config.get("out"):
        _write_json(config["out"], report)
    n_checks = len(report["checks"])
    n_ok = sum(1 for c in report["checks"] if c["passed"])
    status = "PASS" if report["passed"] else "FAIL"
    return f"{status} {n_ok}/{n_checks} kernel checks", (
        0 if report["passed"] else EXIT_NUMERICAL
    )


def run(config: dict) -> int:
    """Execute a validated config; print the one-line summary."""
    start = time.perf_counter()
    code = 0
    if config["mode"] in SAMPLING_MODES:
        summary = _run_sampling(config)
    elif config["mode"] == "diagnose-leakage":
        summary = _run_leakage(config)
    elif config["mode"] == "diagnose-walk":
        summary = _run_walk(config)
    elif config["mode"] == "diagnose-bounds":
        summary = _run_bounds(config)
    else:
        summary, code = _run_selftest(config)
    elapsed = time.perf_counter() - start
    print(f"{config['mode']}: {summary} in {elapsed:.2f}s")
    return code


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    """Run ``bls`` on ``argv``, or on ``sys.argv[1:]`` as the process entry.
    As the entry, it first freezes the start-up heap (``gc.freeze``), so no
    collection walks the ~22,000 objects the imports left; the one at exit
    did, and that was most of the interpreter's teardown.  A caller's heap
    is its own, so ``main(argv)`` leaves the collector as it was."""
    if argv is None:
        gc.freeze()
    level = os.environ.get("BLS_LOG")
    if level:
        import logging

        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level.upper(), logging.WARNING),
            format="%(levelname)s %(name)s: %(message)s",
        )
    args = _build_parser().parse_args(argv)
    try:
        config, problems = validate(args)
        if problems:
            _emit_error(
                "invalid-config", "configuration rejected", problems=problems
            )
            return EXIT_INVALID_CONFIG
        return run(config)
    except SizeCapError as exc:
        _emit_error("size-cap", str(exc))
        return EXIT_SIZE_CAP
    except (ConditioningError, SamplingError, OverflowError) as exc:
        _emit_error("numerical", str(exc))
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # OSError: the artifact could not be written
        _emit_error("invalid-config", str(exc))
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
