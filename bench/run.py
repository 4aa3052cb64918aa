"""Benchmark of the `bls` CLI: end-to-end metrics, or a traced breakdown.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Load model: a closed loop with one client.  One fresh `bls` process runs
at a time with ``--threads 1``, every run cold (the moment tables are
rebuilt in each process, as users pay on every invocation).  Invocation j
of a run uses the CLI seed ``1000 * seed + j``, so one run covers several
circuits; the first circuit is run again at the end and its artifact must
be byte-identical.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; everything else (environment, every
invocation, spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in the benchmark and in every program it starts: a
# single-threaded baseline whose run-to-run spread on a 2-vCPU machine is
# about half that of the two-thread default (measured on approx-large).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

from clirun import run_cli, run_process  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run starts no new invocation that its median so far says would end
# after the deadline, but makes at least this many distinct ones.
MIN_DISTINCT = 3
MIN_DISTINCT_PAIRS = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import_s": "s",
    "lattice.circuit_s": "s",
    "state_s": "s",
    "first_result_s": "s",
    "result_us.p50": "us",
    "result_us.p99": "us",
    "library_s": "s",
    "cli.run_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
    "kernels.takagi_calls": "count",
    "moments.table_entries": "count",
    "moments.table_bytes": "B",
    "samplers.sweeps": "count",
    "samplers.cache_hit_ratio": "ratio",
    "samplers.dropped_mass": "ratio",
    "diagnostics.outcomes": "count",
    "cli.bytes_written": "B",
}
# Counts taken from a run's first circuit only (CLI seed 1000 * seed), so
# that they repeat exactly at one seed whatever the number of iterations.
EXACT_COUNTS = (
    "kernels.takagi_calls",
    "moments.table_entries",
    "moments.table_bytes",
    "samplers.sweeps",
    "samplers.cache_hit_ratio",
    "samplers.dropped_mass",
    "diagnostics.outcomes",
    "cli.bytes_written",
    "samplers.lookups",
    "moments.table_rank",
    "moments.table_degree",
)
LIBRARY_LAYERS = ("lattice", "gaussian", "kernels", "moments", "samplers", "diagnostics")


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- untraced


class Untraced:
    """Closed loop of CLI invocations with an output check on each."""

    def __init__(self, w, seed: int, seconds: float):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.records: list[dict] = []

    def run(self) -> None:
        deadline = time.perf_counter() + self.seconds
        base = 1000 * self.seed
        step = self._pair if self.w.mode == "diagnose-bounds" else self._sample
        least = MIN_DISTINCT_PAIRS if self.w.mode == "diagnose-bounds" else MIN_DISTINCT
        durations = []
        j = 0
        while True:
            began = time.perf_counter()
            step(base + j)
            durations.append(time.perf_counter() - began)
            j += 1
            # reserve room for the next invocation and the final rerun
            reserve = (1 if self.w.mode == "diagnose-bounds" else 2) * median(durations)
            if j >= least and time.perf_counter() + reserve > deadline:
                break
        if self.w.mode != "diagnose-bounds":
            self._sample(base, expect=self.records[0]["digest"])

    def _sample(self, cli_seed: int, expect: str | None = None) -> None:
        from checks import Oracle, parse_jsonl, stderr_problems

        w = self.w
        inv = run_cli(str(SRC), lambda out: w.cli_args(cli_seed, out))
        rec = {"seed": cli_seed, "wall_s": inv.wall_s, "peak_rss_mb": inv.peak_rss_mb,
               "code": inv.code, "rerun": expect is not None}
        problems = [] if inv.code == 0 else [f"exit code {inv.code}"]
        problems += stderr_problems(inv.stderr)
        artifact = inv.artifact
        rec["digest"] = digest(artifact)
        if len(inv.lines) == w.samples + 1:
            t_first, t_last = inv.lines[1][0], inv.lines[-1][0]
            rec["setup_s"] = t_first - inv.start
            if t_last > t_first:
                rec["samples_per_s"] = (w.samples - 1) / (t_last - t_first)
        if expect is not None:
            if rec["digest"] != expect:
                problems.append("artifact differs from the first run at this seed")
        else:
            counts, parse = parse_jsonl(w, cli_seed, artifact)
            problems += parse
            if counts is not None:
                problems += Oracle(w, cli_seed).check_samples(counts)
        rec["problems"] = problems
        self.records.append(rec)

    def _pair(self, cli_seed: int) -> None:
        """diagnose-bounds writes its report at the end, so set-up is the
        wall of a one-instance run at the same seed; its instance must equal
        the first instance of the full run."""
        from checks import check_bounds_report, stderr_problems

        w = self.w
        OUT.mkdir(exist_ok=True)
        payloads = {}
        for instances in (w.samples, 1):
            path = OUT / f"{w.name}-{cli_seed}-{instances}.json"
            inv = run_cli(str(SRC), lambda out: w.cli_args(cli_seed, out, samples=instances),
                          out_path=str(path))
            problems = [] if inv.code == 0 else [f"exit code {inv.code}"]
            problems += stderr_problems(inv.stderr)
            payload = path.read_bytes() if path.exists() else b""
            path.unlink(missing_ok=True)
            problems += check_bounds_report(w, cli_seed, payload, instances)
            payloads[instances] = payload
            self.records.append({
                "seed": cli_seed, "instances": instances, "wall_s": inv.wall_s,
                "peak_rss_mb": inv.peak_rss_mb, "code": inv.code,
                "digest": digest(payload), "problems": problems,
            })
        try:
            full, one = (json.loads(payloads[n])["reports"][0] for n in (w.samples, 1))
        except (ValueError, KeyError, IndexError):
            return  # already reported as a malformed report
        if full != one:
            self.records[-1]["problems"].append(
                "first instance differs from the full run at this seed")

    def metrics(self) -> dict:
        ok = [r for r in self.records if not r["problems"]] or self.records
        if self.w.mode == "diagnose-bounds":
            full = median([r["wall_s"] for r in ok if r["instances"] == self.w.samples])
            one = median([r["wall_s"] for r in ok if r["instances"] == 1])
            values = {
                "wall_s": full,
                "setup_s": one,
                "samples_per_s": (self.w.samples - 1) / (full - one) if full > one else float("nan"),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in ok if r["instances"] == self.w.samples]),
            }
        else:
            values = {
                "wall_s": median([r["wall_s"] for r in ok]),
                "setup_s": median([r["setup_s"] for r in ok if "setup_s" in r]),
                "samples_per_s": median([r["samples_per_s"] for r in ok if "samples_per_s" in r]),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
            }
        return values


# ---------------------------------------------------------------- traced


def trace_child(args: list[str]):
    inv = run_process([sys.executable, str(BENCH / "tracing.py"), *args], str(SRC))
    payload = None
    if inv.code == 0:
        try:
            payload = json.loads(inv.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            payload = None
    return inv, payload


class Traced:
    """Per-layer metrics from traced replays, one circuit per iteration."""

    def __init__(self, w, seed: int, seconds: float):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.iterations: list[dict] = []
        self.spans: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self) -> None:
        deadline = time.perf_counter() + self.seconds
        durations = []
        j = 0
        while True:
            began = time.perf_counter()
            known = len(self.problems)
            self._iteration(1000 * self.seed + j, run_id=j)
            self.attempted += 1
            self.failed += len(self.problems) > known
            durations.append(time.perf_counter() - began)
            j += 1
            if time.perf_counter() + median(durations) > deadline:
                break

    def _child(self, args, what):
        inv, payload = trace_child(args)
        if payload is None:
            self.problems.append(f"{what}: exit {inv.code}: {inv.stderr.decode()[-300:]}")
        return inv, payload

    def _iteration(self, cli_seed: int, run_id: int) -> None:
        from checks import Oracle, check_bounds_report, parse_jsonl
        from tracing import layer, self_times

        w = self.w
        # alternate which replay runs first, so drift does not bias the overhead
        order = ("1", "0") if run_id % 2 == 0 else ("0", "1")
        replays = {flag: self._child(["replay", w.name, str(cli_seed), flag], f"replay traced={flag}")
                   for flag in order}
        (traced_inv, traced), (plain_inv, plain) = replays["1"], replays["0"]
        OUT.mkdir(exist_ok=True)
        out = OUT / f"{w.name}-{cli_seed}-trace-artifact"
        cli_inv, cli = self._child(["cli", w.name, str(cli_seed), str(out)], "in-process cli")
        artifact = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        if traced is None or plain is None or cli is None:
            return
        if cli["code"] != 0:
            self.problems.append(f"seed {cli_seed}: cli.main returned {cli['code']}")
        counts = traced["counts"]
        growth_s = 0.0
        if counts["table_rank"]:
            _, growth = self._child(
                ["growth", str(counts["table_rank"]), str(counts["table_degree"])], "table growth")
            if growth is not None:
                growth_s = growth["spans"][1][2] - growth["spans"][1][1]
                counts["table_entries"] = growth["entries"]

        # the replay must reproduce the CLI's output, and that output must pass
        if w.mode == "diagnose-bounds":
            self.problems += check_bounds_report(w, cli_seed, artifact, w.samples)
            reports = json.loads(artifact)["reports"] if artifact else []
            for mine, theirs in zip(traced["reports"], reports):
                if any(theirs.get(k) != v for k, v in mine.items()):
                    self.problems.append(f"seed {cli_seed}: replayed report differs from the CLI's")
        else:
            parsed, parse = parse_jsonl(w, cli_seed, artifact)
            self.problems += parse
            if parsed is not None:
                self.problems += Oracle(w, cli_seed).check_samples(parsed)
                if parsed.tolist() != traced["samples"]:
                    self.problems.append(f"seed {cli_seed}: replayed samples differ from the CLI's")

        spans = traced["spans"]
        own = self_times(spans)
        names = [s[0] for s in spans]
        top: list[int] = []  # index of each span's root span; parents come first
        for i, (_, _, _, parent) in enumerate(spans):
            top.append(i if parent < 0 else top[parent])
        under_replay = {i for i in range(len(spans)) if names[top[i]] == "replay"}
        import_span = spans[names.index("import")]

        def total(pred) -> float:
            return sum(s[2] - s[1] for i, s in enumerate(spans) if pred(i, s[0]))

        def in_main(prefixes):
            return lambda i, n: i in under_replay and n.startswith(prefixes)

        def in_side(prefixes):
            return lambda i, n: i not in under_replay and n.startswith(prefixes)

        self_by_layer: dict[str, float] = {}
        for i in under_replay:
            self_by_layer[layer(names[i])] = self_by_layer.get(layer(names[i]), 0.0) + own[i]
        library_s = sum(v for k, v in self_by_layer.items() if k in LIBRARY_LAYERS)
        unit = "replay.instance" if w.mode == "diagnose-bounds" else "samplers.sample"
        results = [s[2] - s[1] for i, s in enumerate(spans) if s[0] == unit and i in under_replay]
        import_s = import_span[2] - import_span[1]
        cli_main = next(s for s in cli["spans"] if s[0] == "cli.main")
        cli_import = next(s for s in cli["spans"] if s[0] == "import")
        cli_run_s = cli_main[2] - cli_main[1]
        traced_wall = traced["main_end"] - traced_inv.start
        plain_wall = plain["main_end"] - plain_inv.start
        lookups = counts["lookups"]
        rank = counts["table_rank"]
        layer_values = {
            "import_s": import_s,
            "lattice.circuit_s": total(in_main(("lattice.build_lattice", "lattice.sample_random_circuit"))),
            "state_s": total(in_main(("gaussian.", "lattice.accumulate_unitary"))),
            "first_result_s": results[0],
            "result_us.p50": 1e6 * median(results[1:] or results),
            "result_us.p99": 1e6 * percentile(results[1:] or results, 99),
            "library_s": library_s,
            "cli.run_s": cli_run_s,
            "cli.overhead_s": cli_run_s - library_s,
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.accounted_frac": (cli_import[2] - cli_import[1] + cli_run_s) / cli_inv.wall_s,
            "kernels.takagi_calls": counts["takagi_calls"],
            "moments.table_entries": counts.get("table_entries", 0),
            "moments.table_bytes": counts.get("table_entries", 0) * 8 * (rank + 2),
            "samplers.sweeps": counts["sweeps"],
            "samplers.cache_hit_ratio": 1.0 - counts["sweeps"] / lookups if lookups else 0.0,
            "samplers.dropped_mass": counts["dropped_mass"],
            "diagnostics.outcomes": counts["outcomes"],
            "cli.bytes_written": len(artifact),
        }
        # the metrics named by module, where the workload calls that module
        named = {
            "lattice.unitary_s": total(in_main(("lattice.accumulate_unitary",))),
            "gaussian.covariance_s": total(in_main(("gaussian.state_covariance", "gaussian.quad_to_complex"))),
            "gaussian.block_covariance_s": total(in_main(("gaussian.block_approx_covariance",))),
            "gaussian.a_matrix_s": total(in_side(("gaussian.a_matrix",))),
            "kernels.takagi_s": total(in_side(("kernels.takagi_factor",))),
            "moments.table_growth_s": growth_s,
            "samplers.init_s": total(in_main(("samplers.ChainRuleEngine", "samplers.BlockApproxSampler"))),
            "samplers.lookups": lookups,
            "diagnostics.enumerate_s": total(in_main(("diagnostics.enumerate_gbs_distribution",))),
            "diagnostics.product_s": total(in_main(("diagnostics.product_distribution",))),
            "diagnostics.tvd_s": total(in_main(("diagnostics.tvd",))),
            "interpreter_s": cli_inv.wall_s - cli_run_s - (cli_import[2] - cli_import[1]),
            "moments.table_rank": rank,
            "moments.table_degree": counts["table_degree"],
        }
        named.update({f"self_s.{k}": v for k, v in self_by_layer.items()})
        self.iterations.append({"seed": cli_seed, "per_layer": layer_values, "detail": named,
                                "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
                                "cli_wall_s": cli_inv.wall_s})
        self.spans += [{"name": n, "start": a, "end": b, "parent": p, "run": run_id}
                       for n, a, b, p in spans]

    def metrics(self) -> tuple[dict, dict]:
        if not self.iterations:
            return {k: float("nan") for k in PER_LAYER}, {}

        def combine(part: str) -> dict:
            first = self.iterations[0][part]
            return {k: first[k] if k in EXACT_COUNTS else median([it[part][k] for it in self.iterations])
                    for k in first}

        return combine("per_layer"), combine("detail")


# ---------------------------------------------------------------- env


def environment(seed: int) -> dict:
    import numpy as np

    info = {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = None
    info["blas_threads"] = _blas_threads(np)
    info["git_commit"] = _git_commit()
    h = hashlib.sha256()
    for path in sorted((SRC / "blsampler").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = h.hexdigest()
    return info


def _blas_threads(np) -> int | None:
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# ---------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    began = time.perf_counter()
    if trace:
        runner = Traced(w, seed, seconds)
        runner.run()
        values, detail = runner.metrics()
        units = PER_LAYER
        attempted = runner.attempted
        failed = runner.failed
        problems = runner.problems
        extra = {"iterations": runner.iterations, "detail": detail}
    else:
        runner = Untraced(w, seed, seconds)
        runner.run()
        values, detail = runner.metrics(), {}
        units = END_TO_END
        attempted = len(runner.records)
        failed = sum(1 for r in runner.records if r["problems"])
        problems = [f"seed {r['seed']}: {p}" for r in runner.records for p in r["problems"]]
        extra = {"invocations": runner.records}
    missing = [k for k in units if not math.isfinite(values[k])]
    if missing:
        # a number is owed for every metric; the run is marked failed instead
        problems.append(f"no measurement for {', '.join(missing)}")
        failed = max(failed, 1)
        values = {k: v if math.isfinite(v) else 0.0 for k, v in values.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {"workload": name, "trace": int(trace), "seconds": seconds,
              "elapsed_s": time.perf_counter() - began, "environment": environment(seed),
              "failed_frac": failed / attempted, "problems": problems, "result": result, **extra}
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(runner.spans) + "\n")
    _print_summary(name, result, record, detail)
    return result


def _print_summary(name: str, result: dict, record: dict, detail: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_frac {record['failed_frac']:.4g} ratio")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in record["environment"].items()))
    for key, metric in result["metrics"].items():
        print(f"  {key:28s} {metric['value']:.6g} {metric['unit']}")
    for key in sorted(detail):
        print(f"  {key:28s} {detail[key]:.6g}")
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "blsampler" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'blsampler'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
