"""End-to-end tests of the command-line front end and its artifacts."""

import csv
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import blsampler
from blsampler.cli import (
    _STREAM_CHUNK,
    ALL_MODES,
    _build_parser,
    _json_line,
    _PCG64Seed,
    _sample_line,
    _sample_rngs,
    main,
    validate,
)
from blsampler.diagnostics import leakage_bound
from blsampler.errors import ConditioningError, SizeCapError
from blsampler.lattice import build_lattice, sample_random_circuit, source_columns
from blsampler.samplers import (
    BlockApproxSampler,
    DistinguishableFockSampler,
    TruncationPolicy,
    truncation_threshold,
)


def _stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def _read_jsonl(path):
    lines = path.read_text().splitlines()
    return [json.loads(line) for line in lines]


# ------------------------------------------------------------- validation


def test_missing_mode_is_rejected(capsys):
    assert main([]) == 2
    payload = _stderr_json(capsys)
    assert payload["error"] == "invalid-config"
    assert any("--mode" in p for p in payload["problems"])


def test_validation_collects_every_problem(capsys):
    # one rejection must name all the missing pieces, not just the first
    assert main(["--mode", "sample-exact", "--epsilon", "2.0"]) == 2
    problems = _stderr_json(capsys)["problems"]
    joined = " ".join(problems)
    for needle in (
        "--dim",
        "--sources",
        "--sublattice-edge",
        "--depth",
        "--squeezing",
        "--seed",
        "--out",
        "--epsilon",
    ):
        assert needle in joined, needle
    assert len(problems) >= 8


def test_fock_sources_reject_squeezing(capsys):
    code = main(
        [
            "--mode",
            "sample-fock",
            "--dim",
            "1",
            "--sources",
            "2",
            "--sublattice-edge",
            "2",
            "--depth",
            "1",
            "--squeezing",
            "0.5",
            "--seed",
            "1",
            "--out",
            "x.jsonl",
        ]
    )
    assert code == 2
    problems = _stderr_json(capsys)["problems"]
    assert "--squeezing has no effect in sample-fock" in problems


def test_threshold_detector_requires_squeezed_sources(capsys):
    code = main(
        [
            "--mode",
            "sample-fock",
            "--dim",
            "1",
            "--sources",
            "2",
            "--sublattice-edge",
            "2",
            "--depth",
            "1",
            "--detector",
            "threshold",
            "--seed",
            "1",
            "--out",
            "x.jsonl",
        ]
    )
    assert code == 2
    problems = _stderr_json(capsys)["problems"]
    assert any("threshold detection requires squeezed" in p for p in problems)


@pytest.mark.parametrize(
    "argv", [["bogus"], ["kernels", "selftest"]], ids=["bogus", "kernels-selftest"]
)
def test_unrecognized_positionals_are_rejected(capsys, argv):
    # the parser takes no positionals: `bls kernels selftest` is spelled
    # `bls --mode kernels-selftest`
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "invalid-config"
    assert f"unrecognized arguments: {' '.join(argv)}" in payload["message"]


def test_unknown_flag_emits_json_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--mode", "sample-exact", "--frequency", "3"])
    assert info.value.code == 2
    payload = _stderr_json(capsys)
    assert payload["error"] == "invalid-config"


# ------------------------------------------------------- sampling artifacts


def _sample_args(mode, out, seed=7, extra=()):
    args = [
        "--mode",
        mode,
        "--dim",
        "1",
        "--sources",
        "2",
        "--sublattice-edge",
        "2",
        "--depth",
        "2",
        "--samples",
        "5",
        "--seed",
        str(seed),
        "--out",
        str(out),
    ]
    if mode != "sample-fock":
        args += ["--squeezing", "0.3"]
    args += list(extra)
    return args


def test_exact_sampling_artifact_schema(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(_sample_args("sample-exact", out)) == 0
    assert "sample-exact: wrote 5 samples" in capsys.readouterr().out
    lines = _read_jsonl(out)
    assert len(lines) == 6
    config = lines[0]["config"]
    # the artifact records the experiment, not the run's plumbing
    assert "out" not in config
    assert "threads" not in config
    assert config["mode"] == "sample-exact"
    assert config["n_modes"] == 4
    assert config["epsilon"] == 1e-6
    assert config["n_total_max"] >= 2
    for i, record in enumerate(lines[1:]):
        assert record["sample_id"] == i
        assert record["stream"] == i
        assert record["seed"] == 7
        assert record["sampler"] == "exact"
        assert len(record["counts"]) == 4
        assert all(isinstance(c, int) for c in record["counts"])


def test_sampling_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(_sample_args("sample-exact", a)) == 0
    assert main(_sample_args("sample-exact", b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exact_sampling_vacuum_gives_zero_counts(tmp_path):
    out = tmp_path / "vac.jsonl"
    args = _sample_args("sample-exact", out)
    args[args.index("0.3")] = "0.0"
    assert main(args) == 0
    for record in _read_jsonl(out)[1:]:
        assert record["counts"] == [0, 0, 0, 0]


def test_threshold_detector_emits_boolean_clicks(tmp_path):
    # at the same seed the clicks are the pnr run's counts read as count >= 1
    runs = {}
    for detector in ("pnr", "threshold"):
        out = tmp_path / f"{detector}.jsonl"
        args = _sample_args("sample-approx", out, extra=("--detector", detector))
        args[args.index("0.3")], args[args.index("5")] = "1.0", "20"
        assert main(args) == 0
        runs[detector] = _read_jsonl(out)[1:]
    counts = [r["counts"] for r in runs["pnr"]]
    assert max(max(c) for c in counts) >= 2
    assert all("counts" not in r for r in runs["threshold"])
    for record, row in zip(runs["threshold"], counts, strict=True):
        assert all(isinstance(c, bool) for c in record["clicks"])
        assert record["clicks"] == [c >= 1 for c in row]


def test_approx_sampler_artifact(tmp_path):
    out = tmp_path / "approx.jsonl"
    assert main(_sample_args("sample-approx", out)) == 0
    records = _read_jsonl(out)[1:]
    assert all(r["sampler"] == "approx" for r in records)


def test_fock_sampler_conserves_photons(tmp_path):
    out = tmp_path / "fock.jsonl"
    assert main(_sample_args("sample-fock", out, seed=3)) == 0
    records = _read_jsonl(out)[1:]
    for record in records:
        assert record["sampler"] == "distinguishable"
        assert sum(record["counts"]) == 2


@pytest.mark.parametrize(
    "args, digest",
    [
        # pinned before the block sampler and the Fock sampler shared one
        # routing helper: the Fock stream must not move
        pytest.param(
            "--mode sample-fock --dim 2 --sources 4 --sublattice-edge 2 "
            "--depth 3 --samples 20 --seed 5",
            "5ba732eb2b2eaf106cf19d771ae057cf141940dc31b23f529dbdcd83d381d2b8",
            id="sample-fock",
        ),
        # pinned before circuits were applied one layer at a time: the
        # Gaussian samplers read U's source columns, which must not move
        pytest.param(
            "--mode sample-approx --dim 2 --sources 4 --sublattice-edge 2 "
            "--depth 3 --squeezing 1.0 --samples 20 --seed 5",
            # re-pinned when the budget became the exact pair quantile: 24 ->
            # 60 photons, which moves the config line and sample 19 (22 photons),
            # and when each block drew its pair count K and routed its 2K
            # photons, a leaked cell among them, which moves every sample
            "de84c494f5564a3281fa9e989bc7e7a13f8d06a0ac20bc01ada5b2403258af4e",
            id="sample-approx",
        ),
        # pinned before the records were written with tolist: clicks must
        # stay the JSON booleans of count >= 1; re-pinned with the pair-count
        # block draw
        pytest.param(
            "--mode sample-approx --dim 2 --sources 4 --sublattice-edge 2 "
            "--depth 3 --squeezing 1.0 --detector threshold --samples 20 --seed 5",
            "b9332fc5708c1fce9cdcdcd7fdd4068c9bf3cb6bea54863b3528dfa7b848ec16",
            id="sample-approx-threshold",
        ),
        pytest.param(
            "--mode sample-exact --dim 1 --sources 2 --sublattice-edge 2 "
            "--depth 2 --squeezing 0.8 --epsilon 1e-3 --samples 10 --seed 5",
            "17e564d2928e474973d7a0b40202d8c8eb89077e8f7ec83177a4a1073b4f9acf",
            id="sample-exact",
        ),
        # pinned before the enumeration streamed its last prefix level:
        # the bounds-small report must not move.  Re-pinned when the table
        # sums became ascending sums of the nonzero terms, which moved
        # only the last bits of exact_mass, tvd_table and tvd_upper, and
        # when the enumeration joined two half tables by matrix products,
        # which moved the 17th significant digit of tvd_table and tvd_upper
        pytest.param(
            "--mode diagnose-bounds --dim 1 --sources 2 --sublattice-edge 4 "
            "--depth 4 --squeezing 0.5 --samples 1 --seed 5",
            "928ae67f25a9671e4b822c798a5bc21f6d5b92cca4861182846bbc6b6585beec",
            id="diagnose-bounds",
        ),
        # pinned before the lattice geometry became arrays and the walk
        # moved onto it: leakage, and the walk at N=1, must not move
        pytest.param(
            "--mode diagnose-leakage --dim 2 --sources 4 --sublattice-edge 2 "
            "--depth 3 --samples 5 --seed 5",
            "2a7bc089d0b3e7f68a31a60b6a8ee373f9bbc6b6b1643bdb278ad68e8e739dfd",
            id="diagnose-leakage",
        ),
        pytest.param(
            "--mode diagnose-walk --dim 2 --sublattice-edge 3 --depth 3 "
            "--samples 5 --seed 5",
            "96e6339c7b6336f316dda97e65ffb978de3aa2fe3709ad47070341f18fb91b67",
            id="diagnose-walk",
        ),
        # pinned before every Gaussian probability went through one thin
        # factor: prefixes 5 and 6 have factor rank 6, the reference route
        pytest.param(
            "--mode sample-exact --dim 1 --sources 3 --sublattice-edge 2 "
            "--depth 2 --squeezing 0.1 --samples 20 --seed 5",
            "b74436ad3e17891584fdf99980b842208a86ad367bee383166ca720ae297757f",
            id="sample-exact-wide",
        ),
        # pinned before sample records skipped their zero modes: counts
        # reach three digits (119 since the pair-count block draw, which
        # re-pinned it), past the two digits of every pin above
        pytest.param(
            "--mode sample-approx --dim 1 --sources 2 --sublattice-edge 2 "
            "--depth 2 --squeezing 2.5 --samples 20 --seed 1",
            "22f4c2e4c15e6270bf8d96b421cc524632904d335269f2f388db88e981e4fa41",
            id="sample-approx-three-digit",
        ),
        # pinned before the CLI froze its start-up heap: the only pin whose
        # block draws pass the budget (50 photons at epsilon 0.5), so it holds
        # the redraw branch, taken 17 times over its 50 samples
        pytest.param(
            "--mode sample-approx --dim 1 --sources 2 --sublattice-edge 3 "
            "--depth 6 --squeezing 2.5 --epsilon 0.5 --samples 50 --seed 7",
            "eb38596366c1b6c5a471039fd2be168e24e541c455737aa2f08e5ebe9fb9a666",
            id="sample-approx-redraw",
        ),
    ],
)
def test_sampler_artifact_bytes_are_pinned(tmp_path, args, digest):
    out = tmp_path / "pinned.jsonl"
    assert main(args.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_only_the_process_entry_freezes_the_start_up_heap(tmp_path, monkeypatch):
    # main(argv) leaves an in-process caller's collector as it was; main(),
    # which bls and python -m run, freezes once and writes the same bytes
    frozen = gc.get_freeze_count()
    assert main(_sample_args("sample-approx", tmp_path / "call.jsonl")) == 0
    assert gc.get_freeze_count() == frozen
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(gc.get_freeze_count()))
    monkeypatch.setattr(sys, "argv", ["bls", *_sample_args("sample-approx",
                                                            tmp_path / "entry.jsonl")])
    assert main() == 0
    assert calls == [frozen]
    assert (tmp_path / "entry.jsonl").read_bytes() == (tmp_path / "call.jsonl").read_bytes()


def _count_vectors(rng):
    """Seeded count vectors: empty and full, ends occupied, counts 10..1e6."""
    for m in (1, 2, 5, 64, 512):
        for dtype in (np.int64, int):
            yield np.zeros(m, dtype)
            yield rng.integers(1, 10**6, m, endpoint=True).astype(dtype)
            ends = np.zeros(m, dtype)
            ends[0], ends[-1] = 10, 10**6
            yield ends
            for share in (0.01, 0.1, 0.5):
                scale = 10 ** rng.integers(1, 6, m, endpoint=True)
                counts = rng.integers(scale, 10 * scale) * (rng.random(m) < share)
                yield np.minimum(counts, 10**6).astype(dtype)


@pytest.mark.parametrize("clicks", [False, True], ids=["pnr", "threshold"])
def test_sample_line_equals_the_json_line(clicks):
    rng = np.random.default_rng(24)
    for i, counts in enumerate(_count_vectors(rng)):
        seed = int(rng.integers(0, 2**63))
        for sampler in ("exact", "approx", "distinguishable"):
            key = "clicks" if clicks else "counts"
            record = {key: (counts > 0).tolist() if clicks else counts.tolist(),
                      "sample_id": i, "sampler": sampler, "seed": seed, "stream": i}
            assert _sample_line(counts, clicks, sampler, seed, i) == _json_line(record)


# ------------------------------------------------------ sample substreams

_PAST_CHUNK = (0, 1, _STREAM_CHUNK - 1, _STREAM_CHUNK, _STREAM_CHUNK + 1)


@pytest.mark.parametrize("seed", [0, 1, 5, 2**32 - 1, 2**32, 2**64 + 3, 10**30])
def test_sample_rngs_are_the_default_rng_substreams(seed):
    # seeds of one to four uint32 words, so that [seed words..., i] also runs
    # past SeedSequence's four-word pool; i on both sides of a chunk edge
    rngs = list(_sample_rngs(seed, _STREAM_CHUNK + 2))
    assert len(rngs) == _STREAM_CHUNK + 2
    for i in _PAST_CHUNK:
        ours, oracle = rngs[i], np.random.default_rng([seed, i])
        assert ours.bit_generator.state == oracle.bit_generator.state, (seed, i)
        assert np.array_equal(ours.random(8), oracle.random(8)), (seed, i)


def test_pcg64_seed_refuses_any_other_request():
    words = np.arange(4, dtype=np.uint64)
    assert _PCG64Seed(words).generate_state(4, np.uint64) is words
    for n_words, dtype in [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)]:
        with pytest.raises(RuntimeError, match="PCG64 asked for"):
            _PCG64Seed(words).generate_state(n_words, dtype)


def test_sampling_refuses_stream_indices_past_one_word(capsys):
    # sample i's substream is default_rng([seed, i]) with i one uint32 word
    args = _build_parser().parse_args(
        _sample_args("sample-fock", "unused.jsonl", extra=("--samples", str(2**32)))
    )
    assert validate(args)[1] == []
    args.samples = 2**32 + 1
    assert validate(args)[1] == ["--samples must be <= 2**32 for sampling modes"]
    assert main(_sample_args("sample-fock", "unused.jsonl",
                             extra=("--samples", str(2**32 + 1)))) == 2
    assert _stderr_json(capsys)["problems"] == ["--samples must be <= 2**32 for sampling modes"]
    # the diagnose modes draw no per-sample substreams
    args.mode = "diagnose-leakage"
    assert "--samples must be <= 2**32 for sampling modes" not in validate(args)[1]


@pytest.mark.parametrize("mode", ["sample-approx", "sample-fock"])
def test_artifact_past_one_chunk_equals_the_default_rng_reference(tmp_path, mode):
    seed, n = 2**40 + 7, _STREAM_CHUNK + 3
    out = tmp_path / "run.jsonl"
    argv = _sample_args(mode, out, seed=seed, extra=("--samples", str(n)))
    assert main(argv) == 0
    config = validate(_build_parser().parse_args(argv))[0]
    lattice = build_lattice(1, 2, 2)
    circuit = sample_random_circuit(lattice, 2, np.random.default_rng([seed]))
    if mode == "sample-approx":
        policy = TruncationPolicy(1e-6, truncation_threshold(2, 0.3, 1e-6).n_total_max)
        draw, name = BlockApproxSampler(circuit, lattice, 0.3, policy).sample, "approx"
    else:
        draw = DistinguishableFockSampler(source_columns(circuit), lattice).sample
        name = "distinguishable"
    config.pop("out")
    lines = [_json_line({"config": config})]
    for i in range(n):
        counts = draw(np.random.default_rng([seed, i])).tolist()
        lines.append(_json_line({"counts": counts, "sample_id": i, "sampler": name,
                                 "seed": seed, "stream": i}))
    assert out.read_bytes() == "".join(lines).encode()


# ---------------------------------------------------------- artifact path

# the call that starts each mode's work once validate has passed
_FIRST_WORK = {"sample-approx": "blsampler.cli.BlockApproxSampler",
               "diagnose-leakage": "blsampler.diagnostics.leakage_rate",
               "diagnose-bounds": "blsampler.diagnostics.theorem_bound_report"}


@pytest.mark.parametrize("mode", list(_FIRST_WORK))
def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, mode):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{mode} started work on an unwritable --out")

    monkeypatch.setattr(_FIRST_WORK[mode], no_work)
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing" / "x.out", tmp_path, tmp_path / "file" / "x.out"):
        argv = ["--mode", mode, "--dim", "1", "--sources", "2", "--sublattice-edge", "2",
                "--depth", "2", "--samples", "2", "--seed", "1", "--out", str(out)]
        if mode != "diagnose-leakage":
            argv += ["--squeezing", "0.5"]
        assert main(argv) == 2
        err = _stderr_json(capsys)
        assert err["error"] == "invalid-config"
        assert err["problems"] == ["--out must name a file in an existing directory"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_out_that_cannot_be_opened_exits_two(tmp_path):
    # the directory exists, but the name is past the file system's limit, so
    # validate passes it and open fails: a JSON error, not a traceback
    proc = _cli_process(*_sample_args("sample-approx", tmp_path / ("x" * 300)))
    assert proc.returncode == 2
    errors = [json.loads(line) for line in proc.stderr.splitlines()]
    assert [e["error"] for e in errors] == ["invalid-config"]
    assert "File name too long" in errors[0]["message"]


def test_out_accepts_character_devices():
    # the benchmark streams records through a pty
    master, slave = os.openpty()
    try:
        for out in (os.ttyname(slave), os.devnull):
            args = _build_parser().parse_args(_sample_args("sample-approx", out))
            assert validate(args)[1] == []
    finally:
        os.close(master)
        os.close(slave)
    assert main(_sample_args("sample-approx", os.devnull)) == 0


# --------------------------------------------------------------- selftest


def test_kernels_selftest_writes_report(tmp_path, capsys):
    report_path = tmp_path / "selftest.json"
    assert main(["--mode", "kernels-selftest", "--out", str(report_path)]) == 0
    assert "kernels-selftest: PASS" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert len(report["checks"]) >= 5
    assert all(check["passed"] for check in report["checks"])


def test_kernels_selftest_rejects_other_flags(capsys):
    for flag, value in [("--dim", "1"), ("--epsilon", "0.5"), ("--threads", "4"),
                        ("--detector", "threshold")]:
        assert main(["--mode", "kernels-selftest", flag, value]) == 2
        problems = _stderr_json(capsys)["problems"]
        assert problems == [f"{flag} has no effect in kernels-selftest"]


@pytest.mark.parametrize("mode", ["sample-exact", "sample-approx", "diagnose-bounds"])
def test_source_type_flag_is_gone(capsys, mode):
    # the source type follows the mode; --source-type fock once reached
    # these modes' squeezing checks with no squeezing and raised TypeError
    argv = ["--mode", mode, "--source-type", "fock", "--dim", "1", "--sources", "2",
            "--sublattice-edge", "2", "--depth", "2", "--samples", "3", "--seed", "1",
            "--out", "x"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line)["error"] for line in err] == ["invalid-config"]


@pytest.mark.parametrize(
    "mode, flag, value",
    [
        ("diagnose-leakage", "--squeezing", "400"),
        ("diagnose-walk", "--squeezing", "400"),
        ("diagnose-leakage", "--epsilon", "0.5"),
        ("diagnose-walk", "--epsilon", "0.5"),
        ("diagnose-leakage", "--detector", "pnr"),
        ("diagnose-walk", "--detector", "threshold"),
        ("sample-fock", "--epsilon", "0.5"),
        ("diagnose-bounds", "--detector", "pnr"),
    ],
)
def test_modes_refuse_flags_they_never_read(capsys, mode, flag, value):
    # at --squeezing 400 the diagnose modes once exited 3 over a photon
    # budget they never use
    argv = ["--mode", mode, "--dim", "1", "--sources", "2", "--sublattice-edge", "2",
            "--depth", "2", "--samples", "3", "--seed", "1", "--out", "x", flag, value]
    if mode == "diagnose-bounds":
        argv += ["--squeezing", "0.5"]
    assert main(argv) == 2
    assert _stderr_json(capsys)["problems"] == [f"{flag} has no effect in {mode}"]


def test_threads_stays_accepted_by_every_run_mode(tmp_path, capsys):
    # the benchmark passes --threads 1; sampling has no thread pool, so any
    # other value is refused
    for mode in ("sample-approx", "diagnose-leakage", "diagnose-walk", "diagnose-bounds"):
        argv = ["--mode", mode, "--dim", "1", "--sources", "1", "--sublattice-edge", "2",
                "--depth", "1", "--samples", "2", "--seed", "3",
                "--out", str(tmp_path / mode)]
        if mode in ("sample-approx", "diagnose-bounds"):
            argv += ["--squeezing", "0.5"]
        assert main(argv + ["--threads", "1"]) == 0, mode
        assert main(argv + ["--threads", "2"]) == 2, mode
        assert _stderr_json(capsys)["problems"] == ["--threads must be 1"]


# ------------------------------------------------------------- diagnostics


def test_leakage_csv_inside_light_cone(tmp_path):
    out = tmp_path / "leak.csv"
    code = main(
        [
            "--mode",
            "diagnose-leakage",
            "--dim",
            "1",
            "--sources",
            "2",
            "--sublattice-edge",
            "4",
            "--depth",
            "2",
            "--samples",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    config = json.loads(lines[0][len("# config: ") :])
    assert config["mode"] == "diagnose-leakage"
    assert "out" not in config
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 3
    assert set(rows[0]) == {"circuit", "eta_max", "bound", "eta_0", "eta_1"}
    for row in rows:
        # depth 2 keeps every source cone inside its home block
        assert float(row["eta_max"]) < 1e-12
        assert float(row["bound"]) == pytest.approx(leakage_bound(1, 4, 2))


def test_walk_defaults_to_single_source(tmp_path):
    out = tmp_path / "walk.csv"
    code = main(
        [
            "--mode",
            "diagnose-walk",
            "--dim",
            "1",
            "--sublattice-edge",
            "8",
            "--depth",
            "3",
            "--samples",
            "50",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    config = json.loads(lines[0][len("# config: ") :])
    assert config["n_sources"] == 1
    assert config["n_modes"] == 8
    assert config["walk_source"] == 4
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 4 * 8  # depths 0..3, eight modes each
    for depth in range(4):
        total = sum(
            float(r["empirical"]) for r in rows if r["depth"] == str(depth)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "args, walk_source",
    [
        # a 2 x 4 grid of two edge-2 squares: a valid lattice, not a cube
        ("--dim 2 --sources 2 --sublattice-edge 2", 5),
        # two edge-4 cubes: the sources are modes 2 and 6, not the centre 4
        ("--dim 1 --sources 2 --sublattice-edge 4", 2),
    ],
    ids=["2d-two-sources", "1d-two-sources"],
)
def test_walk_runs_on_the_lattice_from_source_zero(tmp_path, args, walk_source):
    out = tmp_path / "walk.csv"
    argv = ["--mode", "diagnose-walk", *args.split(), "--depth", "2", "--samples", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    config = json.loads(lines[0][len("# config: ") :])
    assert config["walk_source"] == walk_source
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 3 * config["n_modes"]
    start = [float(r["theory"]) for r in rows if r["depth"] == "0"]
    assert start.index(1.0) == walk_source


def _traced_peak(argv, samples: int) -> int:
    assert main(argv + ["--samples", "2"]) == 0  # imports and caches out of the peak
    tracemalloc.start()
    try:
        assert main(argv + ["--samples", str(samples)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_csv_streams_its_rows(tmp_path):
    # 21 x 1024 rows take about 6 MiB held as dicts; written as they are
    # made, the run peaks near 0.7 MiB
    out = tmp_path / "walk.csv"
    argv = ["--mode", "diagnose-walk", "--dim", "1", "--sublattice-edge", "1024",
            "--depth", "20", "--out", str(out)]
    peak = _traced_peak(argv, 2)
    assert peak < 3 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"
    assert len(out.read_text().splitlines()) == 2 + 21 * 1024


def test_leakage_csv_streams_its_rows(tmp_path):
    # 5000 one-mode circuits take about 1.3 MiB as a row list; streamed,
    # the peak is what one circuit needs, 0.2 MiB at any circuit count
    out = tmp_path / "leak.csv"
    argv = ["--mode", "diagnose-leakage", "--dim", "1", "--sources", "1",
            "--sublattice-edge", "1", "--depth", "0", "--out", str(out)]
    peak = _traced_peak(argv, 5000)
    assert peak < 2**19, f"traced peak {peak / 2**20:.2f} MiB"
    assert len(out.read_text().splitlines()) == 2 + 5000


def test_bounds_json_artifact(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(
        [
            "--mode",
            "diagnose-bounds",
            "--dim",
            "1",
            "--sources",
            "2",
            "--sublattice-edge",
            "2",
            "--depth",
            "2",
            "--squeezing",
            "0.4",
            "--samples",
            "2",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["mode"] == "diagnose-bounds"
    assert len(payload["reports"]) == 2
    for index, report in enumerate(payload["reports"]):
        assert report["instance"] == index
        assert report["tvd_table"] <= report["tvd_upper"] + 1e-12
        assert report["eta_max"] >= 0.0
        assert math.isfinite(report["tvd_bound"])


# --------------------------------------------------------------- failures


@pytest.mark.parametrize(
    "args",
    [
        # five squeezers on single-mode blocks exceed every enumeration path
        ["--mode", "diagnose-bounds", "--sources", "5", "--sublattice-edge", "1",
         "--depth", "1", "--squeezing", "0.5"],
        # a 168-photon budget sweeps to degree 336, past the moment tables
        ["--mode", "sample-exact", "--sources", "1", "--sublattice-edge", "2",
         "--depth", "2", "--squeezing", "1.5", "--epsilon", "1e-100",
         "--samples", "3", "--seed", "1"],
        # each of these would ask numpy for more than 2**47 bytes, so a
        # missing guard fails at once rather than paging memory in
        ["--mode", "diagnose-leakage", "--dim", "3", "--sources", "1",
         "--sublattice-edge", "100000", "--depth", "1", "--samples", "1"],
        ["--mode", "sample-approx", "--dim", "3", "--sources", "1",
         "--sublattice-edge", "100000", "--depth", "1", "--squeezing", "0.5",
         "--samples", "1", "--seed", "1"],
        ["--mode", "diagnose-walk", "--sublattice-edge", "1000", "--depth", "1",
         "--samples", str(10**12)],
        ["--mode", "diagnose-walk", "--sublattice-edge", "1000",
         "--depth", str(10**13), "--samples", "2"],
        # M = 8e6 passes the 4096-mode cap on dense 2M x 2M covariances
        ["--mode", "sample-exact", "--sources", "2", "--sublattice-edge",
         "4000000", "--depth", "1", "--squeezing", "0.5", "--samples", "1",
         "--seed", "1"],
        ["--mode", "diagnose-bounds", "--sources", "2", "--sublattice-edge",
         "4000000", "--depth", "1", "--squeezing", "0.5", "--samples", "1"],
        # 2^20 one-mode blocks: M passes, but the M x N source columns hold
        # 2^40 entries (16 TiB)
        ["--mode", "sample-fock", "--sources", "1048576", "--sublattice-edge", "1",
         "--depth", "0", "--samples", "1", "--seed", "1"],
        ["--mode", "diagnose-leakage", "--sources", "1048576", "--sublattice-edge",
         "1", "--depth", "0", "--samples", "1"],
    ],
    ids=["enumeration", "moment-degree", "leakage-modes", "approx-modes",
         "walk-trials", "walk-depth", "exact-dense-modes", "bounds-dense-modes",
         "fock-columns", "leakage-columns"],
)
def test_size_cap_exits_three(tmp_path, capsys, args):
    code = main(["--dim", "1", *args, "--out", str(tmp_path / "cap.out")])
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "size-cap"


@pytest.mark.parametrize("depth", [10**9, 10**12])
def test_size_cap_refuses_deep_circuits_in_validate(depth):
    # a deep sample-approx circuit allocates a layer at a time and would run
    # until memory ran out, so check validate alone: nothing runs if it passes
    args = _build_parser().parse_args(
        ["--mode", "sample-approx", "--dim", "1", "--sources", "8",
         "--sublattice-edge", "64", "--depth", str(depth), "--squeezing", "0.5",
         "--seed", "3", "--out", "unused.jsonl"]
    )
    with pytest.raises(SizeCapError, match="depth"):
        validate(args)
    # the largest planned depth-threshold runs stay under the cap
    for dim, sources, edge, depth in [(1, 2, 512, 6865), (2, 2, 128, 863)]:
        args.dim, args.sources, args.edge, args.depth = dim, sources, edge, depth
        assert validate(args)[1] == []


def _cli_process(*args):
    """Run ``bls`` in a separate process, so that warnings and tracebacks
    reach stderr as they would for a user."""
    src = os.path.dirname(os.path.dirname(blsampler.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("BLS_LOG", None)
    return subprocess.run(
        [sys.executable, "-m", "blsampler.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("squeezing", ["nan", "inf", "200", "380", "400", "1e308"])
@pytest.mark.parametrize("mode", ["sample-exact", "sample-approx", "diagnose-bounds"])
def test_out_of_range_squeezing_fails_cleanly(tmp_path, mode, squeezing):
    proc = _cli_process(
        "--mode", mode, "--dim", "1", "--sources", "2", "--sublattice-edge", "2",
        "--depth", "2", "--squeezing", squeezing, "--samples", "2", "--seed", "1",
        "--out", str(tmp_path / "out"),
    )
    assert proc.returncode in (2, 3), proc.stderr
    if squeezing in ("nan", "inf"):
        assert proc.returncode == 2
    else:
        # the pair count's tail at the budget cap is above epsilon (it is 1
        # once sech^2 r underflows to 0, from r ~ 372)
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "size-cap"
    for line in proc.stderr.splitlines():
        json.loads(line)


@pytest.mark.parametrize("mode", ["sample-exact", "sample-approx", "diagnose-bounds"])
def test_budget_past_its_cap_is_refused_in_validate(tmp_path, capsys, mode):
    # the budget's cap keeps N * (B + 2) within MAX_MODE_CELLS, and in
    # sample-exact also the moment tables' comb(2B + 4, 4) entries
    out = tmp_path / "out"
    for squeezing in ("50", "200", "380", "400", "1e308"):
        argv = ["--mode", mode, "--dim", "1", "--sources", "2", "--sublattice-edge", "2",
                "--depth", "2", "--squeezing", squeezing, "--samples", "2", "--seed", "1",
                "--out", str(out)]
        start = time.perf_counter()
        with pytest.raises(SizeCapError, match="photon budget above"):
            validate(_build_parser().parse_args(argv))
        assert time.perf_counter() - start < 0.5, squeezing
        assert main(argv) == 3
        assert _stderr_json(capsys)["error"] == "size-cap"
        assert not out.exists()


def test_block_draws_past_the_cap_are_refused_in_validate(tmp_path, capsys):
    # epsilon 0.9999 gives r = 12 a 104-photon budget, but each block draw
    # would still land about sinh^2 r = 7e9 photons before its redraw
    out = tmp_path / "out"
    argv = ["--mode", "sample-approx", "--dim", "1", "--sources", "1",
            "--sublattice-edge", "2", "--depth", "2", "--squeezing", "12",
            "--epsilon", "0.9999", "--samples", "2", "--seed", "1", "--out", str(out)]
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match="block draws past the cap"):
        validate(_build_parser().parse_args(argv))
    assert time.perf_counter() - start < 0.5
    assert main(argv) == 3
    assert _stderr_json(capsys)["error"] == "size-cap"
    assert not out.exists()
    # the bound report draws no pairs, so the same budget is its to take
    config, _ = validate(_build_parser().parse_args(["--mode", "diagnose-bounds", *argv[2:]]))
    assert config["n_total_max"] == 104


def test_exact_budget_past_the_moment_tables_is_refused(tmp_path, capsys):
    # r = 1.45 needs 124 photons: comb(252, 4) = 1.6e8 table entries
    argv = ["--dim", "1", "--sources", "2", "--sublattice-edge", "2", "--depth", "2",
            "--squeezing", "1.45", "--samples", "2", "--seed", "1",
            "--out", str(tmp_path / "out")]
    assert main(["--mode", "sample-exact", *argv]) == 3
    assert "photon budget above 98" in _stderr_json(capsys)["message"]
    assert main(["--mode", "sample-approx", *argv]) == 0
    config = _read_jsonl(tmp_path / "out")[0]["config"]
    assert config["n_total_max"] == 124


def test_bounds_past_the_enumeration_rank_is_refused(tmp_path, capsys):
    # five one-mode blocks: the pure state has rank 10, past the four factor
    # columns the enumeration takes; epsilon 0.8 keeps the budget small
    # enough that this config once ran a reference hafnian per outcome
    out = tmp_path / "bounds.json"
    argv = ["--mode", "diagnose-bounds", "--dim", "1", "--sources", "5",
            "--sublattice-edge", "1", "--depth", "2", "--squeezing", "1.45",
            "--epsilon", "0.8", "--samples", "1", "--out", str(out)]
    assert main(argv) == 3
    err = _stderr_json(capsys)
    assert err["error"] == "size-cap"
    assert "state rank 10 " in err["message"]
    assert not out.exists()


def test_walk_with_one_trial_is_refused_before_any_work(tmp_path):
    # one trial has no stderr: it once wrote NaN cells, and numpy's
    # RuntimeWarnings reached stderr as plain text
    out = tmp_path / "walk.csv"
    proc = _cli_process(
        "--mode", "diagnose-walk", "--dim", "1", "--sublattice-edge", "8",
        "--depth", "3", "--samples", "1", "--out", str(out),
    )
    assert proc.returncode == 2
    errors = [json.loads(line) for line in proc.stderr.splitlines()]
    assert [e["error"] for e in errors] == ["invalid-config"]
    assert "--samples must be >= 2 for diagnose-walk" in errors[0]["problems"]
    assert not out.exists()


def test_numerical_failure_exits_four(monkeypatch, capsys):
    def boom(config):
        raise ConditioningError("covariance not positive definite")

    monkeypatch.setattr("blsampler.cli.run", boom)
    assert main(["--mode", "kernels-selftest"]) == 4
    payload = _stderr_json(capsys)
    assert payload["error"] == "numerical"
    assert "positive definite" in payload["message"]


def test_log_environment_variable_smoke(monkeypatch, tmp_path):
    monkeypatch.setenv("BLS_LOG", "info")
    assert main(["--mode", "kernels-selftest"]) == 0


def _fuzz_argv(rng, out, flag_rng):
    """One seeded CLI config from the ranges the contract fuzz covers;
    ``flag_rng`` draws --detector and --threads, so ``rng``'s configs
    stay those the fuzz has always run."""
    mode = rng.choice([m for m in ALL_MODES if m != "kernels-selftest"])
    argv = ["--mode", mode, "--dim", str(rng.randint(1, 2)),
            "--sources", str(rng.randint(1, 3)),
            "--sublattice-edge", str(rng.randint(1, 3)),
            "--depth", str(rng.randint(0, 5)), "--samples", str(rng.randint(2, 3)),
            "--seed", str(rng.randrange(1000)), "--out", str(out)]
    if rng.random() < 0.8:
        argv += ["--squeezing", str(rng.choice([0, 0.05, 0.5, 1, 2.5, 50, 200, 400]))]
    if rng.random() < 0.7:
        argv += ["--epsilon", str(rng.choice([1e-12, 1e-6, 0.3]))]
    detector = flag_rng.choice([None, "pnr", "threshold"])
    if detector is not None:
        argv += ["--detector", detector]
    threads = flag_rng.choice([None, 0, 1, 2])
    if threads is not None:
        argv += ["--threads", str(threads)]
    return argv


def test_seeded_config_fuzz_keeps_the_exit_contract(tmp_path, capsys, monkeypatch):
    # every config either runs or is refused with a documented exit code
    # and JSON-only stderr, never a traceback; none fails mid-run (exit 4)
    monkeypatch.delenv("BLS_LOG", raising=False)
    rng, flag_rng = random.Random(2024), random.Random(2025)
    ran = 0
    for i in range(200):
        argv = _fuzz_argv(rng, tmp_path / f"out{i}", flag_rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2, 3), argv
        for line in capsys.readouterr().err.splitlines():
            if line.strip():
                json.loads(line)
        ran += code == 0
    assert ran > 0
