#!/usr/bin/env python3
"""End-to-end benchmark for the TeAAL workspace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the `teaal` binary (root workspace) and the in-process harness
(`perfbench/harness`, graph driver + traced layer passes) into
`$CARGO_TARGET_DIR` (default `.bench_build`), generates every input from
`--seed` into a scratch directory under the checkout, runs the workload,
checks its outputs, and prints a human-readable summary followed by one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` a separate traced run prints the
per-layer metrics (layer spans are taken by the harness around calls
into each layer's public functions) and the tracing overhead.

A failed output check prints `"correct": false` and exits 1. See
perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPECS = ("gamma", "extensor", "outerspace", "sigma")
WORKLOADS = ("catalog_cold", "serve_warm")
# The end-to-end metrics of BENCHMARK.json (bounded), then three the
# summary prints beside them unbounded: the p50 and p99 of single
# operations, which mix operation kinds of very different length (only
# on serve_warm are they alike, and there wall_s already is 200 of them
# back to back), and the throughput, which is the reciprocal of wall_s.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
SUMMARY_ONLY = {
    "p50_ms": "ms",
    "p99_ms": "ms",
    "ops_per_s": "1/s",
}
# Full daemon set-ups (generation, start, warm-up) per serve_warm run.
SERVE_SETUPS = 3
GRAPH_RUNS = [
    f"{d}.{a}" for d in ("graphicionado", "graphdyns", "proposal") for a in ("bfs", "sssp")
]
PIPELINE_STAGES = ("spec", "plan", "transform", "report")
PER_LAYER = (
    ["workloads.gen_ms"]
    + [f"core.parse_ms.{s}" for s in SPECS]
    + [f"sim.compile_ms.{s}" for s in SPECS]
    + [f"sim.transform_ms.{s}" for s in SPECS]
    + ["fibertree.transform_execs"]
    + [f"sim.execute_ms.{s}" for s in SPECS]
    + [f"rss.{s}_mb" for s in SPECS]
    + [f"sim.threads2_ratio.{s}" for s in SPECS]
    + ["fibertree.decompress_count"]
    + [f"sim.{c}.{s}" for c in ("cycles", "dram_bytes", "muls", "z_nnz") for s in SPECS]
    + [f"explore.{c}.{s}" for c in ("estimator_evals", "engine_evals") for s in SPECS]
    + ["sim.estimate_us_per_candidate", "sim.verify_ms_per_candidate"]
    + [
        f"pipeline.{st}.{c}"
        for st in PIPELINE_STAGES
        for c in ("hits", "misses", "bytes", "evictions", "hit_ratio")
    ]
    + ["pipeline.bytes_vs_rss"]
    + ["fibertree.content_hash_ms.A", "fibertree.content_hash_ms.B"]
    + ["request.hit_ms"]
    + ["serve.ping_rtt_us", "serve.shed", "serve.served_err"]
    + [f"graph.superstep_ms.{r}" for r in GRAPH_RUNS]
    + [f"graph.supersteps.{r}" for r in GRAPH_RUNS]
    + [f"graph.apply_ops.{r}" for r in GRAPH_RUNS]
    + ["trace.overhead_ms", "trace.overhead_ratio"]
)
# Unit of a per-layer metric: the first token its name contains.
PER_LAYER_UNITS = (
    ("_ms", "ms"),
    ("_us", "us"),
    ("_mb", "MB"),
    ("ratio", "ratio"),
    ("bytes_vs_rss", "ratio"),
    ("bytes", "bytes"),
    ("cycles", "cycles"),
)
# Every catalog spec's mapspace size for its last einsum: the number of
# loop orders the mapper must estimate.
EXPLORE_CANDIDATES = {"gamma": 120, "extensor": 720, "outerspace": 120, "sigma": 12}


class CheckFailed(Exception):
    """An output check failed: the program computed something wrong."""


class BenchError(Exception):
    """The benchmark could not run (no source tree, build failure, ...)."""


def per_layer_unit(name):
    return next((unit for token, unit in PER_LAYER_UNITS if token in name), "count")


# ----------------------------------------------------------------------
# Sizes
# ----------------------------------------------------------------------


def sizes(toy):
    """Input sizes per workload (`--toy` shrinks them for the self-check)."""
    if toy:
        return {
            "catalog": (60, 300),
            "check": (40, 160),
            "explore": (24, 100),
            "graph_scale": 4000,
            "serve_probe": (24, 60),
        }
    return {
        # A[K,M], B[K,N]: K = M = N = dim, nnz each.
        "catalog": (1000, 25000),
        # Value check of `teaal output` against the reference SpGEMM.
        "check": (250, 2500),
        "explore": (128, 1600),
        # The `fl` stand-in (820k vertices) at 1/scale, average degree 4.
        "graph_scale": 64,
        # Tensors of the ping-only daemon in traced runs.
        "serve_probe": (32, 64),
    }


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """Nearest-rank percentile."""
    values = sorted(values)
    k = max(0, min(len(values) - 1, int(-(-p * len(values) // 100)) - 1))
    return values[k]


class Deadline:
    """The run's overall budget; every child process gets what is left."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


def run_child(argv, deadline):
    """Runs one child to completion (reaped also on timeout); returns
    (stdout, wall_s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(argv[:3])}")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}: {err.strip()[-400:]}")
    return out, wall


def timed_child(argv, deadline, stdout_path):
    """Runs a child with stdout to a file; returns (stdout, wall_s,
    maxrss_mb). `os.wait4` gives this child's own peak RSS; a timer
    kills the child if the run's budget runs out."""
    with open(stdout_path, "w") as out, open(stdout_path + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(deadline.left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(stdout_path + ".err") as f:
            tail = f.read()[-400:]
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}: {tail.strip()}")
    with open(stdout_path) as f:
        text = f.read()
    return text, wall, usage.ru_maxrss / 1024.0


def harness_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise BenchError("harness printed nothing")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Build and host facts
# ----------------------------------------------------------------------


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        raise BenchError("no workspace at the checkout root: nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "teaal", "--bin", "teaal"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "harness", "Cargo.toml"),
        ],
    ):
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=deadline.left(),
        )
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    bins = {
        "teaal": os.path.join(target, "release", "teaal"),
        "harness": os.path.join(target, "release", "perfbench-harness"),
    }
    for path in bins.values():
        if not os.path.isfile(path):
            raise BenchError(f"missing build output {path}")
    return bins


def host_facts():
    try:
        rustc = subprocess.run(
            ["rustc", "-V"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        rev = rev.stdout.strip() if rev.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        rev = ""
    if not rev:
        # A checkout without git metadata: identify the source tree by
        # content instead.
        h = hashlib.sha256()
        for base in ("Cargo.toml", "Cargo.lock", "crates", "vendor"):
            path = os.path.join(ROOT, base)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            )
            for f in sorted(files):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
        rev = "source-sha256:" + h.hexdigest()[:16]
    return {"cpus": os.cpu_count(), "rustc": rustc, "revision": rev}


# ----------------------------------------------------------------------
# Inputs and references (all computed by the benchmark itself)
# ----------------------------------------------------------------------


def gen_matrix(path, name, ranks, dim, nnz, rng):
    """A uniform sparse `dim x dim` matrix with exactly `nnz` distinct
    entries in (0.5, 1.5), written in the tensor file format with the
    einsum's declaration rank order. Returns {(row, col): value}."""
    coords = set()
    while len(coords) < nnz:
        coords.add((rng.randrange(dim), rng.randrange(dim)))
    entries = {c: rng.uniform(0.5, 1.5) for c in sorted(coords)}
    with open(path, "w") as f:
        f.write(f"# tensor {name} ranks {ranks[0]},{ranks[1]} shape {dim},{dim}\n")
        f.write("".join(f"{r} {c} {v!r}\n" for (r, c), v in entries.items()))
    return entries


def gen_inputs(work, tag, dim, nnz, rng):
    """A[K,M] and B[K,N] (declaration order of every catalog spec)."""
    a_path = os.path.join(work, f"{tag}_A.tns")
    b_path = os.path.join(work, f"{tag}_B.tns")
    a = gen_matrix(a_path, "A", "KM", dim, nnz, rng)
    b = gen_matrix(b_path, "B", "KN", dim, nnz, rng)
    return {"A": a_path, "B": b_path, "a": a, "b": b}


def input_rng(seed, dim, nnz):
    """Inputs depend only on the seed and the size, so every workload
    and the traced run see the same A,B at the same size."""
    return random.Random(f"{seed}/{dim}x{nnz}")


def timed_gen(work, tag, dim, nnz, seed, times):
    """Generates the inputs (the same files for the same seed), appends
    the seconds it took to `times` and returns the inputs."""
    t0 = time.perf_counter()
    inputs = gen_inputs(work, tag, dim, nnz, input_rng(seed, dim, nnz))
    times.append(time.perf_counter() - t0)
    return inputs


def by_row(m):
    rows = {}
    for (r, c), v in m.items():
        rows.setdefault(r, []).append((c, v))
    return rows


def reference_counts(a, b):
    """Cascade multiplies Σ_k nnz(A[k,:])·nnz(B[k,:]) and nnz(Z) of
    Z[m,n] = Σ_k A[k,m]·B[k,n]."""
    ra, rb = by_row(a), by_row(b)
    muls = 0
    out = set()
    for k, arow in ra.items():
        brow = rb.get(k)
        if not brow:
            continue
        muls += len(arow) * len(brow)
        ns = [n for n, _ in brow]
        for m, _ in arow:
            base = m << 32
            out.update(base | n for n in ns)
    return muls, len(out)


def reference_values(a, b):
    ra, rb = by_row(a), by_row(b)
    z = {}
    for k, arow in ra.items():
        for m, av in arow:
            for n, bv in rb.get(k, ()):
                z[(m, n)] = z.get((m, n), 0.0) + av * bv
    return z


def spec_path(name):
    return os.path.join(ROOT, "crates", "fixtures", "specs", f"{name}_em.yaml")


def spec_loop_order(source, einsum):
    """The catalog loop order of `einsum` from a spec's mapping."""
    in_block = False
    for line in source.splitlines():
        if line.strip() == "loop-order:":
            in_block = True
            continue
        if in_block:
            m = re.match(r"\s+(\w+):\s*\[(.*)\]", line)
            if not m:
                break
            if m.group(1) == einsum:
                return ",".join(r.strip() for r in m.group(2).split(","))
    raise BenchError(f"no loop order for {einsum}")


def report_counts(report):
    """Per-einsum (name, muls, out_writes) from a simulation report."""
    return [
        (m.group(1), int(m.group(2)), int(m.group(3)))
        for m in re.finditer(r"einsum (\w+): muls=(\d+) .*?out_writes=(\d+)", report)
    ]


def check_catalog_report(spec, report, want_muls, want_nnz):
    counts = report_counts(report)
    if not counts:
        raise CheckFailed(f"{spec}: report has no einsum statistics")
    muls = sum(c[1] for c in counts)
    if muls != want_muls:
        raise CheckFailed(f"{spec}: cascade muls {muls} != reference {want_muls}")
    if counts[-1][2] != want_nnz:
        raise CheckFailed(f"{spec}: final out_writes {counts[-1][2]} != reference nnz(Z) {want_nnz}")


def parse_output_tensor(text, name):
    """The entries of tensor `name` from `teaal output`, keyed (m, n)."""
    block = text.split(f"# --- {name} ---\n", 1)
    if len(block) != 2:
        raise CheckFailed(f"`teaal output` printed no {name}")
    lines = block[1].split("# --- ", 1)[0].splitlines()
    header = re.match(r"# tensor \w+ ranks (\S+) shape", lines[0])
    if not header:
        raise CheckFailed(f"bad tensor header {lines[0]!r}")
    ranks = header.group(1).split(",")
    order = [ranks.index("M"), ranks.index("N")]
    out = {}
    for line in lines[1:]:
        parts = line.split()
        out[(int(parts[order[0]]), int(parts[order[1]]))] = float(parts[-1])
    return out


# ----------------------------------------------------------------------
# The daemon and its client
# ----------------------------------------------------------------------


class Daemon:
    """A `teaal serve` child process; always stopped and reaped."""

    def __init__(self, teaal, tensors, work, deadline):
        self.err = open(os.path.join(work, "serve.err"), "w")
        # Two workers: one per CPU of the two-CPU reference host.
        argv = [teaal, "serve", "--addr", "127.0.0.1:0", "--workers", "2"]
        for name, path in tensors.items():
            argv += ["--tensor", f"{name}={path}"]
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=self.err, text=True
        )
        self.addr = None
        ready, _, _ = select.select([self.proc.stdout], [], [], min(60.0, deadline.left()))
        line = self.proc.stdout.readline() if ready else ""
        m = re.search(r"listening on (\S+)", line)
        if not m:
            self.stop()
            raise BenchError(f"daemon did not start: {line!r}")
        self.addr = m.group(1)

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def serve_requests():
    """The four request kinds (name, spec, loop-order override): SIGMA and
    Gamma, each plain and with its catalog `Z` loop order restated."""
    kinds = []
    for spec in ("sigma", "gamma"):
        with open(spec_path(spec)) as f:
            order = "Z=" + spec_loop_order(f.read(), "Z")
        kinds += [(spec, spec, None), (f"{spec}+loop_order", spec, order)]
    return kinds


def load(ctx, daemon, kinds, seconds=0, conns=1, warmup=False, pings=0):
    """The harness's `teaal serve` client: optional warm-up of every kind
    and ping round trips, then `conns` connections each sending its next
    request (seeded order) only after the previous reply, for `seconds`,
    between two `health` snapshots. Returns the harness result."""
    argv = [ctx.bins["harness"], "load", "--addr", daemon.addr, "--seconds", str(seconds),
            "--conns", str(conns), "--seed", str(ctx.seed), "--warmup", str(int(warmup)),
            "--pings", str(pings)]
    for name, spec, order in kinds:
        argv += ["--kind", name, "--spec", spec_path(spec), "--loop-order", order or "-"]
    text, _ = run_child(argv, ctx.deadline)
    res = harness_json(text)
    if not res["correct"]:
        raise CheckFailed("served reports of one request kind differ between requests")
    return res


def health_delta(res, field):
    return res["health_after"][field] - res["health_before"][field]


# ----------------------------------------------------------------------
# Workloads (untraced)
# ----------------------------------------------------------------------


class Outcome:
    """What one workload run measured: each end-to-end metric's value and
    the within-run samples it summarizes (printed as quartiles)."""

    def __init__(self):
        self.values = {}
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.notes = []

    def set(self, metric, value, samples=None):
        self.values[metric] = value
        self.samples[metric] = list(samples) if samples else [value]


def rounds(seconds, rng, kinds, body):
    """Runs `body(kind)` for every kind in seeded-shuffled rounds: the
    first round whole, then each further operation only while it is
    expected (the median of its kind so far) to end within `seconds`.
    `body` returns the operation's time, or None if it failed. Returns
    ({kind: [seconds]}, [seconds of each complete round])."""
    times = {k: [] for k in kinds}
    totals = []
    start = time.perf_counter()
    while True:
        order = list(kinds)
        rng.shuffle(order)
        total = 0.0
        for k in order:
            expected = statistics.median(times[k]) if times[k] else 0.0
            if totals and time.perf_counter() - start + expected > seconds:
                return times, totals
            took = body(k)
            if took is not None:
                times[k].append(took)
                total += took
        totals.append(total)


def op_metrics(out, times, totals):
    """wall_s: one pass over every operation kind, the sum of the
    per-kind median times (its quartiles are those of the complete
    rounds); p50/p99 of single operations; operations per second."""
    done = [v for v in times.values() if v]
    if not done:
        raise BenchError("every operation failed")
    lat_ms = [x * 1e3 for v in done for x in v]
    out.set("wall_s", sum(statistics.median(v) for v in done), totals)
    out.set("p50_ms", statistics.median(lat_ms), lat_ms)
    out.set("p99_ms", percentile(lat_ms, 99), lat_ms)
    out.set("ops_per_s", len(lat_ms) / (sum(lat_ms) / 1e3))
    out.passes = len(totals)


def run_catalog_cold(ctx):
    """Each catalog spec as a fresh `teaal run` (cold: new process, no
    cache reuse) on A,B at the catalog size."""
    out = Outcome()
    dim, nnz = ctx.sizes["catalog"]
    gen_s = []
    inputs = timed_gen(ctx.work, "cat", dim, nnz, ctx.seed, gen_s)
    want_muls, want_nnz = reference_counts(inputs["a"], inputs["b"])
    want_muls += ctx.expect_offset
    reports, rss = {}, []

    def one_run(spec):
        # Generating again before every operation spreads the set-up
        # samples over the run, as the operation samples are: the host's
        # speed drifts within a run.
        timed_gen(ctx.work, "cat", dim, nnz, ctx.seed, gen_s)
        out.attempted += 1
        argv = [ctx.bins["teaal"], "run", spec_path(spec), "--threads", "1",
                "--tensor", f"A={inputs['A']}", "--tensor", f"B={inputs['B']}"]
        try:
            text, wall, maxrss = timed_child(argv, ctx.deadline, os.path.join(ctx.work, f"run_{spec}.out"))
        except BenchError as e:
            out.failed += 1
            out.notes.append(str(e))
            return None
        rss.append(maxrss)
        if reports.setdefault(spec, text) != text:
            raise CheckFailed(f"{spec}: report changed between repetitions")
        check_catalog_report(spec, text, want_muls, want_nnz)
        return wall

    per_spec, totals = rounds(ctx.seconds, random.Random(f"{ctx.seed}/order"), SPECS, one_run)
    out.set("setup_s", statistics.median(gen_s), gen_s)
    op_metrics(out, per_spec, totals)
    out.set("peak_rss_mb", max(rss), rss)
    for spec, walls in per_spec.items():
        if walls:
            out.notes.append(f"{spec}_s median {statistics.median(walls):.4f} s (n={len(walls)})")
    check_output_values(ctx)
    return out


def check_output_values(ctx):
    """Untimed: `teaal output` Z of ExTensor and SIGMA against the
    reference SpGEMM, within 1e-9 relative, at the check size."""
    dim, nnz = ctx.sizes["check"]
    inputs = gen_inputs(ctx.work, "chk", dim, nnz, input_rng(ctx.seed, dim, nnz))
    want = reference_values(inputs["a"], inputs["b"])
    for spec in ("extensor", "sigma"):
        text, _ = run_child(
            [ctx.bins["teaal"], "output", spec_path(spec), "--threads", "1",
             "--tensor", f"A={inputs['A']}", "--tensor", f"B={inputs['B']}"],
            ctx.deadline,
        )
        got = parse_output_tensor(text, "Z")
        if set(got) != set(want):
            raise CheckFailed(f"{spec}: output Z pattern differs from the reference")
        for key, v in want.items():
            if abs(got[key] - v) > 1e-9 * abs(v):
                raise CheckFailed(f"{spec}: Z{key} = {got[key]!r}, reference {v!r}")


def start_warm_daemon(ctx):
    """Generates the dataset, starts `teaal serve` on it and warms the
    four request kinds; returns (daemon, kinds, inputs, setup_s)."""
    dim, nnz = ctx.sizes["catalog"]
    t0 = time.perf_counter()
    inputs = gen_inputs(ctx.work, "cat", dim, nnz, input_rng(ctx.seed, dim, nnz))
    kinds = serve_requests()
    daemon = Daemon(ctx.bins["teaal"], {"A": inputs["A"], "B": inputs["B"]}, ctx.work, ctx.deadline)
    try:
        load(ctx, daemon, kinds, warmup=True)
    except BaseException:
        daemon.stop()
        raise
    return daemon, kinds, inputs, time.perf_counter() - t0


def check_served_reports(ctx, results, kinds, inputs):
    """Every served report must be byte-identical to `teaal run` on the
    same tensor files and mapping (the override restates the catalog
    order, so both kinds of a spec compare to its plain run), and those
    runs must pass the catalog count check."""
    expected = {}
    procs = {}
    for spec in ("sigma", "gamma"):
        procs[spec] = subprocess.Popen(
            [ctx.bins["teaal"], "run", spec_path(spec), "--threads", "1",
             "--tensor", f"A={inputs['A']}", "--tensor", f"B={inputs['B']}"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    for spec, proc in procs.items():
        try:
            text, _ = proc.communicate(timeout=ctx.deadline.left())
        except (subprocess.TimeoutExpired, BenchError):
            for p in procs.values():
                p.kill()
                p.wait()
            raise BenchError("reference `teaal run` timed out")
        if proc.returncode != 0:
            raise BenchError(f"reference `teaal run` {spec} failed")
        expected[spec] = text
    want_muls, want_nnz = reference_counts(inputs["a"], inputs["b"])
    for spec, text in expected.items():
        check_catalog_report(spec, text, want_muls + ctx.expect_offset, want_nnz)
    for name, spec, _ in kinds:
        served = results["reports"].get(name)
        if served is not None and served + "\n" != expected[spec]:
            raise CheckFailed(f"served {name} report differs from `teaal run`")


def run_serve_warm(ctx):
    """A closed loop of the four warmed request kinds from 2 connections
    against `teaal serve` (2 workers): every request is a report-cache
    hit, so the work is parse/plan lookups, input hashing and the wire."""
    out = Outcome()
    # Set up SERVE_SETUPS times; all but the last daemon stop at once.
    setups = []
    while True:
        daemon, kinds, inputs, setup_s = start_warm_daemon(ctx)
        setups.append(setup_s)
        if len(setups) == SERVE_SETUPS:
            break
        daemon.stop()
    out.set("setup_s", statistics.median(setups), setups)
    try:
        res = load(ctx, daemon, kinds, ctx.seconds, 2)
        out.set("peak_rss_mb", daemon.vm_hwm_mb())
    finally:
        daemon.stop()
    out.attempted = len(res["ok"])
    out.failed = res["ok"].count(False)
    out.notes.append(
        f"shed {health_delta(res, 'shed_overloaded')}, served_err {health_delta(res, 'served_err')}; "
        f"first errors {res['errors'][:3]}"
    )
    lat = [ms for ms, ok in zip(res["lat_ms"], res["ok"]) if ok]
    if not lat:
        raise BenchError("no request succeeded")
    # wall_s: the time to complete each successive batch of 200 requests.
    batch, done = 200, res["done_s"]
    starts = [0.0] + done
    batches = [done[i + batch - 1] - starts[i] for i in range(0, len(done) - batch + 1, batch)]
    out.set("wall_s", statistics.median(batches) if batches else res["elapsed_s"], batches)
    out.set("p50_ms", statistics.median(lat), lat)
    out.set("p99_ms", percentile(lat, 99), lat)
    out.set("ops_per_s", len(lat) / res["elapsed_s"])
    out.passes = len(lat)
    out.notes.append(f"requests {len(lat)}; p99 has {len(lat) - -(-99 * len(lat) // 100)} samples beyond it")
    check_served_reports(ctx, res, kinds, inputs)
    return out


def graph_pass(ctx):
    """One pass of BFS and SSSP on each graph design in a fresh harness
    process, with distances checked against the harness's reference."""
    text, _ = run_child(
        [ctx.bins["harness"], "graph", "--seed", str(ctx.seed), "--scale",
         str(ctx.sizes["graph_scale"]), "--expect-offset", str(ctx.expect_offset)],
        ctx.deadline,
    )
    res = harness_json(text)
    if not res["correct"]:
        raise CheckFailed(f"graph: {res['mismatch']}")
    return res


UNTRACED = {
    "catalog_cold": run_catalog_cold,
    "serve_warm": run_serve_warm,
}


# ----------------------------------------------------------------------
# Traced run: the per-layer sweep
# ----------------------------------------------------------------------


def pipeline_metrics(deltas, rss_mb, resident_bytes=None):
    """`pipeline.*` from per-stage counter deltas. `bytes_vs_rss` compares
    the caches' byte estimates (`resident_bytes`, default the deltas'
    miss bytes) with the evaluating process's peak RSS."""
    m = {}
    total_bytes = 0
    for st in PIPELINE_STAGES:
        hits, misses = deltas.get(f"{st}.hits", 0), deltas.get(f"{st}.misses", 0)
        m[f"pipeline.{st}.hits"] = hits
        m[f"pipeline.{st}.misses"] = misses
        m[f"pipeline.{st}.bytes"] = deltas.get(f"{st}.bytes", 0)
        m[f"pipeline.{st}.evictions"] = deltas.get(f"{st}.evictions", 0)
        m[f"pipeline.{st}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        total_bytes += m[f"pipeline.{st}.bytes"]
    if resident_bytes is not None:
        total_bytes = resident_bytes
    m["pipeline.bytes_vs_rss"] = total_bytes / (rss_mb * 1024 * 1024) if rss_mb else 0.0
    return m


def sum_deltas(items):
    total = {}
    for d in items:
        for k, v in d.items():
            total[k] = total.get(k, 0) + v
    return total


def run_traced(ctx):
    """One untraced pass of the workload, then the layer sweep (each part
    in a fresh process). Pipeline counters come from the part that is
    the workload's own traced pass; the overhead compares that part's
    end-to-end time with the untraced pass of the same operations."""
    m = {}
    wl = ctx.workload
    dim, nnz = ctx.sizes["catalog"]
    t0 = time.perf_counter()
    cat = gen_inputs(ctx.work, "tcat", dim, nnz, input_rng(ctx.seed, dim, nnz))
    gen_s = time.perf_counter() - t0
    edim, ennz = ctx.sizes["explore"]
    exp = gen_inputs(ctx.work, "texp", edim, ennz, input_rng(ctx.seed, edim, ennz))
    want_muls, want_nnz = reference_counts(cat["a"], cat["b"])
    tensors = ["--tensor", f"A={cat['A']}", "--tensor", f"B={cat['B']}"]

    untraced_s = traced_s = None
    # The catalog's untraced pass covers SIGMA and Gamma only (6 of the
    # pass's 22 s), which is enough to compare with their traced path.
    overhead_specs = ("sigma", "gamma")
    if wl == "catalog_cold":
        untraced_s = 0.0
        for spec in overhead_specs:
            argv = [ctx.bins["teaal"], "run", spec_path(spec), "--threads", "1"] + tensors
            text, wall, _ = timed_child(argv, ctx.deadline, os.path.join(ctx.work, f"u_{spec}.out"))
            check_catalog_report(spec, text, want_muls + ctx.expect_offset, want_nnz)
            untraced_s += wall

    # Catalog stages, one process per spec.
    spec_res = {}
    for spec in SPECS:
        text, wall = run_child([ctx.bins["harness"], "spec", "--spec", spec_path(spec)] + tensors, ctx.deadline)
        r = harness_json(text)
        if not r["correct"]:
            raise CheckFailed(f"{spec}: warm or 2-thread report differs from the cold one")
        check_catalog_report(spec, r["report"], want_muls + ctx.expect_offset, want_nnz)
        spec_res[spec] = r
        m[f"core.parse_ms.{spec}"] = r["parse_ms"]
        m[f"sim.compile_ms.{spec}"] = r["compile_ms"]
        m[f"sim.transform_ms.{spec}"] = r["transform_ms"]
        m[f"sim.execute_ms.{spec}"] = r["execute_ms"]
        m[f"rss.{spec}_mb"] = r["rss_mb"]
        m[f"sim.threads2_ratio.{spec}"] = r["threads2_ratio"]
        for c in ("cycles", "dram_bytes", "muls", "z_nnz"):
            m[f"sim.{c}.{spec}"] = r[c]
    m["fibertree.transform_execs"] = sum(r["pipeline"]["transform_execs"] for r in spec_res.values())
    m["fibertree.decompress_count"] = sum(r["pipeline"]["decompressions"] for r in spec_res.values())

    # Mapper.
    text, _ = run_child(
        [ctx.bins["harness"], "explore"]
        + [a for s in SPECS for a in ("--spec", spec_path(s))]
        + ["--tensor", f"A={exp['A']}", "--tensor", f"B={exp['B']}"],
        ctx.deadline,
    )
    ex = harness_json(text)
    for spec in SPECS:
        r = ex["specs"][spec_path(spec)]
        if r["estimator_evals"] != EXPLORE_CANDIDATES[spec] + ctx.expect_offset:
            raise CheckFailed(f"{spec}: mapper estimated {r['estimator_evals']} candidates")
        m[f"explore.estimator_evals.{spec}"] = r["estimator_evals"]
        m[f"explore.engine_evals.{spec}"] = r["engine_evals"]
    m["sim.estimate_us_per_candidate"] = ex["estimate_us_per_candidate"]
    m["sim.verify_ms_per_candidate"] = ex["verify_ms_per_candidate"]

    # Request layer and input hashing.
    text, _ = run_child([ctx.bins["harness"], "request", "--spec", spec_path("sigma")] + tensors, ctx.deadline)
    rq = harness_json(text)
    if not rq["correct"]:
        raise CheckFailed("request: warm hits returned different reports")
    m["workloads.gen_ms"] = rq["gen_ms"]
    m["fibertree.content_hash_ms.A"] = rq["content_hash_ms"]["A"]
    m["fibertree.content_hash_ms.B"] = rq["content_hash_ms"]["B"]
    m["request.hit_ms"] = rq["hit_ms"]

    # Graph driver.
    gr = graph_pass(ctx)
    for run in GRAPH_RUNS:
        steps = gr["supersteps"][run]
        m[f"graph.supersteps.{run}"] = steps
        m[f"graph.apply_ops.{run}"] = gr["apply_ops"][run]
        m[f"graph.superstep_ms.{run}"] = gr["op_ms"][run] / steps

    # Daemon: wire round trip and health deltas. serve_warm drives its own
    # warmed dataset through a short closed loop; other workloads ping a
    # daemon over tiny tensors.
    if wl == "serve_warm":
        daemon, kinds, inputs, _ = start_warm_daemon(ctx)
    else:
        pdim, pnnz = ctx.sizes["serve_probe"]
        probe = gen_inputs(ctx.work, "probe", pdim, pnnz, input_rng(ctx.seed, pdim, pnnz))
        daemon = Daemon(ctx.bins["teaal"], {"A": probe["A"], "B": probe["B"]}, ctx.work, ctx.deadline)
        kinds = []
    try:
        sv = load(ctx, daemon, kinds, 3.0 if kinds else 0, 1, pings=300)
        daemon_rss = daemon.vm_hwm_mb()
    finally:
        daemon.stop()
    m["serve.ping_rtt_us"] = sv["ping_rtt_us"]
    m["serve.shed"] = health_delta(sv, "shed_overloaded")
    m["serve.served_err"] = health_delta(sv, "served_err")

    # The workload's own pipeline counters and overhead.
    resident = None
    if wl == "catalog_cold":
        # Four processes: their cold-run deltas and peak RSS, summed.
        deltas = sum_deltas(r["cold_pipeline"] for r in spec_res.values())
        rss = sum(r["rss_mb"] for r in spec_res.values())
        traced_s = sum(spec_res[s]["e2e_ms"] for s in overhead_specs) / 1e3
    else:
        check_served_reports(ctx, sv, kinds, inputs)
        deltas = {
            f"{st}.{c}": health_delta(sv, f"cache.{st}.{c}")
            for st in PIPELINE_STAGES
            for c in ("hits", "misses", "bytes", "evictions")
        }
        rss = daemon_rss
        # The daemon's caches hold everything since start, warm-up included.
        resident = sum(sv["health_after"][f"cache.{st}.bytes"] for st in PIPELINE_STAGES)
        # A served hit, end to end, against its layer spans: the wire
        # round trip plus an in-process warm `evaluate_request`.
        untraced_s = statistics.median(
            ms for ms, ok in zip(sv["lat_ms"], sv["ok"]) if ok
        ) / 1e3
        traced_s = (m["serve.ping_rtt_us"] / 1e6) + rq["hit_ms"] / 1e3
    m.update(pipeline_metrics(deltas, rss, resident))
    m["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
    m["trace.overhead_ratio"] = traced_s / untraced_s
    ctx.notes.append(f"input generation {gen_s:.3f} s (python)")
    ctx.notes.append(f"traced {traced_s:.4f} s vs untraced {untraced_s:.4f} s")
    return m


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs (self-check only)")
    ap.add_argument(
        "--expect-offset",
        type=int,
        default=0,
        help="add N to every expected count (self-check: must fail the checks)",
    )
    args = ap.parse_args(argv)

    ctx = types.SimpleNamespace()
    ctx.workload, ctx.seed, ctx.seconds = args.workload, args.seed, args.seconds
    ctx.expect_offset = args.expect_offset
    ctx.sizes = sizes(args.toy)
    ctx.notes = []
    try:
        # A first run in a fresh checkout builds (allowed 900 s); the
        # run itself then gets 170 s.
        ctx.bins = build(Deadline(720))
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2
    ctx.deadline = Deadline(170)
    ctx.work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(ctx.work, exist_ok=True)
    facts = host_facts()
    correct, attempted, failed = True, 1, 0
    metrics = {}
    try:
        if args.trace:
            values = run_traced(ctx)
            missing = [n for n in PER_LAYER if n not in values]
            if missing:
                raise BenchError(f"per-layer metrics missing: {missing}")
            metrics = {n: {"value": values[n], "unit": per_layer_unit(n)} for n in PER_LAYER}
            print_summary(args, facts, None, metrics, ctx.notes)
        else:
            out = UNTRACED[args.workload](ctx)
            attempted, failed = max(out.attempted, 1), out.failed
            metrics = {n: {"value": out.values[n], "unit": u} for n, u in END_TO_END.items()}
            print_summary(args, facts, out, metrics, ctx.notes + out.notes)
    except CheckFailed as e:
        log(f"perfbench: output check failed: {e}")
        correct = False
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_summary(args, facts, out, metrics, notes):
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    reps = out.passes if out else 1
    print(f"# host cpus={facts['cpus']} rustc=\"{facts['rustc']}\" revision={facts['revision']} repetitions={reps}")
    if out:
        print(f"# attempted={out.attempted} failed={out.failed} failed_ratio={out.failed / max(out.attempted, 1):.4f}")
        for name, unit in {**END_TO_END, **SUMMARY_ONLY}.items():
            s = out.samples[name]
            q1, q2, q3 = quartiles(s)
            print(f"{name:<14} {out.values[name]:>14.6g} {unit:<4} q1={q1:.6g} median={q2:.6g} q3={q3:.6g} n={len(s)}")
    else:
        for name, m in metrics.items():
            print(f"{name:<42} {m['value']:>16.6g} {m['unit']}")
    for note in notes:
        print(f"# {note}")


if __name__ == "__main__":
    sys.exit(main())
