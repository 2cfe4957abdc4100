#!/usr/bin/env python3
"""The sweep benchmark: how fast a grid of DLS simulation cells turns
into correct JSONL records.

    python3 perfbench/run.py --workload mw_table2 --seed 7 --seconds 10 --trace 0

Run it from the repository root.  The first run builds perfbench/ (the
repository's libraries, dls_sweep and the perfbench_pass driver) into
.bench_build/ ($CARGO_TARGET_DIR when set).  The seed only changes the
generated spec text; the program sees nothing else.

--trace 0 repeats fresh passes of the workload for --seconds seconds and
reports the end-to-end metrics as medians over the passes (set-up time:
the mean of each pass's median set-up); the results file also holds
their quartiles.  Passes run at width nproc - 1.  --trace 1 makes the
traced run instead and reports the per-layer metrics; it is marked
incorrect when its accounting closure misses the tolerance.  Every
output byte is checked against a reference from one untimed serial
`dls_sweep --threads 1` run; the default seed's reference digest is
committed in perfbench/reference.json.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the run facts and the raw
per-pass numbers go to .bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

# (name, unit) of every metric, as BENCHMARK.json lists them.
END_TO_END = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("cells_per_s", "records/s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("core.chunks", "count"),
    ("core.next_chunk_ns", "ns"),
    ("workload.tasks", "count"),
    ("workload.generate_ns_per_task", "ns"),
    ("mw.replica_ms", "ms"),
    ("mw.self_ns_per_chunk", "ns"),
    ("hagerup.replica_ms", "ms"),
    ("hagerup.self_ns_per_chunk", "ns"),
    ("exec.batch_overhead_frac", "ratio"),
    ("pool.eff.w2", "ratio"),
    ("pool.eff.wmax", "ratio"),
    ("stats.summarize_us_per_cell", "us"),
    ("sweep.expand_us_per_cell", "us"),
    ("sweep.render_us_per_record", "us"),
    ("sweep.commit_us_per_record", "us"),
    ("sweep.scan_us_per_record", "us"),
    ("sweep.validate_us_per_record", "us"),
    ("sweep.merge_us_per_record", "us"),
    ("sweep.record_bytes", "bytes"),
    ("dist.leases", "count"),
    ("dist.reclaims", "count"),
    ("dist.lease_ms_p50", "ms"),
    ("dist.lease_ms_p99", "ms"),
    ("dist.merge_s", "s"),
    ("net.fetch_ms_p50", "ms"),
    ("net.fetch_mb_per_s", "MB/s"),
    ("net.frame_mb_per_s", "MB/s"),
    ("failed_frac", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.closure_err", "ratio"),
    ("trace.closure_cell_p50", "ratio"),
]


class Workload:
    """A sweep grid, generated from the seed at one of two scales."""

    def __init__(self, name, base, axes, replicas, distributed=False):
        self.name = name
        self.base = base          # spec lines before the seed
        self.axes = axes          # {scale: [(key, [values])]}
        self.replicas = replicas  # {scale: replicas per cell}
        self.distributed = distributed

    def spec(self, seed, scale):
        # Any integer seed maps onto a distinct 63-bit spec seed.
        spec_seed = (seed * 0x9E3779B97F4A7C15 + 1000003) % (1 << 63)
        lines = [f"# {self.name} ({scale}), benchmark seed {seed}"] + self.base
        lines += [f"seed      {spec_seed}", f"replicas  {self.replicas[scale]}",
                  "seed_stride 104729"]
        lines += [f"sweep {key} {' '.join(values)}" for key, values in self.axes[scale]]
        return "\n".join(lines) + "\n"

    def tasks(self, scale):
        """Sum of n x replicas over the grid (every workload has one timestep)."""
        total = self.replicas[scale]
        for key, values in self.axes[scale]:
            total *= sum(int(v) for v in values) if key == "tasks" else len(values)
        return total


EXPONENTIAL = ["workload  exponential:1.0", "mu        1", "sigma     1"]
TABLE2 = ["SS", "GSS", "TSS", "FAC2", "BOLD"]
BOLD_STUDY = ["STAT", "SS", "FSC", "GSS", "TSS", "FAC", "FAC2", "BOLD"]
WORKLOADS = {
    w.name: w for w in [
        # Paper Table II on the mw simulator: SS's one-task chunks make it
        # message-bound, so the simx event core and the mw serve loop
        # dominate; only 20 records are written.
        Workload("mw_table2", EXPONENTIAL + ["h         0.5"],
                 {"full": [("technique", TABLE2), ("workers", ["64", "256"]),
                           ("tasks", ["65536", "131072"])],
                  "tiny": [("technique", TABLE2), ("workers", ["64", "256"]),
                           ("tasks", ["4096", "8192"])]},
                 {"full": 24, "tiny": 1}),
        # The BOLD publication's grid (paper Figs 5-8) on the direct
        # simulator: no simx, no mailbox; workload generation and
        # next_chunk dominate.  n is the Figs 6-7 sizes: Fig 8's
        # n=524288 streams a 4 MB task buffer per slot, which made whole
        # runs follow the machine's memory-bandwidth contention (23%
        # run-to-run spread, against 5% without it).
        Workload("hagerup_bold", ["backend   hagerup"] + EXPONENTIAL + ["h         0.5"],
                 {"full": [("technique", BOLD_STUDY), ("workers", ["2", "8", "64", "256", "1024"]),
                           ("tasks", ["8192", "65536"])],
                  "tiny": [("technique", BOLD_STUDY), ("workers", ["2", "8", "64", "256", "1024"]),
                           ("tasks", ["1024", "8192"])]},
                 {"full": 30, "tiny": 1}),
        # Thousands of one-replica cells through the serve coordinator
        # and socket workers: simulation is cheap, so the per-record path
        # (render, shard write, FETCH, scan, validate, merge) dominates.
        Workload("dist_serve_tiny", EXPONENTIAL,
                 {scale: [("technique", TABLE2),
                          ("workers", ["2", "3", "4", "6", "8", "12", "16", "32"]),
                          ("tasks", ["64", "128", "256", "512", "1024"]),
                          ("h", hs)]
                  for scale, hs in [
                      ("full", [f"{i / 20:g}" for i in range(40)]),
                      ("tiny", ["0", "0.5"])]},
                 {"full": 1, "tiny": 1}, distributed=True),
    ]
}


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build(build_dir):
    if not (REPO_ROOT / "CMakeLists.txt").is_file() or not (REPO_ROOT / "src").is_dir():
        raise BenchError(f"the repository sources are not next to {BENCH_DIR.name}/")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", str(nproc()),
                    "--target", "perfbench_pass"], stdout=sys.stderr, check=True)
    return json.loads((build_dir / "build_facts.json").read_text())


# ---- correctness ------------------------------------------------------------

KEY_RE = re.compile(r'"cell":(\d+),.*?"backend":"([^"]*)"')


def record_key(line):
    match = KEY_RE.search(line)
    return (int(match.group(1)), match.group(2)) if match else None


def bad_records(reference, path):
    """Records of `path` that are missing, differ from the reference, or
    are not in the reference at all."""
    try:
        lines = Path(path).read_bytes().decode("utf-8", "replace").splitlines()
    except OSError:
        return len(reference)
    found = {}
    bad = 0
    for line in lines:
        key = record_key(line)
        if key is None or key in found:
            bad += 1
        else:
            found[key] = line
    for key, line in reference.items():
        if found.pop(key, None) != line:
            bad += 1
    return bad + len(found)


def reference(tools, workload, scale, seed, spec_path, spec_text, ref_dir):
    """The serial width-1 records of this spec (cached per build) and
    whether their digest matches the committed one for the default seed."""
    dls_sweep = Path(tools["dls_sweep"])
    stat = dls_sweep.stat()
    key = hashlib.sha256(f"{spec_text}{stat.st_size}{stat.st_mtime_ns}".encode()).hexdigest()
    ref = ref_dir / f"{workload.name}-{scale}-{seed}.jsonl"
    meta = ref.with_suffix(".json")
    if not (meta.is_file() and ref.is_file() and json.loads(meta.read_text())["key"] == key):
        ref_dir.mkdir(parents=True, exist_ok=True)
        tmp = ref.with_suffix(".tmp")
        subprocess.run([str(dls_sweep), str(spec_path), "--threads", "1", "--out", str(tmp),
                        "--overwrite", "--quiet"], check=True, timeout=PASS_TIMEOUT_S)
        tmp.replace(ref)
        meta.write_text(json.dumps({"key": key, "sha256": sha256_file(ref)}))
    digest = json.loads(meta.read_text())["sha256"]
    digest_ok = True
    if seed == DEFAULT_SEED:
        committed = json.loads((BENCH_DIR / "reference.json").read_text())["sha256"]
        expected = committed.get(f"{workload.name}/{scale}")
        digest_ok = digest == expected
        if not digest_ok:
            log(f"reference digest {digest} != committed {expected} "
                f"({workload.name}/{scale}, seed {seed})")
    records = {record_key(line): line for line in ref.read_text().splitlines()}
    return ref, records, digest, digest_ok


def corrupt_first_record(path):
    """Flip one byte inside the first record (the self-test's fault)."""
    data = bytearray(Path(path).read_bytes())
    middle = data.index(b"\n") // 2
    data[middle] = ord("#") if data[middle] != ord("#") else ord("%")
    Path(path).write_bytes(bytes(data))


# ---- runs -------------------------------------------------------------------

def run_pass(command):
    done = subprocess.run([str(c) for c in command], stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"{Path(command[0]).name} {command[1]} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def dist_args(tools, workload):
    return ["--dist", "--dls-sweep", tools["dls_sweep"]] if workload.distributed else []


def timed_run(tools, workload, scale, spec_path, records, width, seconds, work, corrupt):
    """Fresh passes for `seconds` seconds; the first one only warms up."""
    passes, failed, attempted = [], 0, 0
    start = time.perf_counter()
    while len(passes) < MIN_PASSES + 1 or time.perf_counter() - start < seconds:
        out = work / "pass.jsonl"
        command = [tools["pass"], "time", "--spec", spec_path, "--out", out,
                   "--width", width] + dist_args(tools, workload)
        if workload.distributed:
            command += ["--workdir", work / "dist"]
        result = run_pass(command)
        if corrupt:
            corrupt_first_record(out)
        failed += bad_records(records, out) + int(result["reclaims"]) + int(result["retries"])
        attempted += len(records)
        passes.append(result)
        out.unlink()
        shutil.rmtree(work / "dist", ignore_errors=True)
    per_pass = {name: [] for name, _ in END_TO_END}
    for p in passes[1:]:
        per_pass["setup_s"].append(p["setup_s"])
        per_pass["sweep_s"].append(p["sweep_s"])
        per_pass["tasks_per_s"].append(workload.tasks(scale) / p["sweep_s"])
        per_pass["cells_per_s"].append(len(records) / p["sweep_s"])
        per_pass["peak_rss_mb"].append(p["rss_kb"] / 1024)
    metrics = {name: statistics.median(values) for name, values in per_pass.items()}
    # Each pass reports its median set-up, but whole processes land in a
    # fast or a slow mode (about 105 vs 170 us in process on a 4-vCPU
    # VM), so a median over passes flips between the modes from run to
    # run; the mean follows their mix.
    metrics["setup_s"] = statistics.fmean(per_pass["setup_s"])
    quartiles = {name: dict(zip(("q1", "median", "q3"), statistics.quantiles(values, n=4)))
                 for name, values in per_pass.items()}
    return metrics, attempted, failed, {"quartiles": quartiles, "passes": passes}


def traced_run(tools, workload, spec_path, ref, records, width, work, trace_out, corrupt):
    command = [tools["pass"], "trace", "--spec", spec_path, "--ref", ref, "--outdir", work,
               "--width", width, "--trace-out", trace_out] + dist_args(tools, workload)
    result = run_pass(command)
    failed = int(result["dist.reclaims"]) + int(result["retries"])
    attempted = 0
    for out in result["outputs"]:
        if corrupt:
            corrupt_first_record(out)
        failed += bad_records(records, out)
        attempted += len(records)
    chunks = 0
    for line in records.values():
        summary = json.loads(line)["chunks"]
        chunks += round(summary["mean"] * summary["count"])
    result["core.chunks"] = chunks
    result["sweep.record_bytes"] = os.path.getsize(ref) / len(records)
    result["failed_frac"] = failed / attempted
    result["closure_ok"] = result["trace.closure_err"] <= result["trace.closure_tolerance"]
    if not result["closure_ok"]:
        log(f"accounting closure error {result['trace.closure_err']:.4f} exceeds the "
            f"tolerance {result['trace.closure_tolerance']}")
    return {name: result[name] for name, _ in PER_LAYER}, attempted, failed, result


def source_digest():
    """Digest of the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    digest = hashlib.sha256()
    paths = [REPO_ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", BENCH_DIR.name):
        paths += sorted(p for p in (REPO_ROOT / top).rglob("*") if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(REPO_ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: a seconds-long grid for the self-test")
    parser.add_argument("--corrupt-record", action="store_true",
                        help="self-test: corrupt a record of every checked output")
    args = parser.parse_args()

    load_1m = os.getloadavg()[0]
    workload = WORKLOADS[args.workload]
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"
    tools = build(build_dir)
    # One CPU is left to the system: with every CPU busy, any other load
    # on the machine stretches the whole pass.  In process this is the
    # pool width; distributed, the coordinator plus width - 1 workers.
    width = max(1, nproc() - 1)

    work = build_dir / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec_text = workload.spec(args.seed, args.scale)
        spec_path = work / "grid.sweep"
        spec_path.write_text(spec_text)
        ref, records, digest, digest_ok = reference(
            tools, workload, args.scale, args.seed, spec_path, spec_text,
            build_dir / "references")
        if args.trace:
            trace_out = build_dir / "results" / f"trace-{workload.name}-{args.seed}.json"
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            metrics, attempted, failed, raw = traced_run(
                tools, workload, spec_path, ref, records, width, work, trace_out,
                args.corrupt_record)
            if not workload.distributed:
                # The dist and net layers are measured on the dist grid,
                # traced alongside each in-process workload: timed runs of
                # the dist path swing with the host's load too much to
                # hold an end-to-end bound.
                probe = WORKLOADS["dist_serve_tiny"]
                probe_text = probe.spec(args.seed, args.scale)
                probe_spec = work / "dist.sweep"
                probe_spec.write_text(probe_text)
                probe_ref, probe_records, _, probe_digest_ok = reference(
                    tools, probe, args.scale, args.seed, probe_spec, probe_text,
                    build_dir / "references")
                probe_dir = work / "dist-probe"
                probe_dir.mkdir()
                probe_metrics, probe_attempted, probe_failed, probe_raw = traced_run(
                    tools, probe, probe_spec, probe_ref, probe_records, width, probe_dir,
                    trace_out.with_name(f"trace-{probe.name}-{args.seed}.json"),
                    args.corrupt_record)
                for name, _ in PER_LAYER:
                    if name.startswith(("dist.", "net.")):
                        metrics[name] = probe_metrics[name]
                attempted += probe_attempted
                failed += probe_failed
                metrics["failed_frac"] = failed / attempted
                digest_ok = digest_ok and probe_digest_ok
                raw["closure_ok"] = raw["closure_ok"] and probe_raw["closure_ok"]
                raw["dist_probe"] = probe_raw
            units = PER_LAYER
        else:
            metrics, attempted, failed, raw = timed_run(
                tools, workload, args.scale, spec_path, records, width, args.seconds, work,
                args.corrupt_record)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = {
        "workload": workload.name, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, "nproc": nproc(), "pool_width": width,
        "dist_workers": max(1, width - 1) if workload.distributed else 0,
        "compiler": tools["compiler"], "build_type": tools["build_type"],
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "load_avg_1m_at_start": load_1m, "reference_sha256": digest,
    }
    result = {
        "correct": failed == 0 and digest_ok and raw.get("closure_ok", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    results_dir = build_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"facts": facts, "result": result, "raw": raw}, indent=1) + "\n")
    log(json.dumps(facts))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as error:
        log(f"error: {error}")
        sys.exit(2)
