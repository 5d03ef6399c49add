"""Backup/restore benchmark for the Sigma-Dedupe reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fresh-gear --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in a fresh interpreter (``workload.py``) driven from this
process; set-up time is measured in further fresh interpreters
(``setup_probe.py``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the host record and the run's details, which are also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import procstat  # noqa: E402
from workloads import SPECS  # noqa: E402

MiB = 1 << 20
GiB = 1 << 30
CHILD_TIMEOUT_S = 170.0
SETUP_SAMPLES = 10
"""Fresh interpreters timed for ``setup_s``, half before and half after the
workload so that two moments of the host are sampled (after one untimed
interpreter that fills the bytecode cache); the median is reported."""

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("backup_mb_s", "MB/s"),
    ("backup_cpu_s_per_gb", "s/GB"),
    ("restore_mb_s", "MB/s"),
    ("restore_file_ms_p50", "ms"),
    ("restore_file_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("dedup_ratio", "ratio"),
    ("edr", "ratio"),
    ("lookup_msgs_per_chunk", "msgs/chunk"),
    ("disk_bytes_per_logical_byte", "ratio"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("chunking.scan_s", "s/round"),
    ("chunking.chunks", "count/round"),
    ("chunking.mean_chunk_bytes", "B"),
    ("fingerprint.self_s", "s/round"),
    ("fingerprint.bytes", "B/round"),
    ("core.partition_self_s", "s/round"),
    ("core.superchunks", "count/round"),
    ("routing.route_s", "s/round"),
    ("routing.resemblance_queries_per_superchunk", "queries/sc"),
    ("cluster.store_self_s", "s/round"),
    ("cluster.restore_read_s", "s/round"),
    ("cluster.read_calls_per_restored_mb", "calls/MB"),
    ("node.backup_superchunk_s", "s/round"),
    ("node.cache_hit_rate", "ratio"),
    ("node.disk_index_lookups_per_chunk", "lookups/chunk"),
    ("node.container_prefetches", "count/round"),
    ("storage.bytes_written_per_logical_byte", "ratio"),
    ("storage.containers_sealed", "count/round"),
    ("storage.container_loads_per_restored_mb", "loads/MB"),
    ("parallel.lane_wait_s", "s/round"),
    ("parallel.lane_cpu_s", "s/round"),
    ("transport.rpcs_per_superchunk.store", "rpcs/sc"),
    ("transport.rpcs_per_superchunk.probe", "rpcs/sc"),
    ("transport.rpcs_per_superchunk.read", "rpcs/sc"),
    ("transport.rpc_wait_s", "s/round"),
    ("transport.wire_bytes_per_logical_byte", "ratio"),
    ("trace.unattributed_s", "s/round"),
    ("trace.overhead_share", "share"),
]

DETERMINISTIC = ("dedup_ratio", "edr", "lookup_msgs_per_chunk", "disk_bytes_per_logical_byte")
"""Space and message metrics: a pure function of the inputs, so every round
of a run must reproduce them exactly.  Any drift means nondeterminism."""

PROBE_OPS = ("probe", "usage", "resemblance", "sample")


class BenchmarkError(RuntimeError):
    """The program could not be run; no result is printed."""


def child_env(work_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    tmp = os.path.join(work_dir, "tmp")
    # Keep the program's temporary files (worker sockets) in the checkout,
    # unless the path would overflow a unix-socket address.
    if len(tmp) < 60:
        os.makedirs(tmp, exist_ok=True)
        env["TMPDIR"] = tmp
    return env


def measure_setup(workload: str, work_dir: str, samples: int, warm_up: bool) -> List[float]:
    """Seconds from starting a fresh interpreter to a framework ready for
    its first backup, for ``samples`` interpreters (after an untimed one
    with ``warm_up``)."""
    env = child_env(work_dir)
    times: List[float] = []
    for index in range(samples + warm_up):
        storage = os.path.join(work_dir, f"setup-{index}")
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, storage],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - start
            process.stdout.read()
            code = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        shutil.rmtree(storage, ignore_errors=True)
        if code != 0 or line.strip() != "ready":
            raise BenchmarkError(f"set-up probe for {workload} exited with {code}")
        if index or not warm_up:
            times.append(elapsed)
    return times


def run_child(args: argparse.Namespace, workload: str, work_dir: str, spans: str) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, "--work-dir", work_dir,
    ]
    if args.trace:
        command += ["--spans", spans]
    if args.corrupt:
        command.append("--corrupt")
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, env=child_env(work_dir), text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} did not finish in {CHILD_TIMEOUT_S:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} child exited with {done.returncode}")
    return json.loads(lines[-1])


def percentile(values: List[float], share: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[share - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def total(rounds: List[dict], key: str) -> float:
    return sum(entry[key] for entry in rounds)


def end_to_end(detail: dict, setup_times: List[float]) -> Dict[str, float]:
    """Throughput and CPU are sums over every timed call of the run.  The
    latency percentiles are taken per round and averaged over the timed
    rounds: a disturbance then moves the tail only in the rounds it hits,
    and, unlike a median, the average does not jump between the host's two
    speeds.  At full scale a round restores at least 144 files, which leaves
    at least 14 samples beyond its p90."""
    rounds = [entry for entry in detail["rounds"] if entry["timed"]]
    first = detail["rounds"][0]
    logical = total(rounds, "logical_bytes")

    def latency_ms(share: int) -> float:
        return statistics.mean(percentile(entry["latencies_s"], share) for entry in rounds) * 1e3

    return {
        "setup_s": statistics.median(setup_times),
        "backup_mb_s": ratio(logical / MiB, total(rounds, "backup_s")),
        "backup_cpu_s_per_gb": ratio(total(rounds, "backup_cpu_s"), logical / GiB),
        "restore_mb_s": ratio(total(rounds, "restored_bytes") / MiB, total(rounds, "restore_s")),
        "restore_file_ms_p50": latency_ms(50),
        "restore_file_ms_p90": latency_ms(90),
        "peak_rss_mb": (
            detail["parent_peak_bytes"]
            + max(entry["children_peak_bytes"] for entry in detail["rounds"])
        ) / MiB,
        **{name: first[name] for name in DETERMINISTIC},
    }


def per_layer(detail: dict) -> Dict[str, float]:
    timed = [entry for entry in detail["rounds"] if entry["timed"]]
    traced = [entry for entry in timed if entry["traced"]]
    untraced = [entry for entry in timed if not entry["traced"]]
    count = len(traced)
    spans = detail["spans"]
    ops = detail["rpc_ops"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0) / count

    def per_round(key: str) -> float:
        return total(traced, key) / count

    logical = per_round("logical_bytes")
    chunks = per_round("chunks")
    superchunks = per_round("superchunks")
    restored_mb = per_round("restored_bytes") / MiB

    def mb_s(rounds: List[dict]) -> float:
        return ratio(total(rounds, "logical_bytes"), total(rounds, "backup_s"))

    return {
        "chunking.scan_s": span("chunking.cut_offsets", "self_s"),
        "chunking.chunks": chunks,
        "chunking.mean_chunk_bytes": ratio(logical, chunks),
        "fingerprint.self_s": span("fingerprint.fingerprint_blocks", "self_s"),
        "fingerprint.bytes": per_round("fingerprinted_bytes"),
        "core.partition_self_s": span("core.partition", "self_s"),
        "core.superchunks": superchunks,
        "routing.route_s": span("routing.route", "total_s"),
        "routing.resemblance_queries_per_superchunk": ratio(per_round("resemblance_queries"), superchunks),
        "cluster.store_self_s": span("cluster.store", "self_s"),
        "cluster.restore_read_s": span("cluster.read_chunks", "total_s"),
        "cluster.read_calls_per_restored_mb": ratio(span("cluster.read_chunks", "count"), restored_mb),
        "node.backup_superchunk_s": span("node.backup_superchunk", "total_s"),
        "node.cache_hit_rate": ratio(
            per_round("cache_hits"), per_round("cache_hits") + per_round("cache_misses")
        ),
        "node.disk_index_lookups_per_chunk": ratio(per_round("disk_index_lookups"), chunks),
        "node.container_prefetches": per_round("container_prefetches"),
        "storage.bytes_written_per_logical_byte": ratio(per_round("bytes_written"), logical),
        "storage.containers_sealed": per_round("containers_sealed"),
        "storage.container_loads_per_restored_mb": ratio(per_round("container_loads"), restored_mb),
        "parallel.lane_wait_s": span("parallel.lane_wait", "total_s"),
        # Lane CPU from the untraced rounds: forked lanes inherit the wrappers.
        "parallel.lane_cpu_s": total(untraced, "lane_cpu_s") / len(untraced),
        "transport.rpcs_per_superchunk.store": ratio(ops.get("backup", 0) / count, superchunks),
        "transport.rpcs_per_superchunk.probe": ratio(
            sum(ops.get(op, 0) for op in PROBE_OPS) / count, superchunks
        ),
        "transport.rpcs_per_superchunk.read": ratio(ops.get("read", 0) / count, superchunks),
        "transport.rpc_wait_s": span("transport.rpc_wait", "total_s"),
        "transport.wire_bytes_per_logical_byte": ratio(per_round("wire_bytes"), logical),
        "trace.unattributed_s": span("e2e.backup", "self_s") + span("e2e.restore", "self_s"),
        "trace.overhead_share": 1.0 - ratio(mb_s(traced), mb_s(untraced)),
    }


def check_deterministic(detail: dict) -> List[str]:
    problems = []
    for name in DETERMINISTIC:
        values = {entry[name] for entry in detail["rounds"]}
        if len(values) != 1:
            problems.append(f"{name} differs between rounds of one run: {sorted(values)}")
    return problems


def run_workload(args: argparse.Namespace, workload: str) -> Tuple[dict, dict]:
    """Returns ``(result, summary)`` for one workload."""
    out_dir = os.path.join(HERE, "out")
    work_dir = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{args.seed}-trace{args.trace}")
    try:
        host = procstat.host_record()
        host["probe_ms_before"] = procstat.probe_ms()
        # Set-up time is an end-to-end metric; the traced run skips it.
        before = 0 if args.trace else (args.setup_samples + 1) // 2
        after = 0 if args.trace else args.setup_samples - before
        setup_times = measure_setup(workload, work_dir, before, warm_up=before > 0)
        detail = run_child(args, workload, work_dir, os.path.join(out_dir, f"{workload}-spans"))
        setup_times += measure_setup(workload, work_dir, after, warm_up=False)
        host["probe_ms_after"] = procstat.probe_ms()
        host["loadavg_after"] = list(os.getloadavg())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = check_deterministic(detail)
    for problem in problems:
        print(f"NONDETERMINISM in {workload}: {problem}", file=sys.stderr)
    for error in detail["errors"]:
        print(f"FAILED OPERATION in {workload}: {error}", file=sys.stderr)
    catalogue = PER_LAYER if args.trace else END_TO_END
    values = per_layer(detail) if args.trace else end_to_end(detail, setup_times)
    result = {
        "correct": detail["failed"] == 0 and not problems,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in catalogue},
    }
    timed = [entry for entry in detail["rounds"] if entry["timed"]]
    summary = {
        "workload": workload,
        "seed": args.seed,
        "host": host,
        "sizes": detail["sizes"],
        "input_bytes_per_round": detail["input_bytes_per_round"],
        "cache_capacity_containers": SPECS[workload].cache_capacity_containers,
        "node_stored_bytes": detail["rounds"][0]["node_stored_bytes"],
        "node_containers": detail["rounds"][0]["node_containers"],
        "timed_rounds": len(timed),
        "traced_rounds": sum(1 for entry in timed if entry["traced"]),
        "restore_latency_samples": sum(len(entry["latencies_s"]) for entry in timed),
        "setup_samples_s": setup_times,
        "problems": problems,
    }
    with open(stem + ".json", "w") as handle:
        json.dump({"summary": summary, "result": result, "detail": detail}, handle)
    return result, summary


def main() -> int:
    parser = argparse.ArgumentParser(description="Sigma-Dedupe backup/restore benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage a stored byte to check failure accounting")
    args = parser.parse_args()

    workloads = list(SPECS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            result, summary = run_workload(args, workload)
            results[workload] = result
            print(json.dumps({"summary": summary}))
            for name, metric in result["metrics"].items():
                print(f"# {workload:<10} {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, result in results.items()
                for name, metric in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
