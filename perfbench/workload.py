"""Measuring child: runs one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON document on its last stdout line.
Sequence:

1. Generate every input from the seed, as bytes, before any timing.
2. Reset the peak-RSS mark, so held inputs are not counted as program memory.
3. One warm-up round, then timed rounds until ``--seconds`` have passed.  A
   round is a fresh ``SigmaDedupe`` over an empty ``storage_dir`` that backs
   up every session and restores sessions as the workload prescribes.
   Backup and restore calls are timed one by one; each restored file is
   compared with its input after its timer stops.
4. With ``--trace 1`` the timed rounds alternate between untraced and
   traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import procstat  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SPECS, Spec, describe_sizes, generate_inputs, make_framework  # noqa: E402

MiB = 1 << 20


def tree_bytes(path: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def corrupt_one_spill_file(path: str) -> None:
    """Flip one byte in the middle of the first spill file under ``path``."""
    for directory, _dirs, files in sorted(os.walk(path)):
        for name in sorted(files):
            if name.endswith(".cdata"):
                target = os.path.join(directory, name)
                size = os.path.getsize(target)
                with open(target, "r+b") as handle:
                    handle.seek(size // 2)
                    byte = handle.read(1)
                    handle.seek(size // 2)
                    handle.write(bytes([byte[0] ^ 0xFF]))
                return


class LaneMemory:
    """Peak resident growth of shared-memory ingest lanes.

    Lanes live for one backup call, so their ``VmHWM`` is read just before
    the pool closes them.  A forked lane starts with its parent's resident
    pages on its books, so its growth is counted from the RSS it had right
    after it started.
    """

    def __init__(self) -> None:
        self.round_peak = 0
        self._starts: Dict[int, Dict[int, int]] = {}

    def install(self) -> None:
        from repro.parallel.shm import ShmLanePool

        original_init = ShmLanePool.__init__
        original_close = ShmLanePool.close
        account = self

        def init(pool, *args, **kwargs):
            original_init(pool, *args, **kwargs)
            account._starts[id(pool)] = {
                lane.process.pid: procstat.rss_bytes(lane.process.pid) for lane in pool.lanes
            }

        def close(pool):
            starts = account._starts.pop(id(pool), {})
            rise = sum(max(0, procstat.hwm_bytes(pid) - rss) for pid, rss in starts.items())
            account.round_peak = max(account.round_peak, rise)
            original_close(pool)

        ShmLanePool.__init__ = init
        ShmLanePool.close = close


class Runner:
    def __init__(self, spec: Spec, sessions, work_dir: str, tracer: Optional[Tracer],
                 corrupt: bool):
        self.spec = spec
        self.sessions = sessions
        self.work_dir = work_dir
        self.tracer = tracer
        self.corrupt = corrupt
        self.lanes = LaneMemory()
        if spec.process_planes:
            self.lanes.install()
        self.rounds: List[Dict[str, object]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def _fail(self, count: int, what: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(what)

    def run_round(self, timed: bool, traced: bool) -> Dict[str, object]:
        spec = self.spec
        index = len(self.rounds)
        storage = os.path.join(self.work_dir, f"round-{index}")
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
        self.lanes.round_peak = 0
        result: Dict[str, object] = {
            "timed": timed, "traced": traced, "backup_s": 0.0, "backup_cpu_s": 0.0,
            "lane_cpu_s": 0.0, "logical_bytes": 0, "restore_s": 0.0, "restored_bytes": 0,
            "latencies_s": [],
        }
        latencies: List[float] = result["latencies_s"]  # type: ignore[assignment]
        framework = make_framework(spec, storage)
        try:
            workers = procstat.children()
            worker_start_rss = {pid: procstat.rss_bytes(pid) for pid in workers}
            backends = [
                node.container_backend for node in getattr(framework.cluster, "nodes", [])
            ]
            loads_during_restore = 0
            reports: List[Optional[object]] = []
            for generation, session in enumerate(self.sessions):
                cpu = time.process_time()
                reaped = procstat.reaped_children_cpu()
                worker_cpu = sum(procstat.cpu_seconds(pid) for pid in workers)
                self.attempted += 1
                start = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.span("e2e.backup"):
                            report = framework.backup(session, session_label=f"g{generation}")
                    else:
                        report = framework.backup(session, session_label=f"g{generation}")
                except Exception:
                    report = None
                    self._fail(1, traceback.format_exc())
                elapsed = time.perf_counter() - start
                lane_cpu = procstat.reaped_children_cpu() - reaped
                result["backup_s"] += elapsed
                result["lane_cpu_s"] += lane_cpu
                result["backup_cpu_s"] += (
                    time.process_time() - cpu + lane_cpu
                    + sum(procstat.cpu_seconds(pid) for pid in workers) - worker_cpu
                )
                if report is not None:
                    result["logical_bytes"] += report.logical_bytes
                reports.append(report)
                if self.corrupt and index == 0 and generation == 0:
                    corrupt_one_spill_file(storage)
                target = generation - spec.restore_lag
                if target < 0:
                    continue
                loads = sum(backend.spill_loads for backend in backends)
                self._restore(framework, reports[target], self.sessions[target], result,
                              latencies, tracer)
                loads_during_restore += sum(backend.spill_loads for backend in backends) - loads
            if tracer is not None:
                tracer.uninstall()
                tracer = None
            self._round_stats(framework, storage, result, backends, loads_during_restore)
            children_peak = sum(
                max(0, procstat.hwm_bytes(pid) - rss) for pid, rss in worker_start_rss.items()
            )
            result["children_peak_bytes"] = children_peak + self.lanes.round_peak
        finally:
            framework.close()
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(storage, ignore_errors=True)
        self.rounds.append(result)
        return result

    def _restore(self, framework, report, session, result, latencies, tracer) -> None:
        passes = self.spec.restore_passes
        if report is None:
            self.attempted += passes * len(session)
            self._fail(passes * len(session), "restore skipped: its backup failed")
            return
        session_id = report.session_id
        for _ in range(passes):
            for path, original in session:
                self.attempted += 1
                error = f"restored {path!r} differs from its input"
                start = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.span("e2e.restore"):
                            data = framework.restore(session_id, path)
                    else:
                        data = framework.restore(session_id, path)
                except Exception:
                    data = None
                    error = traceback.format_exc()
                elapsed = time.perf_counter() - start
                latencies.append(elapsed)
                result["restore_s"] += elapsed
                result["restored_bytes"] += len(original)
                if data != original:
                    self._fail(1, error)
                del data

    def _round_stats(self, framework, storage, result, backends, restore_loads) -> None:
        from repro.metrics.dedup import effective_deduplication_ratio

        cluster = framework.cluster
        wire_bytes = cluster.messages.total_wire_bytes
        summary = framework.describe()
        usages = framework.node_storage_usages()
        if hasattr(cluster, "node_describes"):
            nodes = cluster.node_describes()
        else:
            nodes = [node.describe() for node in cluster.nodes]
        chunks = summary["after_routing_messages"]
        logical = result["logical_bytes"]
        dedup = summary["cluster_deduplication_ratio"]
        disk = tree_bytes(storage)
        result.update(
            dedup_ratio=dedup,
            edr=effective_deduplication_ratio(dedup, usages),
            # A failed backup leaves nothing to divide by; it is already
            # counted as a failed operation.
            lookup_msgs_per_chunk=(summary["pre_routing_messages"] + chunks) / max(chunks, 1),
            disk_bytes_per_logical_byte=disk / max(logical, 1),
            chunks=chunks,
            superchunks=sum(node["superchunks_received"] for node in nodes),
            resemblance_queries=sum(node["resemblance_queries"] for node in nodes),
            cache_hits=sum(node["cache_hits"] for node in nodes),
            cache_misses=sum(node["cache_misses"] for node in nodes),
            disk_index_lookups=sum(node["disk_index_lookups"] for node in nodes),
            container_prefetches=sum(node["container_prefetches"] for node in nodes),
            node_stored_bytes=usages,
            node_containers=[node["containers"] for node in nodes],
            wire_bytes=wire_bytes,
            fingerprinted_bytes=framework.client().partitioner.fingerprinter.bytes_fingerprinted,
            disk_bytes=disk,
        )
        if backends:
            result.update(
                bytes_written=sum(
                    backend.spilled_bytes_stored
                    + (backend.journal.path.stat().st_size if backend.journal.path.exists() else 0)
                    for backend in backends
                ),
                containers_sealed=sum(backend.spilled_containers for backend in backends),
                container_loads=restore_loads,
            )
        else:
            # Worker-side backends are out of reach: count what is on disk.
            sealed = 0
            for _directory, _dirs, files in os.walk(storage):
                sealed += sum(1 for name in files if name.endswith(".cdata"))
            result.update(bytes_written=disk, containers_sealed=sealed, container_loads=0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", help="write the traced run's spans to this prefix")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip a stored byte after the first backup (self-test)")
    args = parser.parse_args()
    spec = SPECS[args.workload]

    sessions = generate_inputs(spec, args.seed, args.scale)
    # Imported before the baseline is taken, so module memory is not counted
    # as program memory (vm-fleet's input generator imports it anyway).
    import repro.metrics.dedup  # noqa: F401
    procstat.reset_peak_rss()
    baseline_rss = procstat.rss_bytes()

    tracer = Tracer() if args.trace else None
    runner = Runner(spec, sessions, args.work_dir, tracer, args.corrupt)
    runner.run_round(timed=False, traced=False)
    deadline = time.perf_counter() + args.seconds
    timed_rounds = 0
    # A traced run alternates untraced and traced rounds and needs one of each.
    minimum = 2 if tracer is not None else 1
    while timed_rounds < minimum or time.perf_counter() < deadline:
        runner.run_round(timed=True, traced=tracer is not None and timed_rounds % 2 == 1)
        timed_rounds += 1
    parent_peak = procstat.hwm_bytes() - baseline_rss

    out = {
        "workload": spec.name,
        "sizes": describe_sizes(spec, args.scale),
        "input_bytes_per_round": sum(len(data) for session in sessions for _p, data in session),
        "baseline_rss_bytes": baseline_rss,
        "parent_peak_bytes": parent_peak,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "rounds": runner.rounds,
    }
    if tracer is not None:
        out["spans"] = tracer.summarize()
        out["rpc_ops"] = dict(tracer.rpc_ops)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
