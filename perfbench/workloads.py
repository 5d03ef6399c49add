"""The benchmark's workloads: inputs made from the seed and the framework
configuration each one runs against.

Shared by the measuring child (``workload.py``) and the set-up probe
(``setup_probe.py``) so both build exactly the same framework.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

MiB = 1 << 20

Session = List[Tuple[str, bytes]]


@dataclass(frozen=True)
class Spec:
    name: str
    nodes: int
    chunker: Optional[str]
    """Registered chunker name, or ``None`` for the framework's 4 KB static
    default."""
    cache_capacity_containers: Optional[int]
    """Per-node fingerprint-cache size, or ``None`` for the node default."""
    process_planes: bool
    """Process ingest lanes plus the process node transport."""
    restore_lag: int
    """After backing up session ``g``, session ``g - restore_lag`` is restored."""
    restore_passes: int
    """Restore passes per restored session.  Restore runs an order of
    magnitude faster than backup, so each session is restored several times
    to give restore about as much measured time as backup."""


LANES = 2
"""Ingest lanes and node workers of the process planes: no more than the
2 CPUs of the host the benchmark was tuned on."""

SPECS: Dict[str, Spec] = {
    "fresh-gear": Spec(
        "fresh-gear", nodes=LANES, chunker="gear-accel",
        cache_capacity_containers=None, process_planes=False,
        restore_lag=0, restore_passes=12,
    ),
    "vm-fleet": Spec(
        "vm-fleet", nodes=4, chunker=None,
        cache_capacity_containers=2, process_planes=False,
        restore_lag=1, restore_passes=6,
    ),
    "multicore": Spec(
        "multicore", nodes=LANES, chunker="gear-accel",
        cache_capacity_containers=None, process_planes=True,
        restore_lag=0, restore_passes=4,
    ),
}

SIZES = {
    # Unique incompressible files: sessions x files x bytes.
    "unique": {"full": (2, 32, MiB), "tiny": (2, 4, 64 * 1024)},
    # VM fleet: generations, VMs, smallest image, size skew, change fraction.
    "vm": {"full": (4, 8, MiB, 1.45, 0.12), "tiny": (3, 8, 16 * 1024, 1.45, 0.12)},
}


def describe_sizes(spec: Spec, scale: str) -> Dict[str, object]:
    if spec.name == "vm-fleet":
        generations, vms, base, skew, change = SIZES["vm"][scale]
        return {
            "generations": generations, "vms": vms, "base_image_bytes": base,
            "size_skew": skew, "change_fraction": change,
        }
    sessions, files, size = SIZES["unique"][scale]
    return {"sessions": sessions, "files_per_session": files, "file_bytes": size}


def generate_inputs(spec: Spec, seed: int, scale: str) -> List[Session]:
    """Every session's ``(path, bytes)`` files, a pure function of the seed."""
    if spec.name == "vm-fleet":
        from repro.workloads.vm_images import VMBackupWorkload

        generations, vms, base, skew, change = SIZES["vm"][scale]
        fleet = VMBackupWorkload(
            num_backups=generations, num_vms=vms, base_image_size=base,
            size_skew=skew, change_fraction=change, seed=seed,
        )
        return [
            [(item.path, item.data) for item in snapshot.files]
            for snapshot in fleet.snapshots()
        ]
    sessions, files, size = SIZES["unique"][scale]
    rng = random.Random(seed)
    return [
        [(f"s{session}/file-{index:03d}.bin", rng.randbytes(size)) for index in range(files)]
        for session in range(sessions)
    ]


def make_framework(spec: Spec, storage_dir: str):
    """A fresh framework for one round, spilling containers under
    ``storage_dir``."""
    from repro import NodeConfig, SigmaDedupe

    kwargs: Dict[str, object] = {
        "num_nodes": spec.nodes, "storage_dir": storage_dir,
        "workers": 1, "transport": "inproc",
    }
    if spec.chunker is not None:
        from repro.chunking import build_chunker

        kwargs["chunker"] = build_chunker(spec.chunker)
    if spec.cache_capacity_containers is not None:
        kwargs["node_config"] = NodeConfig(
            cache_capacity_containers=spec.cache_capacity_containers
        )
    if spec.process_planes:
        kwargs.update(workers=LANES, parallel_executor="process", transport="process")
    return SigmaDedupe(**kwargs)
