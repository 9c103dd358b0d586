"""Simulated PGAS runtime substrate.

The paper runs UPC on a real 16-node cluster of SMPs; this package is the
reproduction's substitute: a machine model (:mod:`machine`), a cost model
(:mod:`cost`), per-thread virtual clocks (:mod:`clocks`), blocked shared
arrays (:mod:`shared_array`), per-thread partitioned private data
(:mod:`partitioned`), an execution trace with the paper's six time
categories (:mod:`trace`), and the :class:`PGASRuntime` façade tying them
together (:mod:`runtime`).
"""

from .clocks import ThreadClocks
from .cost import ELEM_BYTES, CostModel
from .machine import (
    MACHINE_SPECS,
    CacheParams,
    CpuParams,
    LockParams,
    MachineConfig,
    MemoryParams,
    NetworkParams,
    cluster_shape,
    hps_cluster,
    infiniband_cluster,
    parse_machine,
    scaled_cache,
    sequential_machine,
    smp_node,
)
from .partitioned import PartitionedArray, even_offsets
from .profiling import (
    PhaseProfiler,
    PhaseRecord,
    ProfileSession,
    profiled,
    render_phases,
)
from .runtime import PGASRuntime
from .shared_array import SharedArray
from .trace import Category, Counters, Trace

__all__ = [
    "CacheParams",
    "Category",
    "CostModel",
    "MACHINE_SPECS",
    "Counters",
    "CpuParams",
    "ELEM_BYTES",
    "LockParams",
    "MachineConfig",
    "MemoryParams",
    "NetworkParams",
    "PGASRuntime",
    "PartitionedArray",
    "PhaseProfiler",
    "PhaseRecord",
    "ProfileSession",
    "profiled",
    "render_phases",
    "SharedArray",
    "ThreadClocks",
    "Trace",
    "cluster_shape",
    "even_offsets",
    "hps_cluster",
    "infiniband_cluster",
    "parse_machine",
    "scaled_cache",
    "sequential_machine",
    "smp_node",
]
