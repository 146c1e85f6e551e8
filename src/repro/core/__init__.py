"""GridCCM — parallel CORBA components (the paper's core contribution).

GridCCM extends CCM with *parallel components*: an SPMD code (its
processes communicating through MPI) is encapsulated behind ordinary
CORBA interfaces, and remote invocations carrying distributed arguments
are intercepted by a generated software layer that splits, redistributes
and reassembles the data **node-to-node** — every process of both
components participates, so no master node bottlenecks the transfer
(paper Figure 3/4).

Pipeline (paper Figure 5):

1. describe the component's parallelism in XML
   (:class:`ParallelismDescriptor`);
2. the GridCCM compiler (:class:`GridCcmCompiler`) derives an *internal*
   interface — distributed ``sequence<T>`` arguments become chunk
   parameters with offset/total metadata — without touching the user
   IDL or the ORB;
3. at runtime, :class:`ParallelComponent` deploys one component
   instance per node plus a :class:`proxy <ParallelProxy>` so
   *sequential* clients still see a standard component, while
   parallel-aware clients attach a :class:`ParallelClient` layer that
   talks to all server nodes directly.
"""

from repro.core.distribution import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    Distribution,
    DistributionError,
)
from repro.core.redistribution import (
    RedistributionPlan,
    Transfer,
    redistribute_schedule,
)
from repro.core.parallelism import (
    ParallelArgSpec,
    ParallelismDescriptor,
    ParallelismError,
    ParallelOpSpec,
)
from repro.core.compiler import GridCcmCompiler, ParallelOpInfo, ParallelPlan
from repro.core.assembly import HybridApplication, HybridDeployer
from repro.core.runtime import (
    GRIDCCM_COPY_COST,
    ParallelClient,
    ParallelComponent,
)

__all__ = [
    "Distribution",
    "BlockDistribution",
    "CyclicDistribution",
    "BlockCyclicDistribution",
    "DistributionError",
    "Transfer",
    "RedistributionPlan",
    "redistribute_schedule",
    "ParallelismDescriptor",
    "ParallelOpSpec",
    "ParallelArgSpec",
    "ParallelismError",
    "GridCcmCompiler",
    "ParallelPlan",
    "ParallelOpInfo",
    "ParallelComponent",
    "ParallelClient",
    "GRIDCCM_COPY_COST",
    "HybridDeployer",
    "HybridApplication",
]
