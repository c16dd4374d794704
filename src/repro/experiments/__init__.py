"""Experiment drivers: one module per table/figure in the paper's evaluation.

=============  =========================================================
``fig11``      PAC distribution under QARMA (§VI)
``fig14``      Normalized execution time, 5 mechanisms x 16 workloads
``fig15``      AOS optimisation ablation (L1-B cache, bounds compression)
``fig16``      Instruction mix statistics (signed/unsigned, bounds ops)
``fig17``      Bounds-table accesses per check + BWB hit rate
``fig18``      Normalized network traffic
``tables``     Table I (hardware cost), II/III (memory profiles), IV
``security``   The §VII detection matrix
=============  =========================================================

All timing experiments share an :class:`~repro.experiments.common.ExperimentSuite`.
Each timing driver's ``cells(suite, workloads)`` plans its timed rows as
:class:`CellSpec` cells; the suite computes a plan in one dispatch, one
task per trace, in which the trace is generated once and lowered once per
distinct lowering.  ``repro all`` passes the union of its drivers' plans
to one :meth:`~repro.experiments.common.ExperimentSuite.ensure_cells`
call, so each trace is generated once per invocation.  Traces and cell
results persist in :class:`ArtifactCache`, one directory of
content-addressed files with an LRU size cap that goes by use.
"""

from .common import ExperimentSuite, RunSettings, SPEC_WORKLOADS
from .parallel import (
    ArtifactCache,
    CacheEntry,
    CellSpec,
    PruneReport,
    cell_fingerprint,
    default_cache_dir,
    default_cache_max_bytes,
    run_cells,
    simulate_cell,
    supervised_cell_key,
)
from .fig11 import run_fig11, Fig11Result
from .fig14 import run_fig14, Fig14Result
from .fig15 import run_fig15, Fig15Result
from .fig16 import run_fig16, Fig16Result
from .fig17 import run_fig17, Fig17Result
from .fig18 import run_fig18, Fig18Result
from .pareto import ParetoResult, run_security_pareto
from .tables import run_table1, run_table2, run_table3, run_table4

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "CellSpec",
    "ExperimentSuite",
    "PruneReport",
    "RunSettings",
    "SPEC_WORKLOADS",
    "cell_fingerprint",
    "default_cache_dir",
    "default_cache_max_bytes",
    "run_cells",
    "simulate_cell",
    "supervised_cell_key",
    "run_fig11",
    "Fig11Result",
    "run_fig14",
    "Fig14Result",
    "run_fig15",
    "Fig15Result",
    "run_fig16",
    "Fig16Result",
    "run_fig17",
    "Fig17Result",
    "run_fig18",
    "Fig18Result",
    "ParetoResult",
    "run_security_pareto",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
]
