"""Fault-tolerant fleet diagnosis: sharded workers, merged rollups.

The paper diagnoses one system at a time; this package scales that to
a *fleet* of systems the way the campaign runtime scales experiments:
every fleet member is a shard diagnosed in its own supervised worker
process (:mod:`repro.fleet.supervisor`, built on the generic engine in
:mod:`repro.runtime.tasks`), persisted as a self-validating columnar
artifact (:mod:`repro.fleet.artifact`), recorded in the shared
crash-safe :class:`~repro.runtime.journal.EventJournal` so ``--resume``
redoes only unproven shards, and merged into a fleet-wide
:class:`~repro.fleet.rollup.FleetReport` with conserved accounting for
every shard that could not be covered (:mod:`repro.fleet.rollup`).

Entry points: ``repro fleet`` on the CLI, ``api.diagnose_fleet()`` in
code.  Contracts and failure semantics are documented in
``docs/FLEET.md``.
"""

from repro.fleet.artifact import (
    ShardArtifact,
    ShardArtifactError,
    read_shard_artifact,
    write_shard_artifact,
)
from repro.fleet.rollup import FleetReport, merge_shards, shard_summary
from repro.fleet.scenario import FLEET_SYSTEM, FleetSpec, materialize_member
from repro.fleet.supervisor import FleetSupervisor, fleet_config

__all__ = [
    "ShardArtifact",
    "ShardArtifactError",
    "read_shard_artifact",
    "write_shard_artifact",
    "FleetReport",
    "merge_shards",
    "shard_summary",
    "FLEET_SYSTEM",
    "FleetSpec",
    "materialize_member",
    "FleetSupervisor",
    "fleet_config",
]
