"""The canonical wire form of a scheduling job and its result-cache key.

A :class:`~repro.scheduler.schedule.ScheduleResult` is a pure function of
three inputs — the superblock, the machine and the backend configuration
— plus the code that interprets them.  Each input has one lossless JSON
wire form, and the cache key is the hash of those wire forms, so the
batch runner (which holds objects) and the job server (which holds the
raw request body) derive the same key without an import cycle or an
object round trip:

* :func:`block_to_dict` / :func:`block_from_dict` — the superblock wire
  form: operations in block order, dependence edges in the
  insertion-compatible order of
  :meth:`~repro.ir.depgraph.DependenceGraph.ordered_edges`, execution
  count, live-in/out sets and the block name.  Edge order is part of the
  form because ``dp_work`` depends on it; :func:`block_digest` hashes it.
* :func:`machine_fingerprint` / :func:`machine_digest` — the declarative
  :class:`~repro.machine.spec.MachineSpec` dict of the machine.  Also the
  key under which warm pool workers intern reconstructed machines
  (:mod:`repro.runner.pool`).
* :func:`request_cache_key` — the key over the canonical request form:
  the ``block``, ``machine``, ``backend`` (and, when emitted, ``policy``)
  entries of :meth:`repro.api.ScheduleRequest.to_dict`, plus the
  code-version salt.  :func:`schedule_cache_key` builds that form from
  objects.
* :func:`fingerprint_digest` — the digest algebra over schedule
  fingerprints shared by responses, cache entries and the perf gate.

The salt (:data:`CODE_SALT`) names the behaviour revision of the
scheduler: bump it whenever a change legitimately moves ``dp_work`` or
schedule digests, and every previously cached result is invalidated at
once (old entries simply live under a different prefix).
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping

from repro.ir.depgraph import DependenceGraph, DepKind
from repro.ir.operation import OpClass, Operation
from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.machine.spec import MachineSpec

#: Code-version salt of the cached-result format: the scheduler behaviour
#: revision.  Bump on any change that moves dp_work or schedule digests
#: (the same changes that regenerate BENCH_vcs.json) so stale cache
#: entries can never masquerade as fresh results.
CODE_SALT = "2026.10-pr15"

#: The entries of a ``ScheduleRequest.to_dict()`` that the cache key
#: covers; ``client``, ``job_name`` and ``check_schedule`` do not change
#: the result and are left out.
KEY_FIELDS = ("block", "machine", "backend", "policy")


def canonical_json(payload: object) -> str:
    """The canonical JSON text of *payload* (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(payload: object) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def block_to_dict(block: Superblock) -> dict:
    """The lossless JSON form of a superblock.

    Edges come in insertion-compatible order (not ``edges()`` order):
    replaying them through ``add_edge`` reproduces the original adjacency
    iteration orders, which ``dp_work`` depends on.
    """
    return {
        "name": block.name,
        "operations": [
            [
                op.op_id,
                op.opcode,
                op.op_class.value,
                op.latency,
                list(op.dests),
                list(op.srcs),
                op.is_exit,
                op.exit_prob,
                op.speculative,
            ]
            for op in block.operations
        ],
        "edges": [
            [edge.src, edge.dst, edge.kind.value, edge.latency, edge.value]
            for edge in block.graph.ordered_edges()
        ],
        "execution_count": block.execution_count,
        "live_ins": list(block.live_ins),
        "live_outs": list(block.live_outs),
    }


def block_from_dict(data: Mapping) -> Superblock:
    """Rebuild a superblock from :func:`block_to_dict` output."""
    graph = DependenceGraph()
    for op_id, opcode, op_class, latency, dests, srcs, is_exit, exit_prob, spec in data[
        "operations"
    ]:
        graph.add_operation(
            Operation(
                op_id=op_id,
                opcode=opcode,
                op_class=OpClass(op_class),
                latency=latency,
                dests=tuple(dests),
                srcs=tuple(srcs),
                is_exit=is_exit,
                exit_prob=exit_prob,
                speculative=spec,
            )
        )
    for src, dst, kind, latency, value in data["edges"]:
        graph.add_edge(src, dst, DepKind(kind), latency, value)
    return Superblock(
        name=data["name"],
        graph=graph,
        execution_count=data["execution_count"],
        live_ins=tuple(data["live_ins"]),
        live_outs=tuple(data["live_outs"]),
    )


def block_digest(block: Superblock) -> str:
    """SHA-256 digest of the block's wire form (edge order included)."""
    return _sha256(block_to_dict(block))


def machine_fingerprint(machine: ClusteredMachine) -> dict:
    """The declarative spec dict describing *machine* (its wire form)."""
    return MachineSpec.from_machine(machine).to_dict()


def machine_digest(machine: ClusteredMachine) -> str:
    """SHA-256 digest of the machine's declarative spec."""
    return _sha256(machine_fingerprint(machine))


def spec_digest(spec_dict: Mapping) -> str:
    """SHA-256 digest of a backend-spec dict (``BackendSpec.to_dict()``)."""
    return _sha256(spec_dict)


def request_cache_key(wire: Mapping, salt: str = CODE_SALT) -> str:
    """The content-addressed cache key of one request wire dict.

    Hashes the :data:`KEY_FIELDS` entries *wire* carries, plus *salt*.
    On a canonical ``ScheduleRequest.to_dict()`` this is the key the
    batch runner derives from the same job's objects; any other spelling
    of the same request gets a key no entry is stored under.
    """
    payload = {field: wire[field] for field in KEY_FIELDS if field in wire}
    payload["salt"] = salt
    return _sha256(payload)


def schedule_cache_key(
    block: Superblock,
    machine: ClusteredMachine,
    spec_dict: Mapping,
    salt: str = CODE_SALT,
) -> str:
    """The cache key of one job given as objects: :func:`request_cache_key`
    over its canonical wire form (*spec_dict* is ``BackendSpec.to_dict()``
    with any policy merged into its ``vcs`` entry)."""
    wire = {
        "block": block_to_dict(block),
        "machine": machine_fingerprint(machine),
        "backend": dict(spec_dict),
    }
    return request_cache_key(wire, salt)


def fingerprint_digest(fingerprints: Iterable[object]) -> str:
    """A stable hex digest of a sequence of schedule fingerprints.

    Used by responses, cache entries, ``scripts/bench_report.py`` and the
    CI perf-regression gate to compare schedule populations
    byte-for-byte without storing them.
    """
    return _sha256(list(fingerprints))
