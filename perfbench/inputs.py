"""Seeded inputs of the benchmark workloads.

Every input is generated from the workload seed: the seeds of the 14
``repro.workloads.profiles`` paper profiles are replaced by seeds drawn
from it, so the program under test only ever receives generated blocks.

Blocks are drawn stratified by size: block ``j`` of a profile gets the
operation count at position ``frac(0.5 + j * golden ratio)`` of the
profile's ``[min_ops, max_ops]`` range (the generator is run with that
count as both bounds), and the seed decides everything else about the
block.  Every prefix of that sequence spreads evenly over the range.
Compile time grows steeply with block size, so an unstratified draw lets
one seed's corpus be much heavier than another's; stratification keeps
the size mix of every corpus, and of every prefix a run gets through,
the same.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Iterator, List, Sequence, Tuple

from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.machine.presets import paper_configurations
from repro.workloads.profiles import BenchmarkProfile, all_profiles
from repro.workloads.synth import SuperblockGenerator


def seeded_profiles(seed: int, stream: str) -> List[BenchmarkProfile]:
    """The 14 paper profiles with their seeds replaced from *seed*.

    *stream* separates independent draws made from one workload seed
    (for example the hot set and the fresh requests of serve-mixed).
    """
    rng = random.Random(f"perfbench|{stream}|{seed}")
    return [replace(p, seed=rng.randrange(1 << 31)) for p in all_profiles()]


#: Step of the low-discrepancy sequence that spreads block sizes.
GOLDEN = (5 ** 0.5 - 1) / 2


def stratified_block(profile: BenchmarkProfile, index: int, tag: str) -> Superblock:
    """Block *index* of *profile*, its size at that point of the spread."""
    cfg = profile.generator
    width = cfg.max_ops - cfg.min_ops + 1
    n_ops = cfg.min_ops + int(width * ((0.5 + index * GOLDEN) % 1.0))
    generator = SuperblockGenerator(replace(cfg, min_ops=n_ops, max_ops=n_ops), profile.seed)
    return generator.generate(f"{profile.name}/{tag}{index:04d}", index=index)


def interleave(rows: Sequence[Sequence[Superblock]]) -> List[Superblock]:
    """Round-robin over profiles, so every prefix has the same profile mix."""
    out: List[Superblock] = []
    for column in range(max(len(row) for row in rows)):
        out.extend(row[column] for row in rows if column < len(row))
    return out


def profile_rows(seed: int, stream: str, per_profile: int) -> List[List[Superblock]]:
    """Per profile, its stratified blocks."""
    return [
        [stratified_block(p, index, stream[0]) for index in range(per_profile)]
        for p in seeded_profiles(seed, stream)
    ]


def compile_items(seed: int) -> Iterator[Tuple[Superblock, ClusteredMachine]]:
    """The compile workload's endless (block, machine) sequence: each block
    on the three paper machines in turn, profiles interleaved.  Blocks are
    generated as the sequence reaches them, so a run never schedules a
    block object twice on one machine however many it gets through, and a
    block the caller has dropped can be freed."""
    machines = paper_configurations()
    profiles = seeded_profiles(seed, "compile")
    for column in itertools.count():
        for profile in profiles:
            block = stratified_block(profile, column, "c")
            for machine in machines:
                yield block, machine


def request_blocks(
    seed: int, stream: str, per_profile: int
) -> List[Tuple[Superblock, ClusteredMachine]]:
    """Serve-mixed request inputs: one machine per block, rotating over
    the three paper machines."""
    machines = paper_configurations()
    blocks = interleave(profile_rows(seed, stream, per_profile))
    return [(block, machines[i % len(machines)]) for i, block in enumerate(blocks)]
