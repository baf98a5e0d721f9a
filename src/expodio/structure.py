"""Cluster structures of solutions and the full semilinear solution set.

For a homogeneous system and one of its solutions, a cluster is a minimal
nonempty set of variable indices whose terms sum to zero in every equation
whose base is not a root of unity; a cluster structure is a partition of all
indices into clusters.  Shifting any cluster by a multiple of N (the lcm of
the root-of-unity orders, 1 if there are none) preserves solutions, so every
(box solution, cluster structure) pair spans a coset

    base + N * span_Z { indicator vectors of the clusters }

and the union of these cosets over the whole certified box is exactly the
solution set.  Non-homogeneous systems go through the auxiliary variable:
the cluster pinning the auxiliary index is excluded from the periods and the
output is dehomogenized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .algebra import field_pow
from .errors import InternalError, NotASolution, ValidationError
from .model import ExpSystem
from .solve import SearchLimits, _chunks, _fork_map, _run_search, prepare
from .verify import SolutionVector, verify


@dataclass(frozen=True)
class ClusterStructure:
    """Partition of variable indices (0-based positions) into clusters."""

    clusters: tuple

    def __iter__(self):
        return iter(self.clusters)


@dataclass(frozen=True)
class Coset:
    base: tuple
    periods: tuple  # 0/1 indicator vectors of disjoint index sets


@dataclass(frozen=True)
class SemilinearSet:
    """Finite union of cosets base + modulus * span_Z(periods)."""

    num_vars: int
    modulus: int
    cosets: tuple

    def to_json(self) -> str:
        doc = {
            "vars": self.num_vars,
            "modulus": str(self.modulus),
            "cosets": [
                {
                    "base": [str(v) for v in c.base],
                    "periods": [list(p) for p in c.periods],
                }
                for c in self.cosets
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Cluster structures
# ---------------------------------------------------------------------------


def find_cluster_structures(
    system: ExpSystem,
    candidate,
    limits: Optional[SearchLimits] = None,
) -> list:
    """All partitions of the index set into minimal vanishing clusters with
    respect to the non-root-of-unity equations.

    If every base is a root of unity the vanishing condition is vacuous and
    the unique structure is all singletons.
    """
    limits = limits or SearchLimits()
    if not system.is_homogeneous():
        raise ValidationError("not-homogeneous")
    limits.check_vars(system.num_vars)
    xs = SolutionVector.coerce(candidate).entries
    if not verify(system, xs):
        raise NotASolution(f"candidate {xs} does not solve the system")
    return [
        ClusterStructure(tuple(_mask_to_set(m) for m in partition))
        for partition in _cluster_partitions(system, xs)
    ]


def _mask_to_set(mask: int) -> tuple:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def _cluster_partitions(work: ExpSystem, xs) -> list:
    """Partitions of {0..k-1} (as sorted tuples of bitmasks) into minimal
    subsets whose terms vanish in every non-root-of-unity equation."""
    k = work.num_vars
    hard = [eq for eq in work.equations if work.fields[eq.base_index].rou_order is None]

    # Flat term vector per index across the hard equations.
    flat = [[] for _ in range(k)]
    for eq in hard:
        field = eq.field()
        alpha = field.alpha()
        for j in range(k):
            flat[j].extend((eq.coeffs[j] * field_pow(alpha, xs[j])).coords)
    flat = [tuple(row) for row in flat]
    width = len(flat[0]) if k else 0
    zero = (0,) * width

    full = 1 << k
    sums = [zero] * full
    for mask in range(1, full):
        low = mask & -mask
        j = low.bit_length() - 1
        sums[mask] = tuple(a + b for a, b in zip(sums[mask ^ low], flat[j]))
    vanishes = [sums[m] == zero for m in range(full)]

    minimal = [False] * full
    for mask in range(1, full):
        if not vanishes[mask]:
            continue
        ok = True
        sub = (mask - 1) & mask
        while sub:
            if vanishes[sub]:
                ok = False
                break
            sub = (sub - 1) & mask
        minimal[mask] = ok

    by_low = {}
    for mask in range(1, full):
        if minimal[mask]:
            by_low.setdefault(mask & -mask, []).append(mask)

    partitions = []
    parts = []

    def fill(remaining):
        if not remaining:
            partitions.append(tuple(sorted(parts)))
            return
        low = remaining & -remaining
        for mask in by_low.get(low, ()):
            if mask & ~remaining:
                continue
            parts.append(mask)
            fill(remaining & ~mask)
            parts.pop()

    fill(full - 1)
    if not partitions:
        raise InternalError(f"solution {tuple(xs)} admits no cluster structure")
    return partitions


# ---------------------------------------------------------------------------
# Semilinear solution set
# ---------------------------------------------------------------------------


def enumerate_semilinear(
    system: ExpSystem,
    limits: Optional[SearchLimits] = None,
    *,
    jobs: int = 1,
) -> SemilinearSet:
    """The full solution set as a deduplicated finite union of cosets.

    Collects every solution in the certified box, pairs it with each of its
    cluster structures, and emits one canonical coset per distinct
    (period set, reduced base point).  ``jobs`` parallelizes the
    cluster-structure phase over base solutions; the output is identical
    because assembly happens after canonical deduplication.
    """
    limits = limits or SearchLimits()
    limits.check_vars(system.num_vars)
    homog, work, report = prepare(system)
    box = report.box_limit
    modulus = report.modulus
    solutions, _, _ = _run_search(work, box, limits, collect_all=True)

    if jobs > 1 and len(solutions) > 1:
        chunks = _chunks(len(solutions), jobs)
        found = _fork_map(
            lambda chunk, _: [_cluster_partitions(work, solutions[i]) for i in chunk],
            chunks,
        )
        by_index = {i: p for chunk, ps in zip(chunks, found) for i, p in zip(chunk, ps)}
        structured = [(sol, by_index[i]) for i, sol in enumerate(solutions)]
    else:
        structured = [(sol, _cluster_partitions(work, sol)) for sol in solutions]

    k = system.num_vars
    seen = {}
    for sol, partitions in structured:
        for partition in partitions:
            base = list(homog.dehomogenize(sol))
            periods = []
            for mask in partition:
                members = _mask_to_set(mask)
                if homog.has_aux:
                    if 0 in members:
                        continue  # the cluster pinning x_0 cannot be shifted
                    members = tuple(j - 1 for j in members)
                # canonical representative: least member value into [0, N)
                m = min(base[j] for j in members)
                shift = (m % modulus) - m
                for j in members:
                    base[j] += shift
                vec = [0] * k
                for j in members:
                    vec[j] = 1
                periods.append(tuple(vec))
            key = (tuple(sorted(periods)), tuple(base))
            if key not in seen:
                seen[key] = Coset(tuple(base), tuple(sorted(periods)))
    cosets = tuple(seen[key] for key in sorted(seen))
    return SemilinearSet(k, modulus, cosets)


def coset_contains(semiset: SemilinearSet, candidate) -> bool:
    """Membership in the union: per coset, each period's coordinates must be
    offset from the base by one common multiple of the modulus, and every
    unshiftable coordinate must match the base exactly."""
    xs = SolutionVector.coerce(candidate).entries
    if len(xs) != semiset.num_vars:
        raise ValueError("candidate length does not match variable count")
    for coset in semiset.cosets:
        if _coset_member(coset, xs, semiset.modulus):
            return True
    return False


def _coset_member(coset: Coset, xs, modulus: int) -> bool:
    in_period = [False] * len(xs)
    for period in coset.periods:
        diffs = {x - b for x, b, flag in zip(xs, coset.base, period) if flag}
        if len(diffs) != 1 or diffs.pop() % modulus != 0:
            return False
        for j, flag in enumerate(period):
            if flag:
                in_period[j] = True
    return all(
        in_period[j] or xs[j] == coset.base[j] for j in range(len(xs))
    )
