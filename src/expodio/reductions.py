"""Ground-truth instance generators from two classical NP-complete problems.

PARTITION becomes a single equation over a primitive n-th root of unity
(base given by the n-th cyclotomic polynomial):

    sum q_i alpha^(x_i) = L + L*alpha,      L = (sum q_i) / 2,

solvable iff the multiset splits into two halves of sum L.

3-PARTITION becomes a single equation over any base alpha that is not a root
of unity.  With c the separation constant for L*k powers, each value y maps
to the coefficient q_y = 1 + alpha^c + ... + alpha^((y-1)c) and the right
side is q_L * (1 + alpha^(2cL) + ... + alpha^(2(k-1)cL)); the equation is
solvable iff the values split into k triples of sum L, the solution is
unique up to permutation, and a positive instance has the explicit witness

    x_(3i+1) = 2icL,  x_(3i+2) = c(2iL + a_(3i+1)),
    x_(3i+3) = c(2iL + a_(3i+1) + a_(3i+2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import NumberField, cyclotomic, field_pow
from .bounds import c_constant
from .errors import InternalError, InvalidInstance, IsRootOfUnity, ResourceLimitExceeded
from .model import ExpEquation, ExpSystem, make_system
from .verify import SolutionVector

# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionInstance:
    """Multiset of positive integers to be split into two equal-sum halves."""

    values: tuple

    def __post_init__(self):
        if not self.values or any(v < 1 for v in self.values):
            raise InvalidInstance("partition values must be positive integers")

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def half_sum(self) -> Optional[int]:
        return self.total // 2 if self.total % 2 == 0 else None


@dataclass(frozen=True)
class ThreePartitionInstance:
    """3k positive integers, each strictly between L/4 and L/2, to be split
    into k triples of sum L = (sum values) / k."""

    values: tuple
    k: int
    target: int

    @classmethod
    def of(cls, values) -> "ThreePartitionInstance":
        values = tuple(int(v) for v in values)
        if not values or len(values) % 3:
            raise InvalidInstance("need 3k values")
        k = len(values) // 3
        total = sum(values)
        if total % k:
            raise InvalidInstance("value sum must be divisible by k")
        target = total // k
        for v in values:
            if not 4 * v > target or not 2 * v < target:
                raise InvalidInstance(f"value {v} outside (L/4, L/2) for L={target}")
        return cls(values, k, target)


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


def encode_partition(inst: PartitionInstance, n: int = 2) -> ExpSystem:
    """Single equation over the n-th cyclotomic base; solvable iff the
    instance is a positive PARTITION instance."""
    if n < 2:
        raise ValueError("root-of-unity index must be >= 2")
    half = inst.half_sum
    if half is None:
        raise InvalidInstance("value sum is odd")
    field = NumberField(cyclotomic(n))
    coeffs = tuple(field.from_int(q) for q in inst.values)
    rhs = field.element([half, half])
    eq = ExpEquation(0, coeffs, rhs)
    return make_system([field], [eq], len(inst.values))


def encode_3partition(inst: ThreePartitionInstance, field: NumberField):
    """(system, witness) for the 3-PARTITION equation over the given base.

    The witness follows the explicit formula when a triple arrangement is
    found; it is None for negative instances and for positive ones whose
    arrangement search ran out of budget (find_triple_arrangement reports
    which case occurred).
    """
    if field.rou_order is not None:
        raise IsRootOfUnity("3-partition encoding requires a non-root-of-unity base")
    k, target = inst.k, inst.target
    c = c_constant(field, target * k)
    alpha_c = field_pow(field.alpha(), c)

    geometric = {}

    def coeff_for(y: int):
        # 1 + alpha^c + ... + alpha^((y-1)c), by Horner accumulation
        if y not in geometric:
            acc = field.zero()
            one = field.one()
            for _ in range(y):
                acc = acc * alpha_c + one
            geometric[y] = acc
        return geometric[y]

    coeffs = tuple(coeff_for(a) for a in inst.values)
    block = field_pow(field.alpha(), 2 * c * target)
    rhs = field.zero()
    one = field.one()
    for _ in range(k):
        rhs = rhs * block + one
    rhs = rhs * coeff_for(target)
    system = make_system([field], [ExpEquation(0, coeffs, rhs)], 3 * k)

    triples, _complete = find_triple_arrangement(inst.values, target)
    witness = None
    if triples is not None:
        xs = [0] * (3 * k)
        for i, (p, q, r) in enumerate(triples):
            xs[p] = 2 * i * c * target
            xs[q] = c * (2 * i * target + inst.values[p])
            xs[r] = c * (2 * i * target + inst.values[p] + inst.values[q])
        witness = SolutionVector(tuple(xs))
    return system, witness


def find_triple_arrangement(values, target: int, budget: int = 10**6):
    """First-fit backtracking split into triples of the target sum.

    Returns (triples, complete): ``triples`` is a list of index triples or
    None, ``complete`` is False when the node budget ran out before the
    search space was exhausted.
    """
    n = len(values)
    used = [False] * n
    triples = []
    nodes = 0
    complete = True

    def rec() -> bool:
        nonlocal nodes, complete
        first = next((i for i in range(n) if not used[i]), None)
        if first is None:
            return True
        used[first] = True
        for j in range(first + 1, n):
            if used[j] or values[first] + values[j] >= target:
                continue
            rest = target - values[first] - values[j]
            used[j] = True
            for l in range(j + 1, n):
                nodes += 1
                if nodes > budget:
                    complete = False
                    used[j] = False
                    used[first] = False
                    return False
                if not used[l] and values[l] == rest:
                    used[l] = True
                    triples.append((first, j, l))
                    if rec():
                        return True
                    triples.pop()
                    used[l] = False
            used[j] = False
        used[first] = False
        return False

    if rec():
        return list(triples), True
    return None, complete


# ---------------------------------------------------------------------------
# PARTITION ground truth
# ---------------------------------------------------------------------------

_ORACLE_SUM_LIMIT = 10**6


def partition_oracle(inst: PartitionInstance) -> bool:
    """Subset-sum reachability of the half sum (bitset dynamic program)."""
    total = inst.total
    if total > _ORACLE_SUM_LIMIT:
        raise ResourceLimitExceeded(f"value sum {total} exceeds the oracle budget")
    if total % 2:
        return False
    reachable = 1
    for v in inst.values:
        reachable |= reachable << v
    return bool((reachable >> (total // 2)) & 1)


def partition_witness(inst: PartitionInstance) -> Optional[tuple]:
    """0/1 side assignment achieving the split, or None; the 1-side sums to
    the half sum.  Doubles as the exponent witness for encode_partition."""
    total = inst.total
    if total > _ORACLE_SUM_LIMIT:
        raise ResourceLimitExceeded(f"value sum {total} exceeds the oracle budget")
    if total % 2:
        return None
    half = total // 2
    layers = [1]
    for v in inst.values:
        layers.append(layers[-1] | (layers[-1] << v))
    if not (layers[-1] >> half) & 1:
        return None
    side = [0] * len(inst.values)
    need = half
    for i in range(len(inst.values) - 1, -1, -1):
        v = inst.values[i]
        if need >= v and (layers[i] >> (need - v)) & 1:
            side[i] = 1
            need -= v
    if need != 0:
        raise InternalError(f"side assignment misses the half sum by {need}")
    return tuple(side)
