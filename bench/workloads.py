"""Seeded input generators and ground truth for the four benchmark workloads.

Every workload is a fixed list of strata; the seed draws the random inputs
inside each stratum.  Keeping the strata fixed keeps the mix of cheap and
expensive operations the same from seed to seed, so medians and tails
compare across seeds.  The program under test only ever sees the files
written here.

Ground truth never comes from ``decide`` or ``enumerate_semilinear``:

* sweep-k3 verdicts come from a hash-lookup oracle over the certified box
  (by shift invariance every solvable instance has a box solution with
  minimum exponent 0, so fixing one exponent at 0 and looking the third up
  in a table of powers covers the whole box);
* PARTITION verdicts come from ``partition_oracle``;
* ``enumerate`` output is checked against ``oracle_search`` on a small range
  (every oracle solution must lie in a coset) and every coset base must pass
  ``verify``;
* ``verify`` verdicts come from the planted or perturbed construction;
* every reported witness is re-checked with ``verify`` and, at small
  exponents, with ``naive_residuals``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from expodio import (
    ExpEquation,
    NumberField,
    PartitionInstance,
    SearchLimits,
    ThreePartitionInstance,
    c_constant,
    coset_contains,
    encode_3partition,
    encode_partition,
    make_system,
    naive_residuals,
    oracle_search,
    parse_system,
    partition_oracle,
    serialize_system,
    system_box,
    verify,
)
from expodio.model import clear_denominators, homogenize
from expodio.structure import Coset, SemilinearSet

# A fixed node budget per workload: "undecided" (exit 3) then depends on a
# node count, never on machine speed, so the time limit is set far above
# anything a budgeted search can reach.
SEARCH_BUDGET = 300_000
PARTITION_BUDGET = 100_000


def search_flags(budget=SEARCH_BUDGET):
    return ["--budget", str(budget), "--time-limit", "3600", "--jobs", "1"]


# naive_residuals multiplies exponent-many times; only use it below this.
NAIVE_EXPONENT_CAP = 64

SHIFT = 2**64

# x^d - x - 1 is irreducible for every d >= 2 (Selmer) and has no root of
# unity among its roots; degree 1 uses alpha = 2.
def selmer_poly(d: int) -> list:
    if d == 1:
        return [-2, 1]
    return [-1, -1] + [0] * (d - 2) + [1]


@dataclass
class Op:
    """One CLI call on generated files, with what its answer must be."""

    kind: str  # solve | enumerate | verify | bounds | gen-3partition
    argv: list
    stratum: str
    truth: dict
    system: object = None  # the ExpSystem the instance file encodes
    cold: bool = False  # eligible for the fresh-subprocess sample
    probe: Optional[tuple] = None  # (PartitionInstance, n) re-encoded when traced
    outputs: list = field(default_factory=list)  # files the op writes


class Workspace:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.count = 0

    def path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.root, f"{self.count:04d}-{stem}.json")

    def write(self, stem: str, text: str) -> str:
        path = self.path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _int_system(field, rows, rhs=None):
    """System over one base with integer coefficients (and right-hand sides)."""
    eqs = []
    for i, row in enumerate(rows):
        coeffs = tuple(field.from_int(c) for c in row)
        r = field.from_int(rhs[i]) if rhs else field.zero()
        eqs.append(ExpEquation(0, coeffs, r))
    return make_system([field], eqs, len(rows[0]))


# ---------------------------------------------------------------------------
# sweep-k3
# ---------------------------------------------------------------------------

SWEEP_BASES = {
    "2": [-2, 1],
    "3": [-3, 1],
    "-2": [2, 1],
    "3/2": [-3, 2],
    "sqrt2": [-2, 0, 1],
    "golden": [-1, -1, 1],
    "cubic": [-1, -1, 0, 1],
}
RATIONAL_BASES = ("2", "3", "-2", "3/2")


def power_table(min_poly, box):
    """Integer vectors D * alpha^v, v = 0..box, in the power basis, for one
    common integer D; plain integer recurrences, no expodio arithmetic."""
    c = list(min_poly)
    d = len(c) - 1
    if d == 1:  # alpha = p/q, D = q^box
        p, q = -c[0], c[1]
        return [(p**v * q ** (box - v),) for v in range(box + 1)]
    if c[-1] != 1:
        raise ValueError("monic minimal polynomial expected above degree 1")
    table = [(1,) + (0,) * (d - 1)]
    for _ in range(box):
        prev = table[-1]
        nxt = [0] + list(prev[:-1])  # alpha * prev, then reduce alpha^d
        for h in range(d):
            nxt[h] -= prev[-1] * c[h]
        table.append(tuple(nxt))
    return table


def hash_oracle_3(system):
    """(witness, box) for a single homogeneous 3-variable equation with
    integer coefficients over a base that is not a root of unity: the
    lexicographically least solution in the certified box, or None.

    Shifting all exponents by one preserves solutions, so every box solution
    is a shift of one whose least exponent is 0, and the least of those is
    the least box solution.  For each choice of the exponent that is 0 and
    each value of a second one, the third term is fixed and is looked up in
    a table of the box's powers.
    """
    work = clear_denominators(homogenize(system).inner)
    box = system_box(work).box_limit
    eq = work.equations[0]
    coeffs = []
    for co in eq.coeffs:
        if any(co.coords[1:]) or co.coords[0].denominator != 1:
            raise ValueError("integer coefficients expected")
        coeffs.append(co.coords[0].numerator)
    table = power_table(eq.field().min_poly.coeffs, box)
    index = {}
    for v, vec in enumerate(table):
        index.setdefault(vec, v)
    one = table[0]
    best = None
    for j in range(3):
        p, q = [t for t in range(3) if t != j]
        cj, cp, cq = coeffs[j], coeffs[p], coeffs[q]
        for u, vec in enumerate(table):
            num = [-(cj * a + cp * b) for a, b in zip(one, vec)]
            if any(x % cq for x in num):
                continue
            v = index.get(tuple(x // cq for x in num))
            if v is not None:
                x = [0, 0, 0]
                x[p], x[q] = u, v
                best = min(best or tuple(x), tuple(x))
    return best, box


def _sweep_draw(rng, field, kind):
    """Random small integer coefficients whose homogenized form has both
    signs (an all-positive one is cut at the root by pruning)."""
    row = _mixed_signs(rng, 3, 9)
    if kind == "h3":
        return _int_system(field, [row])
    return _int_system(field, [row[1:]], rhs=[-row[0]])


# Per pass and equation kind: (sat, unsat) draws for rational and irrational
# bases.  Rational-base operations are cheap and many, so the median sits
# inside that class; irrational unsat draws run into the node budget and set
# the tail.  Irrational sat draws are kept only when the least witness starts
# with 0, so they are found in the first branch of the sweep.
SWEEP_MIX = {"rational": (16, 2), "irrational": (2, 1)}


def gen_sweep_k3(rng, ws):
    ops = []
    for name, poly in SWEEP_BASES.items():
        fld = NumberField(poly)
        rational = name in RATIONAL_BASES
        n_sat, n_unsat = SWEEP_MIX["rational" if rational else "irrational"]
        for kind in ("h3", "rhs2"):
            for want in ["sat"] * n_sat + ["unsat"] * n_unsat:
                for _attempt in range(5000):
                    system = _sweep_draw(rng, fld, kind)
                    sol, box = hash_oracle_3(system)
                    if want == "unsat" and sol is None:
                        break
                    if want == "sat" and sol is not None and (rational or sol[0] == 0):
                        break
                else:
                    raise RuntimeError(f"no {want} draw for {name}/{kind}")
                path = ws.write(f"sweep-{kind}", serialize_system(system))
                ops.append(Op(
                    kind="solve",
                    argv=["solve", path] + search_flags(),
                    stratum=f"{name}/{kind}/{want}",
                    truth={"verdict": want,
                           "source": f"hash oracle over [0,{box}]^3, min exponent 0"},
                    system=system,
                    cold=rational and want == "sat",
                ))
    return ops


# ---------------------------------------------------------------------------
# partition-rou
# ---------------------------------------------------------------------------


# Solvable draws per (n, number of values) cell, and parity-unsolvable draws
# only in cells whose cost is either small or bound by the node budget: in
# between, the cost of an unsolvable draw varies several-fold with its
# values, which would make the tail and the throughput depend on the seed.
# The budget-bound draws outnumber the ten operations beyond the tail
# percentile, so the tail is a central value of that class.
PARTITION_SAT_PER_CELL = 24
PARTITION_UNSAT = {(2, 8): 1, (2, 9): 1, (2, 10): 1, (2, 11): 1, (3, 8): 1,
                   (4, 11): 5, (6, 10): 5, (6, 11): 6}


def gen_partition_rou(rng, ws):
    ops = []
    for n in (2, 3, 4, 6):
        for m in (8, 9, 10, 11):
            wants = ["sat"] * PARTITION_SAT_PER_CELL + ["parity"] * PARTITION_UNSAT.get((n, m), 0)
            for want in wants:
                if want == "sat":
                    while True:
                        values = tuple(rng.randint(1, 20) for _ in range(m))
                        inst = PartitionInstance(values)
                        if inst.total % 2 == 0 and partition_oracle(inst):
                            break
                else:
                    # all even with sum = 2 mod 4: the half sum is odd
                    while True:
                        values = tuple(2 * rng.randint(1, 10) for _ in range(m))
                        if sum(values) % 4 == 2:
                            break
                    inst = PartitionInstance(values)
                system = encode_partition(inst, n)
                verdict = "sat" if partition_oracle(inst) else "unsat"
                path = ws.write(f"partition-n{n}", serialize_system(system))
                ops.append(Op(
                    kind="solve",
                    argv=["solve", path] + search_flags(PARTITION_BUDGET),
                    stratum=f"n{n}/m{m}/{want}",
                    truth={"verdict": verdict, "source": "partition_oracle"},
                    system=system,
                    cold=want == "sat" and n == 2,
                    probe=(inst, n),
                ))
    return ops


# ---------------------------------------------------------------------------
# enumerate-mixed
# ---------------------------------------------------------------------------

ORACLE_LEAVES = 8_000


def _oracle_range(k: int):
    span = max(2, int(ORACLE_LEAVES ** (1.0 / k)))
    return -1, span - 2


def _unit_i(field, t):
    """i**t as an element of Q(i)."""
    return [field.element([1, 0]), field.element([0, 1]),
            field.element([-1, 0]), field.element([0, -1])][t % 4]


# Per pass: a cheap, tight-cost root-of-unity class large enough that the
# median falls inside it, the heavy cluster cases (-1 with 8 terms, i with
# 6), one mixed system per root of unity, one k'=3 equation per base.  The
# irrational ones always reach the node budget, so they set the tail.
ENUMERATE_ROU = {(-1, 6): 10, (-1, 8): 2, ("i", 4): 4, ("i", 6): 2}


def gen_enumerate_mixed(rng, ws):
    f_m1 = NumberField([1, 1])
    f_i = NumberField([1, 0, 1])
    f_two = NumberField([-2, 1])
    systems = []
    for (base, j), count in ENUMERATE_ROU.items():
        for _ in range(count):
            if base == -1:
                signs = [rng.choice([-1, 1]) for _ in range(j)]
                systems.append((f"rou-1/j{j}", _int_system(f_m1, [signs]), j == 6))
            else:
                coeffs = tuple(_unit_i(f_i, rng.randint(0, 3)) for _ in range(j))
                system = make_system([f_i], [ExpEquation(0, coeffs, f_i.zero())], j)
                systems.append((f"rou-i/j{j}", system, False))
    for rou, rname in ((f_m1, "-1"), (f_i, "i")):
        row = _mixed_signs(rng, 3, 4)
        eqs = [ExpEquation(0, tuple(f_two.from_int(c) for c in row), f_two.zero()),
               ExpEquation(1, tuple(rou.from_int(1) for _ in range(3)), rou.zero())]
        systems.append((f"mixed-2+{rname}/k3", make_system([f_two, rou], eqs, 3), False))
    for name in RATIONAL_BASES + ("sqrt2", "golden"):
        fld = NumberField(SWEEP_BASES[name])
        systems.append((f"k3/{name}", _int_system(fld, [_mixed_signs(rng, 3, 5)]), False))
    ops = []
    for stratum, system, cold in systems:
        lo, hi = _oracle_range(system.num_vars)
        sols = [s.entries for s in oracle_search(system, lo, hi, SearchLimits(max_candidates=10**6))]
        path = ws.write("enumerate", serialize_system(system))
        ops.append(Op(
            kind="enumerate",
            argv=["enumerate", path] + search_flags(),
            stratum=stratum,
            truth={"oracle_solutions": sols,
                   "source": f"oracle_search over [{lo},{hi}]^{system.num_vars}"},
            system=system,
            cold=cold,
        ))
    return ops


def _mixed_signs(rng, k, top):
    while True:
        row = [rng.choice([-1, 1]) * rng.randint(1, top) for _ in range(k)]
        if min(row) < 0 < max(row):
            return row


# ---------------------------------------------------------------------------
# certify-highdeg
# ---------------------------------------------------------------------------

GEN_DEGREES = (1, 2, 3, 4, 5, 6)
# 3-PARTITION coefficients over these bases exceed the 4300-digit limit on
# int-to-str conversion; gen-3partition crashes there (a known failure).
GEN_CRASH_DEGREES = (8, 16, 32)
RELATION_DEGREES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
# unshifted candidates make the CLI print residuals; at degree >= 8 they stay
# below the int-to-str limit, at degree 1 a perturbed one crosses it
RESIDUAL_DEGREES = (8, 12, 16, 24, 32)


def _planted_3partition(rng, k=2):
    """(instance, triples): 3k values in (L/4, L/2), shuffled, and the index
    triples of sum L they were built from."""
    # at L <= 16 the encoding stays below the int-to-str limit up to degree 6
    target = rng.randint(14, 16)
    values = []
    for _ in range(k):
        while True:
            a = rng.randint(target // 4 + 1, (target - 1) // 2)
            b = rng.randint(target // 4 + 1, (target - 1) // 2)
            c = target - a - b
            if 4 * c > target and 2 * c < target:
                break
        values += [a, b, c]
    order = list(range(3 * k))
    rng.shuffle(order)  # value values[j] goes to position order[j]
    shuffled = [0] * (3 * k)
    for j, pos in enumerate(order):
        shuffled[pos] = values[j]
    triples = [tuple(order[3 * i:3 * i + 3]) for i in range(k)]
    return ThreePartitionInstance.of(shuffled), triples


def _relation_system(fld, groups):
    """sum over groups of sum_i c_i alpha^(a + i) = 0 for min_poly coefficients
    c_i: every group vanishes because alpha is a root of min_poly."""
    poly = fld.min_poly.coeffs
    row = [c for c in poly if c] * groups
    return _int_system(fld, [row])


def _relation_witness(fld, starts):
    poly = fld.min_poly.coeffs
    xs = []
    for a in starts:
        xs += [a + i for i, c in enumerate(poly) if c]
    return xs


def gen_certify_highdeg(rng, ws, groups=4):
    ops = []

    def verify_op(stratum, system, inst_path, xs, valid, cold):
        sol = ws.write("candidate", json.dumps({"x": [str(v) for v in xs]}))
        ops.append(Op(
            kind="verify",
            argv=["verify", inst_path, sol],
            stratum=stratum,
            truth={"valid": valid, "source": "perturbed" if not valid else "planted"},
            system=system,
            cold=cold,
        ))

    for d in GEN_DEGREES + GEN_CRASH_DEGREES:
        inst, _ = _planted_3partition(rng)
        out = ws.path(f"gen3-d{d}")
        argv = ["gen-3partition", "--values", ",".join(map(str, inst.values)),
                f"--base-poly={','.join(map(str, selmer_poly(d)))}", "-o", out]
        ops.append(Op(
            kind="gen-3partition",
            argv=argv,
            stratum=f"gen3/d{d}",
            truth={"verdict": "sat", "source": "planted triples"},
            outputs=[out, out + ".sidecar.json"],
        ))

    for d in GEN_DEGREES:
        fld = NumberField(selmer_poly(d))
        inst, triples = _planted_3partition(rng)
        system, _ = encode_3partition(inst, fld)
        # homogenize with x_0 carrying -rhs so whole-vector shifts stay solutions
        hom = homogenize(system).inner
        path = ws.write(f"3p-d{d}", serialize_system(hom))
        planted = [0] + _three_partition_witness(inst, triples, fld)
        for valid in (True, False):
            xs = [v + SHIFT for v in planted]
            if not valid:
                xs[rng.randrange(1, len(xs))] += 1
            verify_op(f"verify-3p/d{d}", hom, path, xs, valid, False)
        _bounds_op(ops, hom, path, f"bounds-3p/d{d}", max(planted), False)

    for d in RELATION_DEGREES:
        fld = NumberField(selmer_poly(d))
        system = _relation_system(fld, groups)
        path = ws.write(f"rel-d{d}", serialize_system(system))
        # group starts spread log-evenly over 10^3..10^5, each drawn within
        # 5% of its place: the cost of materializing residuals grows with the
        # exponents and must not depend on the seed
        starts = [rng.randint(int(0.95 * c), c) for c in
                  (round(10 ** (3 + 2 * g / (groups - 1))) for g in range(groups))]
        planted = _relation_witness(fld, starts)
        shifts = [SHIFT] + ([0] if d in RESIDUAL_DEGREES else [])
        for shift in shifts:
            for valid in (True, False):
                xs = [v + shift for v in planted]
                if not valid:
                    xs[rng.randrange(len(xs))] += 1
                tag = "shifted" if shift else "residuals"
                verify_op(f"verify-rel/{tag}/d{d}", system, path, xs, valid, d <= 4)
        _bounds_op(ops, system, path, f"bounds-rel/d{d}", d, d <= 4)

    # residuals of a perturbed degree-1 candidate have more than 4300
    # digits; printing them crashes (the same known failure)
    fld = NumberField(selmer_poly(1))
    system = _relation_system(fld, groups)
    path = ws.write("rel-d1-residual", serialize_system(system))
    starts = sorted(rng.sample(range(2 * 10**4, 10**5), groups))
    xs = _relation_witness(fld, starts)
    xs[rng.randrange(len(xs))] += 1
    verify_op("verify-rel/residuals/d1", system, path, xs, False, False)
    return ops


def _bounds_op(ops, system, path, stratum, min_box, cold):
    ops.append(Op(
        kind="bounds",
        argv=["bounds", path],
        stratum=stratum,
        truth={"min_box": min_box,
               "source": "planted solution spread (box must contain it)"},
        system=system,
        cold=cold,
    ))


def _three_partition_witness(inst, triples, fld):
    """The explicit witness of the 3-PARTITION encoding from the planted
    triples: x_p = 2icL, x_q = c(2iL + a_p), x_r = c(2iL + a_p + a_q)."""
    c = c_constant(fld, inst.target * inst.k)
    xs = [0] * len(inst.values)
    for i, (p, q, r) in enumerate(triples):
        base = 2 * i * inst.target
        xs[p] = c * base
        xs[q] = c * (base + inst.values[p])
        xs[r] = c * (base + inst.values[p] + inst.values[q])
    return xs


GENERATORS = {
    "sweep-k3": gen_sweep_k3,
    "partition-rou": gen_partition_rou,
    "enumerate-mixed": gen_enumerate_mixed,
    "certify-highdeg": gen_certify_highdeg,
}


# ---------------------------------------------------------------------------
# Checking answers
# ---------------------------------------------------------------------------


def _witness_ok(system, xs) -> bool:
    if not verify(system, xs):
        return False
    if max((abs(v) for v in xs), default=0) <= NAIVE_EXPONENT_CAP:
        return all(r.is_zero() for r in naive_residuals(system, xs))
    return True


def check(op: Op, out: str) -> Optional[str]:
    """None when the exit-0 output agrees with ground truth, else why not."""
    if op.kind == "gen-3partition":
        inst_text, side_text = out.split("\0")
        side = json.loads(side_text)
        if side["ground_truth"] != "sat":
            return f"planted instance reported {side['ground_truth']}"
        xs = [int(v) for v in side["witness"]]
        if not verify(parse_system(inst_text), xs):
            return "sidecar witness does not verify"
        return None
    doc = json.loads(out)
    if op.kind == "solve":
        want = op.truth["verdict"]
        if doc["status"] != want:
            return f"status {doc['status']}, expected {want} ({op.truth['source']})"
        if want == "sat" and not _witness_ok(op.system, [int(v) for v in doc["witness"]["x"]]):
            return "witness does not verify"
        return None
    if op.kind == "enumerate":
        semiset = SemilinearSet(
            int(doc["vars"]), int(doc["modulus"]),
            tuple(Coset(tuple(int(v) for v in c["base"]),
                        tuple(tuple(p) for p in c["periods"])) for c in doc["cosets"]),
        )
        for coset in semiset.cosets:
            if not verify(op.system, coset.base):
                return f"coset base {coset.base} does not verify"
        for sol in op.truth["oracle_solutions"]:
            if not coset_contains(semiset, sol):
                return f"oracle solution {sol} is in no coset"
        return None
    if op.kind == "verify":
        if doc["valid"] != op.truth["valid"]:
            return f"valid={doc['valid']}, construction says {op.truth['valid']}"
        if doc["residuals"] is not None:
            zero = all(c == "0" for r in doc["residuals"] for c in r)
            if zero != op.truth["valid"]:
                return "residuals disagree with the verdict"
        return None
    if op.kind == "bounds":
        box, modulus, mspn = int(doc["box_limit"]), int(doc["N"]), int(doc["system_mspn"])
        if modulus != 1 or box != modulus + mspn:
            return f"inconsistent report N={modulus} mspn={mspn} box={box}"
        if box < op.truth["min_box"]:
            return f"box {box} excludes the planted solution spread {op.truth['min_box']}"
        return None
    raise ValueError(op.kind)


def log10_volume(k: int, box: int) -> float:
    return k * math.log10(box + 1)
