"""Decision procedure and the independent brute-force oracle.

``decide`` homogenizes the system if needed, clears denominators, computes
the certified search box, and enumerates candidates depth-first in
lexicographic order with per-equation feasibility pruning: for every
variable and equation the attainable term values over the whole box are
bracketed coordinate-wise, so a partial assignment whose residual cannot be
cancelled by any completion is cut immediately.  Pruning is validated by
agreement with the unpruned search and never changes the decision.

``oracle_search`` is the deliberately naive ground truth used by the test
suite: powers by repeated multiplication, no bounds, no pruning, full sweep
of an explicit range.  It shares nothing with ``decide`` beyond the field
arithmetic kernel.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .algebra import field_inverse
from .bounds import system_box
from .errors import InternalError, ResourceLimitExceeded, TooManyVariables
from .model import ExpSystem, clear_denominators, homogenize
from .verify import SolutionVector, verify

SAT = "sat"
UNSAT = "unsat"


@dataclass
class SearchLimits:
    """Resource limits for exhaustive search.  ``max_candidates`` counts
    every partial assignment tried (tree nodes, not just leaves)."""

    max_candidates: int = 10**8
    max_seconds: float = 60.0
    max_vars: int = 12

    def check_vars(self, num_vars: int) -> None:
        """Refuse an exhaustive search over more than ``max_vars`` variables."""
        if num_vars > self.max_vars:
            raise TooManyVariables(
                f"{num_vars} variables exceeds the configured maximum {self.max_vars}"
            )


@dataclass
class SearchStats:
    candidates_tested: int
    elapsed: float
    box_limit: int
    modulus: int


@dataclass
class DecisionResult:
    status: str
    witness: Optional[SolutionVector]
    stats: SearchStats

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": None
            if self.witness is None
            else {"x": [str(v) for v in self.witness.entries]},
            "stats": {
                "candidates_tested": str(self.stats.candidates_tested),
                "box_limit": str(self.stats.box_limit),
                "N": str(self.stats.modulus),
            },
        }


def prepare(system: ExpSystem):
    """Homogenize, clear denominators, and compute the bound report; the
    common front end of decide and the solution-set enumerator."""
    homog = homogenize(system)
    work = clear_denominators(homog.inner)
    report = system_box(work)
    return homog, work, report


# ---------------------------------------------------------------------------
# Search engine
# ---------------------------------------------------------------------------


# Refuse to materialize per-variable term tables beyond this many cells.
_TABLE_CELL_CAP = 10**7


class _Found(Exception):
    pass


class _OverBudget(Exception):
    pass


class _Cancelled(Exception):
    pass


def _flat_tables(work: ExpSystem, box: int):
    """Per-variable term-value tables, flattened across equations.

    TERM[j][x] is the concatenation over equations i of the coordinates of
    coeff_ij * alpha_i^x.  A candidate solves the system iff its flat term
    vectors sum to zero.
    """
    powers = {}
    for field in set(work.fields):
        alpha = field.alpha()
        row = [field.one()]
        for _ in range(box):
            row.append(row[-1] * alpha)
        powers[field] = row
    k = work.num_vars
    term = [[[] for _ in range(box + 1)] for _ in range(k)]
    for eq in work.equations:
        row = powers[work.fields[eq.base_index]]
        for j in range(k):
            c = eq.coeffs[j]
            for x in range(box + 1):
                term[j][x].extend((c * row[x]).coords)
    return [tuple(tuple(col) for col in var) for var in term]


def _prune_tables(term, k: int, box: int, width: int):
    """Coordinate-wise brackets of the achievable tail sums: suffix sums of
    per-variable minima and maxima over the whole box."""
    lo = [None] * k
    hi = [None] * k
    for j in range(k):
        cols = term[j]
        lo[j] = tuple(min(col[h] for col in cols) for h in range(width))
        hi[j] = tuple(max(col[h] for col in cols) for h in range(width))
    suffix_lo = [(0,) * width for _ in range(k + 1)]
    suffix_hi = [(0,) * width for _ in range(k + 1)]
    for j in range(k - 1, -1, -1):
        suffix_lo[j] = tuple(a + b for a, b in zip(lo[j], suffix_lo[j + 1]))
        suffix_hi[j] = tuple(a + b for a, b in zip(hi[j], suffix_hi[j + 1]))
    return suffix_lo, suffix_hi


def _run_search(
    work: ExpSystem,
    box: int,
    limits: SearchLimits,
    *,
    prune: bool = True,
    collect_all: bool = False,
    outer_values: Optional[Sequence[int]] = None,
    cancel=None,
):
    """Depth-first sweep of [0, box]^k for a homogeneous integer system.

    Returns (witnesses, nodes, exhausted).  ``exhausted`` is False only when
    the sweep stopped early on a first witness.  Budget overruns raise
    ResourceLimitExceeded; a set cancel event raises _Cancelled.
    """
    k = work.num_vars
    width = sum(work.fields[eq.base_index].degree for eq in work.equations)
    if (box + 1) * k * width > _TABLE_CELL_CAP:
        raise ResourceLimitExceeded(
            f"term tables for box {box} with {k} variables exceed the memory budget"
        )
    term = _flat_tables(work, box)
    zero = (0,) * width
    budget = limits.max_candidates
    deadline = time.monotonic() + limits.max_seconds
    found = []
    nodes = 0
    last = k - 1

    if prune:
        suffix_lo, suffix_hi = _prune_tables(term, k, box, width)

    def feasible(partial, depth):
        slo = suffix_lo[depth]
        shi = suffix_hi[depth]
        for h in range(width):
            p = partial[h]
            if p + slo[h] > 0 or p + shi[h] < 0:
                return False
        return True

    stack = []

    def rec(depth, partial):
        nonlocal nodes
        values = outer_values if depth == 0 and outer_values is not None else range(box + 1)
        cols = term[depth]
        for x in values:
            nodes += 1
            if nodes % 1024 == 0:
                if time.monotonic() > deadline:
                    raise _OverBudget
                if cancel is not None and cancel.is_set():
                    raise _Cancelled
            if nodes > budget:
                raise _OverBudget
            nxt = tuple(a + b for a, b in zip(partial, cols[x]))
            if depth == last:
                if nxt == zero:
                    found.append(tuple(stack) + (x,))
                    if not collect_all:
                        raise _Found
            elif not prune or feasible(nxt, depth + 1):
                stack.append(x)
                rec(depth + 1, nxt)
                stack.pop()

    try:
        rec(0, zero)
    except _Found:
        return found, nodes, False
    except _OverBudget:
        raise ResourceLimitExceeded(
            f"search budget exhausted after {nodes} candidates (box {box}, {k} variables)"
        ) from None
    return found, nodes, True


# ---------------------------------------------------------------------------
# Decision procedure
# ---------------------------------------------------------------------------


def decide(
    system: ExpSystem,
    limits: Optional[SearchLimits] = None,
    *,
    jobs: int = 1,
    box_override: Optional[int] = None,
    prune: bool = True,
) -> DecisionResult:
    """Decide solvability by exhaustive sweep of the certified box.

    Returns SAT with the first verified witness (lexicographically least in
    the box when jobs = 1), dehomogenized for non-homogeneous inputs, or
    UNSAT after exhausting the box.  An exceeded budget raises rather than
    returning a truncated UNSAT.
    """
    limits = limits or SearchLimits()
    limits.check_vars(system.num_vars)
    homog, work, report = prepare(system)
    box = report.box_limit if box_override is None else box_override
    started = time.monotonic()
    if jobs > 1:
        witness_raw, nodes = _parallel_first_witness(work, box, limits, jobs)
    else:
        found, nodes, _ = _run_search(work, box, limits, prune=prune)
        witness_raw = found[0] if found else None
    elapsed = time.monotonic() - started
    stats = SearchStats(nodes, elapsed, box, report.modulus)
    if witness_raw is None:
        return DecisionResult(UNSAT, None, stats)
    witness = SolutionVector(homog.dehomogenize(witness_raw))
    if not verify(system, witness):
        raise InternalError(f"search returned {witness.entries}, which fails verification")
    return DecisionResult(SAT, witness, stats)


def _parallel_first_witness(work, box, limits, jobs):
    """Static partition of the outermost variable across worker processes;
    the first witness wins via a shared cancellation event.  The decision is
    deterministic; the witness identity is not."""
    chunks = _chunks(box + 1, jobs)
    share = replace(limits, max_candidates=max(limits.max_candidates // len(chunks), 1))

    def search(outer, cancel):
        try:
            found, n, _ = _run_search(work, box, share, outer_values=outer, cancel=cancel)
        except ResourceLimitExceeded:
            return "limit", None, 0
        except _Cancelled:
            return "cancelled", None, 0
        if found:
            cancel.set()
            return "sat", found[0], n
        return "unsat", None, n

    results = _fork_map(search, chunks)
    nodes = sum(r[2] for r in results)
    for status, payload, _ in results:
        if status == "sat":
            return tuple(payload), nodes
    if any(status == "limit" for status, _, _ in results):
        raise ResourceLimitExceeded("a search worker exhausted its budget")
    return None, nodes


def _chunks(items: int, jobs: int) -> list:
    """Round-robin split of range(items) into one range per worker, for at
    most min(jobs, CPU count, items) workers."""
    workers = max(min(jobs, os.cpu_count() or 1, items), 1)
    return [range(start, items, workers) for start in range(workers)]


def _fork_map(task, chunks) -> list:
    """[task(chunk, cancel) for chunk in chunks], one forked worker process
    per chunk; ``cancel`` is an event shared by all workers.

    Workers are forked, not spawned, because tasks are closures over the
    search state.  Raises RuntimeError when a task raises or a worker exits
    without a result; the other workers are then terminated.
    """
    import multiprocessing  # here, so that calls that never fork skip the import

    ctx = multiprocessing.get_context("fork")
    cancel = ctx.Event()
    procs, readers = [], []

    def work(chunk, conn):
        try:
            conn.send(("ok", task(chunk, cancel)))
        except Exception as exc:
            conn.send(("error", repr(exc)))

    try:
        for chunk in chunks:
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=work, args=(chunk, writer))
            proc.start()
            # Workers forked later must not inherit this write end: the
            # reader sees end-of-file once this worker has exited.
            writer.close()
            procs.append(proc)
            readers.append(reader)
        results = []
        for reader in readers:
            try:
                status, payload = reader.recv()
            except EOFError:
                raise RuntimeError("a worker process exited without a result") from None
            if status == "error":
                raise RuntimeError(f"worker failed: {payload}")
            results.append(payload)
        return results
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for reader in readers:
            reader.close()


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def oracle_search(
    system: ExpSystem,
    lo: int,
    hi: int,
    limits: Optional[SearchLimits] = None,
) -> list:
    """All solutions in [lo, hi]^k by plain enumeration with powers computed
    by repeated multiplication.  Ground truth for the pipeline; keep naive."""
    limits = limits or SearchLimits()
    k = system.num_vars
    span = hi - lo + 1
    if span < 1:
        return []
    if span**k > limits.max_candidates:
        raise ResourceLimitExceeded(f"oracle range {span}^{k} exceeds the candidate budget")

    powers = {}
    for field in set(system.fields):
        alpha = field.alpha()
        acc = field.one()
        if lo >= 0:
            for _ in range(lo):
                acc = acc * alpha
        else:
            inv = field_inverse(alpha)
            for _ in range(-lo):
                acc = acc * inv
        row = [acc]
        for _ in range(span - 1):
            acc = acc * alpha
            row.append(acc)
        powers[field] = row

    term = [[[] for _ in range(span)] for _ in range(k)]
    start = []
    for eq in system.equations:
        row = powers[system.fields[eq.base_index]]
        start.extend((-eq.rhs).coords)
        for j in range(k):
            c = eq.coeffs[j]
            for x in range(span):
                term[j][x].extend((c * row[x]).coords)
    term = [tuple(tuple(col) for col in var) for var in term]
    width = len(start)
    zero = (0,) * width

    solutions = []
    assignment = [0] * k

    def sweep(depth, partial):
        cols = term[depth]
        if depth == k - 1:
            for x in range(span):
                if tuple(a + b for a, b in zip(partial, cols[x])) == zero:
                    assignment[depth] = x
                    solutions.append(
                        SolutionVector(tuple(lo + v for v in assignment))
                    )
        else:
            for x in range(span):
                assignment[depth] = x
                sweep(depth + 1, tuple(a + b for a, b in zip(partial, cols[x])))

    sweep(0, tuple(start))
    return solutions


def naive_residuals(system: ExpSystem, candidate) -> list:
    """Residuals computed with repeated multiplication only; cross-check for
    the square-and-multiply path at small exponents."""
    xs = SolutionVector.coerce(candidate).entries
    residuals = []
    for eq in system.equations:
        field = eq.field()
        alpha = field.alpha()
        inv = None
        total = -eq.rhs
        for c, x in zip(eq.coeffs, xs):
            if c.is_zero():
                continue
            acc = field.one()
            if x >= 0:
                for _ in range(x):
                    acc = acc * alpha
            else:
                if inv is None:
                    inv = field_inverse(alpha)
                for _ in range(-x):
                    acc = acc * inv
            total = total + c * acc
        residuals.append(total)
    return residuals
