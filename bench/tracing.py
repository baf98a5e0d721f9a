"""Traced replay: each operation once more, layer by layer.

The benchmark cannot see inside the program, so it replays what the CLI
does for an operation with one span around every call it makes into an
expodio module.  The replay runs the same calls as the CLI path ("pipeline"
spans).  Phases that the program runs inside one of those calls, such as
the term tables inside ``decide``, are timed by calling the same function
again with the same arguments; those spans are marked as probes and are
left out when the spans are matched against the operation's wall time.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover; the root span of an operation is the
CLI layer itself (argument parsing, file I/O, JSON).
"""

from __future__ import annotations

import json
import math
import re
import time
from collections import defaultdict
from contextlib import contextmanager

from expodio import (
    IntPolynomial,
    NumberField,
    ResourceLimitExceeded,
    ThreePartitionInstance,
    decide,
    encode_3partition,
    encode_partition,
    parse_solution,
    parse_system,
    serialize_system,
    system_box,
    verify,
    verify_report,
)
from expodio import cli, solve
from expodio.model import clear_denominators, homogenize
from expodio.structure import _cluster_partitions

_NODES_RE = re.compile(r"after (\d+) candidates")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, op_id, probe=False):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": op_id, "probe": probe}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Per span index, duration minus the duration of its children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child[i] for i, s in enumerate(self.spans)]


class Counts:
    """Per-pass counters read at the layer boundaries of the replay."""

    def __init__(self):
        self.boxes = []
        self.log10_volume = 0.0
        self.nodes = 0
        self.sweep_s = 0.0
        self.limit_ops = 0
        self.verify_calls = 0
        self.solutions = 0

    def exact(self):
        return {"solve.nodes": self.nodes, "structure.solutions": self.solutions,
                "bounds.log10_volume": repr(self.log10_volume)}


def replay(tr: Tracer, op_id: int, op, counts: Counts):
    """Replay one operation under spans; returns the replay's search nodes
    (solve) so the caller can match them against the untraced output."""
    with tr.span("cli", op_id):
        args = cli.build_parser().parse_args(op.argv)
        return _REPLAYS[op.kind](tr, op_id, op, args, counts)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _field_probe(tr, i, system):
    with tr.span("algebra.field", i, probe=True):
        for f in set(system.fields):
            NumberField(f.min_poly)


def _prepare(tr, i, system, counts, probe):
    with tr.span("model.prepare", i, probe=probe):
        work = clear_denominators(homogenize(system).inner)
    with tr.span("bounds.box", i, probe=probe):
        box = system_box(work).box_limit
    counts.boxes.append(box)
    counts.log10_volume += work.num_vars * math.log10(box + 1)
    return work, box


def _tables_probe(tr, i, work, box):
    width = sum(work.fields[eq.base_index].degree for eq in work.equations)
    if (box + 1) * work.num_vars * width <= solve._TABLE_CELL_CAP:
        with tr.span("solve.tables", i, probe=True):
            solve._flat_tables(work, box)


def _encode_probe(tr, i, op):
    if op.probe is not None:
        inst, n = op.probe
        with tr.span("reductions.encode", i, probe=True):
            encode_partition(inst, n)


def _limit_nodes(exc, budget):
    m = _NODES_RE.search(str(exc))
    return int(m.group(1)) if m else budget


def _replay_solve(tr, i, op, args, counts):
    text = _read(args.instance)
    with tr.span("model.parse", i):
        system = parse_system(text)
    _field_probe(tr, i, system)
    _encode_probe(tr, i, op)
    work, box = _prepare(tr, i, system, counts, probe=True)
    _tables_probe(tr, i, work, box)
    with tr.span("solve.decide", i) as sp:
        try:
            result = decide(system, cli._limits(args), jobs=args.jobs)
        except ResourceLimitExceeded as exc:
            result = None
            nodes = _limit_nodes(exc, args.budget)
    if result is None:
        counts.limit_ops += 1
        counts.sweep_s += sp["end"] - sp["start"]
        counts.nodes += nodes
        return nodes
    counts.nodes += result.stats.candidates_tested
    counts.sweep_s += result.stats.elapsed
    if result.witness is not None:
        with tr.span("verify.verify", i, probe=True):
            verify(system, result.witness)
        counts.verify_calls += 1
    json.dumps(result.to_json_dict(), indent=2)
    return result.stats.candidates_tested


def _replay_enumerate(tr, i, op, args, counts):
    text = _read(args.instance)
    with tr.span("model.parse", i):
        system = parse_system(text)
    _field_probe(tr, i, system)
    work, box = _prepare(tr, i, system, counts, probe=False)
    _tables_probe(tr, i, work, box)
    with tr.span("structure.search", i):
        try:
            sols, _, _ = solve._run_search(work, box, cli._limits(args), collect_all=True)
        except ResourceLimitExceeded:
            counts.limit_ops += 1
            return None
    counts.solutions += len(sols)
    with tr.span("structure.clusters", i):
        for sol in sols:
            _cluster_partitions(work, sol)
    return len(sols)


def _replay_verify(tr, i, op, args, counts):
    inst_text = _read(args.instance)
    sol_text = _read(args.solution)
    with tr.span("model.parse", i):
        system = parse_system(inst_text)
        candidate = parse_solution(sol_text)
    _field_probe(tr, i, system)
    with tr.span("verify.verify", i):
        valid = verify(system, candidate)
    counts.verify_calls += 1
    residuals = None
    if max(abs(x) for x in candidate.entries) <= cli._RESIDUAL_EXPONENT_CAP:
        with tr.span("verify.report", i):
            report = verify_report(system, candidate)
        residuals = [[str(c) for c in r.coords] for r in report]
    json.dumps({"valid": valid, "residuals": residuals}, indent=2)
    return None


def _replay_bounds(tr, i, op, args, counts):
    text = _read(args.instance)
    with tr.span("model.parse", i):
        system = parse_system(text)
    _field_probe(tr, i, system)
    work, box = _prepare(tr, i, system, counts, probe=False)
    json.dumps({"box_limit": str(box)}, indent=2)
    return None


def _replay_gen3(tr, i, op, args, counts):
    inst = ThreePartitionInstance.of(cli._parse_int_list(args.values))
    with tr.span("algebra.field", i):
        fld = NumberField(IntPolynomial.of(cli._parse_int_list(args.base_poly)))
    with tr.span("reductions.encode", i):
        system, witness = encode_3partition(inst, fld)
    with tr.span("model.serialize", i):
        text = serialize_system(system)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(args.out + ".sidecar.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"witness": None if witness is None
                             else [str(v) for v in witness.entries]}, indent=2))
    return None


_REPLAYS = {
    "solve": _replay_solve,
    "enumerate": _replay_enumerate,
    "verify": _replay_verify,
    "bounds": _replay_bounds,
    "gen-3partition": _replay_gen3,
}
