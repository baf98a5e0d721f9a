"""expodio benchmark: one workload, one seed, every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  The
workload's inputs are generated from the seed and sent one at a time
through ``expodio.cli.run`` in this process (closed loop, one client,
``--jobs 1``), in whole passes over the inputs until ``--seconds`` have
elapsed.  Every answer is checked against ground truth (see
``workloads.py``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
replays each operation layer by layer and prints the per-layer metrics
(see ``tracing.py``).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``design.json`` records
which layer metric should move which end-to-end metric, and the known
failures.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_ROUNDS = 5
WARMUP_OPS = 3
COLD_SAMPLE = 48


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "expodio", "cli.py")):
        print(f"error: no expodio sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import workloads
    from expodio import cli

    if args.workload not in workloads.GENERATORS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.GENERATORS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    with open(os.path.join(BENCH, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)

    run_dir = os.path.join(WORK, f"run-{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        bench = Bench(args, cli, workloads, design, run_dir)
        bench.setup(import_s)
        if args.trace:
            return bench.traced()
        return bench.untraced()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


class Bench:
    def __init__(self, args, cli, workloads, design, run_dir):
        self.args = args
        self.cli = cli
        self.wl = workloads
        self.known = design["known_failures"]
        self.run_dir = run_dir
        self.first = {}  # op index -> first outcome, for the determinism check
        self.nondeterministic = []

    # -- set-up --------------------------------------------------------------

    def setup(self, import_s):
        """Generate inputs and ground truth, then warm up; repeated, and the
        median round (plus the one-off import time) is setup_s."""
        rounds = []
        for r in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            rng = random.Random(f"{self.args.workload}:{self.args.seed}")
            ws = self.wl.Workspace(os.path.join(self.run_dir, f"r{r}"))
            ops = self.wl.GENERATORS[self.args.workload](rng, ws)
            # the expected answers with their sources, kept after the run
            os.makedirs(WORK, exist_ok=True)
            with open(os.path.join(WORK, f"expected-{self.args.workload}-s{self.args.seed}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump([{"argv": op.argv, "stratum": op.stratum,
                            **{k: v for k, v in op.truth.items() if k != "oracle_solutions"}}
                           for op in ops], fh, indent=1)
            for op in [op for op in ops if op.cold][:WARMUP_OPS]:
                self.run_op(op)
            rounds.append(time.perf_counter() - t0)
        self.ops = ops
        self.setup_s = import_s + statistics.median(rounds)

    # -- one operation -------------------------------------------------------

    def run_op(self, op):
        """(seconds, exit code or None, output text, crash description)."""
        out, err = io.StringIO(), io.StringIO()
        crash = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.run(op.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # escaped cli.run: a crash
                crash = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        text = out.getvalue()
        if op.outputs and code == 0:
            text = "\0".join(_read(p) for p in op.outputs)
        return dt, code, text, crash

    def record(self, idx, code, text, crash):
        """Classify one execution; identical inputs must give identical
        outcomes on every pass."""
        outcome = (code, text, crash)
        if idx not in self.first:
            self.first[idx] = outcome
        elif self.first[idx] != outcome:
            self.nondeterministic.append(self.ops[idx].stratum)
        if crash is not None or code not in (0, 3):
            return "failed"
        return "decided" if code == 0 else "undecided"

    def is_known(self, op, crash):
        return crash is not None and any(
            op.kind in k["kinds"] and k["match"] in crash for k in self.known)

    def check_answers(self):
        """Wrong answers per op index, checked once per distinct input."""
        wrong = {}
        for idx, (code, text, crash) in self.first.items():
            if code == 0 and crash is None:
                try:
                    why = self.wl.check(self.ops[idx], text)
                except (ValueError, KeyError, TypeError) as exc:
                    why = f"unreadable output: {exc!r}"
                if why is not None:
                    wrong[idx] = why
        return wrong

    # -- end-to-end run ------------------------------------------------------

    def untraced(self):
        times, classes = [], []
        passes = 0
        plan = self.cold_plan()
        self.cold_run(plan[0])  # untimed: the first fresh process fills caches
        cold = []
        cold_s = 0.0  # time in fresh processes, left out of the loop's wall time
        # fresh processes at evenly spaced moments of the loop, so that a
        # burst of outside load meets only a few of them
        gap = self.args.seconds / len(plan)
        t0 = time.perf_counter()
        while True:
            for idx, op in enumerate(self.ops):
                dt, code, text, crash = self.run_op(op)
                times.append(dt)
                classes.append(self.record(idx, code, text, crash))
                c0 = time.perf_counter()
                if len(cold) < len(plan) and c0 - t0 - cold_s >= (len(cold) + 0.5) * gap:
                    cold.append(self.cold_run(plan[len(cold)]))
                    cold_s += time.perf_counter() - c0
            passes += 1
            if time.perf_counter() - t0 - cold_s >= self.args.seconds:
                break
        loop_s = time.perf_counter() - t0 - cold_s
        cold += [self.cold_run(op) for op in plan[len(cold):]]
        wrong = self.check_answers()
        n = len(times)
        wrong_runs = passes * len(wrong)
        failed_runs = classes.count("failed")
        tail_ms, tail_pct = tail(times)
        metrics = {
            "setup_s": (self.setup_s, "s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "ops_per_s": (n / loop_s, "1/s"),
            "decided_ratio": (classes.count("decided") / n, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cli_cold_ms": (statistics.median(cold) * 1e3, "ms"),
        }
        info = {
            "failed_ratio": ((failed_runs + wrong_runs) / n, "ratio"),
            "wrong_answers": (wrong_runs, "count"),
            "op_tail_percentile": (tail_pct, "%"),
            "ops_timed": (n, "count"),
            "distinct_inputs": (len(self.ops), "count"),
            "undecided_ops": (classes.count("undecided"), "count"),
            "cli_cold_samples": (len(cold), "count"),
        }
        self.report_problems(wrong)
        return self.finish(metrics, info, n, failed_runs + wrong_runs, not wrong)

    def cold_plan(self):
        """A fixed seeded sample of the workload's cheap operations."""
        eligible = [op for op in self.ops if op.cold]
        rng = random.Random(f"{self.args.workload}:{self.args.seed}:cold")
        return [rng.choice(eligible) for _ in range(COLD_SAMPLE)]

    def cold_run(self, op):
        """Wall time of the operation in a fresh `python -m expodio.cli`."""
        t0 = time.perf_counter()
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        subprocess.Popen([sys.executable, "-m", "expodio.cli"] + op.argv, cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL).wait()
        return time.perf_counter() - t0

    # -- traced run ----------------------------------------------------------

    def traced(self):
        """Each operation untraced, then replayed under spans, in whole
        passes until --seconds have elapsed; per-layer metrics per pass."""
        import tracing

        tr = tracing.Tracer()
        passes, untraced_s, enum_s = [], [], []
        problems = []
        failed_runs = 0
        t0 = time.perf_counter()
        while True:
            counts = tracing.Counts()
            u_total = e_total = 0.0
            for idx, op in enumerate(self.ops):
                dt, code, text, crash = self.run_op(op)
                failed_runs += self.record(idx, code, text, crash) == "failed"
                u_total += dt
                if op.kind == "enumerate":
                    e_total += dt
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        nodes = tracing.replay(tr, len(passes) * len(self.ops) + idx, op, counts)
                except Exception as exc:
                    if crash is None:
                        problems.append(f"{op.stratum}: replay raised {exc!r}")
                    continue
                if op.kind == "solve" and code == 0 and nodes != _solve_nodes(text):
                    problems.append(f"{op.stratum}: replay searched {nodes} nodes")
            passes.append(counts)
            untraced_s.append(u_total)
            enum_s.append(e_total)
            if time.perf_counter() - t0 >= self.args.seconds:
                break
        if any(c.exact() != passes[0].exact() for c in passes):
            problems.append("exact counts differ between passes")
        wrong = self.check_answers()
        cosets = sum(len(json.loads(self.first[i][1])["cosets"])
                     for i, op in enumerate(self.ops)
                     if op.kind == "enumerate" and self.first[i][0] == 0 and i not in wrong)
        problems += self.check_record(dict(passes[0].exact(), **{"structure.cosets": cosets}))
        self.nondeterministic += problems
        metrics = layer_metrics(tr, passes, sum(untraced_s), sum(enum_s), cosets)
        k = len(passes)
        info = {
            "passes": (k, "count"),
            "enumerate_op_s": (sum(enum_s) / k, "s"),
            "untraced_op_s": (sum(untraced_s) / k, "s"),
            "spans": (len(tr.spans), "count"),
        }
        self.write_spans(tr)
        self.report_problems(wrong)
        return self.finish(metrics, info, len(self.ops) * k, failed_runs + k * len(wrong),
                           not wrong)

    def check_record(self, exact):
        """Exact counts must repeat between runs of the same code and seed:
        the first run records them, later runs compare."""
        digest = hashlib.sha256()
        for base in (os.path.join(SRC, "expodio"), BENCH):
            for name in sorted(os.listdir(base)):
                if name.endswith((".py", ".json")):
                    with open(os.path.join(base, name), "rb") as fh:
                        digest.update(name.encode() + fh.read())
        path = os.path.join(WORK, "records",
                            f"{self.args.workload}-s{self.args.seed}-{digest.hexdigest()[:16]}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                before = json.load(fh)
            if before != exact:
                return [f"exact counts {exact} differ from an earlier run's {before}"]
            return []
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(exact, fh)
        return []

    def write_spans(self, tr):
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"spans-{self.args.workload}-s{self.args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tr.spans, fh)

    # -- reporting -----------------------------------------------------------

    def report_problems(self, wrong):
        for idx, why in sorted(wrong.items()):
            print(f"WRONG ANSWER {self.ops[idx].stratum} {self.ops[idx].argv[:2]}: {why}",
                  file=sys.stderr)
        for idx, (code, _, crash) in sorted(self.first.items()):
            if crash is None and code in (0, 3):
                continue
            op = self.ops[idx]
            tag = "known failure" if self.is_known(op, crash) else "FAILED"
            print(f"{tag} {op.stratum} {op.kind}: {crash or f'exit {code}'}", file=sys.stderr)
        for stratum in self.nondeterministic:
            print(f"NONDETERMINISTIC {stratum}", file=sys.stderr)

    def finish(self, metrics, info, attempted, failed, correct):
        print(f"workload {self.args.workload} seed {self.args.seed} "
              f"trace {self.args.trace}")
        for name, (value, unit) in list(metrics.items()) + list(info.items()):
            print(f"  {name:28s} {value!r:>24} {unit}")
        ok = correct and not self.nondeterministic
        print(json.dumps({
            "correct": ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 1 if self.nondeterministic else 0


def layer_metrics(tr, passes, untraced_s, enum_s, cosets):
    """Per-layer metrics: span times summed per layer and averaged over the
    passes; counts from the first pass (all passes agree)."""
    k = len(passes)
    selfs = tr.self_times()
    total = {}
    root_s = accounted_s = 0.0
    for i, s in enumerate(tr.spans):
        dur = s["end"] - s["start"]
        if s["parent"] is None:
            root_s += dur
            accounted_s += dur
            total["cli.self"] = total.get("cli.self", 0.0) + selfs[i]
        else:
            total[s["name"]] = total.get(s["name"], 0.0) + dur
            if s["probe"]:
                accounted_s -= dur

    def ms(name):
        return total.get(name, 0.0) / k * 1e3

    def sec(name):
        return total.get(name, 0.0) / k

    first = passes[0]
    sweep_s = sum(c.sweep_s for c in passes) / k
    return {
        "cli.self_ms": (ms("cli.self"), "ms"),
        "model.parse_ms": (ms("model.parse"), "ms"),
        "model.serialize_ms": (ms("model.serialize"), "ms"),
        "algebra.field_ms": (ms("algebra.field"), "ms"),
        "model.prepare_ms": (ms("model.prepare"), "ms"),
        "bounds.box_ms": (ms("bounds.box"), "ms"),
        "bounds.box_limit_p50": (statistics.median(first.boxes) if first.boxes else 0, "count"),
        "bounds.box_limit_max": (max(first.boxes, default=0), "count"),
        "bounds.log10_volume": (first.log10_volume, "log10"),
        "solve.tables_ms": (ms("solve.tables"), "ms"),
        "solve.sweep_s": (sweep_s, "s"),
        "solve.nodes": (first.nodes, "count"),
        "solve.nodes_per_s": (_ratio(first.nodes, sweep_s), "1/s"),
        "solve.limit_ops": (first.limit_ops, "count"),
        "verify.verify_ms": (ms("verify.verify"), "ms"),
        "verify.calls": (first.verify_calls, "count"),
        "verify.report_ms": (ms("verify.report"), "ms"),
        "structure.search_s": (sec("structure.search"), "s"),
        "structure.solutions": (first.solutions, "count"),
        "structure.clusters_s": (sec("structure.clusters"), "s"),
        "structure.clusters_share": (_ratio(sec("structure.clusters"), enum_s / k), "ratio"),
        "structure.cosets": (cosets, "count"),
        "reductions.encode_ms": (ms("reductions.encode"), "ms"),
        "trace.overhead_ratio": (_ratio(root_s, untraced_s), "ratio"),
        "trace.accounted_ratio": (_ratio(accounted_s, untraced_s), "ratio"),
    }


def tail(times):
    """Value of the highest percentile with at least ten operations beyond
    it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1] * 1e3, 100.0
    return ordered[n - 11] * 1e3, 100.0 * (n - 10) / n


def _solve_nodes(text):
    try:
        return int(json.loads(text)["stats"]["candidates_tested"])
    except (ValueError, KeyError, TypeError):
        return None


def _ratio(a, b):
    return a / b if b else 0.0


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


if __name__ == "__main__":
    sys.exit(main())
