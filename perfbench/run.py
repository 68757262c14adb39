"""Benchmark of currentalg verdicts, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdict-grid --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

Each workload is a closed loop: one caller asks for its verdicts back to
back.  A pass is one run of the workload's verdict list in a fresh
interpreter (worker.py); passes run one at a time until ``--seconds`` have
gone, and never fewer than three.  Before the passes, a few extra
interpreters only import the package, so set-up is sampled several times.

Every verdict is checked against a known answer (answers.py).  Output is a
readable report per workload, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json: ``setup_s``
  (fresh interpreter to an imported ``currentalg`` with its CLI parser,
  median over every interpreter started), ``wall_s`` (a typical pass,
  set-up excluded: each verdict's median time over the passes, summed),
  ``verdict_max_s`` (the median time of the workload's slowest verdict) and
  ``peak_rss_mb`` (of a pass process, median over passes).  ``failed_frac``
  (verdicts that raised or differed from their answer, over verdicts
  attempted) is printed in the report and carried by ``failed`` /
  ``attempted``; it is not a metric because it is 0 when all is well.
* ``--trace 1``: traced and untraced passes alternate.  Traced passes wrap
  the public functions of the library in spans (spans.py) and give the
  per-layer metrics of BENCHMARK.json; their spans are written to
  ``perfbench/out/spans-<workload>.jsonl``.  ``trace.overhead_s`` is the
  median traced pass minus the median untraced pass.  Count metrics must
  agree on every traced pass, traced verdicts must equal untraced ones, and
  the self times of each verdict's spans must add up to its root span.

Workloads with dense-table verdicts write their seeded input tables
(gentables.py) to ``perfbench/out/tables-<seed>/``; catalog verdicts do not
depend on the seed.

Exit status: 0 when every verdict and check is correct, 1 when one is not
(the JSON line is still printed), 2 when the benchmark cannot run (no
``src/currentalg`` beside ``perfbench``, a worker crashed or ran out of
time); then no JSON line is printed.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import answers  # noqa: E402
import gentables  # noqa: E402
from workloads import WORKLOADS, verdict_id  # noqa: E402

SETUP_PROBES = 2         # interpreters that only import, before the passes
MIN_PASSES = 3           # untraced passes per run, whatever --seconds says
MIN_TRACED = 2           # traced passes per traced run (plus as many untraced)
RUN_LIMIT_S = 170.0      # a run must end within this, workers included


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (path, exc))


class Worker:
    """One worker.py process; times set-up as spawn to its READY line."""

    def __init__(self, args, deadline, stderr):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT] + args
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.deadline = deadline
        t0 = time.perf_counter()
        # unbuffered, so that reading the READY line leaves the rest of the
        # output in the pipe for communicate()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                                     stdin=subprocess.DEVNULL, env=env, bufsize=0)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline().decode() if ready else ""
            self.setup_s = time.perf_counter() - t0
            if line.strip() != "READY":
                raise BenchError("worker did not start (%s)" % (line.strip() or "no READY line"))
        except BaseException:
            self._kill()
            raise

    def _left(self):
        return max(0.0, self.deadline - time.perf_counter())

    def _kill(self):
        self.proc.kill()
        self.proc.communicate()

    def result(self):
        """The worker's JSON result (None for a set-up probe)."""
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            self._kill()
            raise BenchError("worker ran past the %.0f s run limit" % RUN_LIMIT_S)
        if self.proc.returncode != 0:
            raise BenchError("worker exited with status %d (see %s)"
                             % (self.proc.returncode, os.path.join(OUT, "worker-stderr.log")))
        lines = out.decode().strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _check_pass(workload, res, seen, tally):
    """Check one pass's verdicts; update tally in place."""
    verdicts = WORKLOADS[workload]
    if len(res["verdicts"]) != len(verdicts):
        raise BenchError("worker returned %d verdicts, expected %d"
                         % (len(res["verdicts"]), len(verdicts)))
    for (kind, args), rec in zip(verdicts, res["verdicts"]):
        vid = verdict_id(kind, args)
        if rec["id"] != vid:
            raise BenchError("worker returned %s where %s was due" % (rec["id"], vid))
        tally["attempted"] += 1
        if "error" in rec:
            problems, notes = ["raised %s" % rec["error"]], []
        else:
            problems, notes = answers.check(kind, args, rec["summary"])
            first = seen.setdefault(vid, rec["summary"])
            if rec["summary"] != first:
                problems.append("differs from the same verdict in an earlier pass")
        tally["notes"].update("%s: %s" % (vid, n) for n in notes)
        if problems:
            tally["failed"] += 1
            tally["problems"].extend("%s: %s" % (vid, p) for p in problems)


def _layer_value(name, traced, untraced_walls, problems):
    """One per-layer metric from the traced passes."""
    layers = [r["layers"] for r in traced]
    if name == "trace.wall_s":
        return statistics.median(r["wall_s"] for r in traced)
    if name == "trace.overhead_s":
        return (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(untraced_walls))
    if name == "derivations.lambda_candidates.confirm_ratio":
        base = "derivations.lambda_candidates."
        confirmed = _layer_value(base + "confirmed", traced, untraced_walls, problems)
        candidates = _layer_value(base + "candidates", traced, untraced_walls, problems)
        return confirmed / candidates if candidates else 0.0
    values = [lay.get(name, 0) for lay in layers]
    if name.endswith(".s") or name.endswith("_s"):
        return statistics.median(values)
    if len(set(values)) != 1:
        problems.append("count %s differs between traced passes: %s" % (name, values))
    return values[0]


def run_workload(workload, seed, seconds, trace, spec):
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    tables = os.path.join(OUT, "tables-%d" % seed)
    if any(isinstance(a, str) and a.startswith("@")
           for _, args in WORKLOADS[workload] for a in args):
        gentables.write_tables(seed, tables)
    spans_path = os.path.join(OUT, "spans-%s.jsonl" % workload)
    if trace:
        open(spans_path, "w").close()

    setups, untraced, traced = [], [], []
    tally = {"attempted": 0, "failed": 0, "problems": [], "notes": set()}
    seen = {}
    with open(os.path.join(OUT, "worker-stderr.log"), "a") as stderr:
        for _ in range(SETUP_PROBES):
            w = Worker(["--setup-only"], deadline, stderr)
            w.result()
            setups.append(w.setup_s)
        t_measure = time.perf_counter()
        while True:
            done = (len(untraced) >= MIN_PASSES
                    and (not trace or len(traced) >= MIN_TRACED)
                    and time.perf_counter() - t_measure >= seconds)
            if done:
                break
            tracing = trace and len(untraced) > len(traced)
            args = ["--workload", workload, "--tables", tables,
                    "--pass-index", str(len(untraced) + len(traced))]
            if tracing:
                args += ["--trace", "--spans", spans_path]
            w = Worker(args, deadline, stderr)
            res = w.result()
            setups.append(w.setup_s)
            _check_pass(workload, res, seen, tally)
            (traced if tracing else untraced).append(res)

    problems = tally["problems"]
    walls = [r["wall_s"] for r in untraced]
    # a typical pass: each verdict's median time over the passes, summed
    per_verdict = [statistics.median(r["verdicts"][i]["seconds"] for r in untraced)
                   for i in range(len(WORKLOADS[workload]))]
    slowest = max(range(len(per_verdict)), key=per_verdict.__getitem__)
    metrics = {}
    if trace:
        for res in traced:
            problems.extend("self times of %s do not add up to its root span" % v
                            for v in res["unbalanced"])
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": _layer_value(m["name"], traced, walls, problems),
                                  "unit": m["unit"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_verdict),
            "verdict_max_s": per_verdict[slowest],
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    n = len(WORKLOADS[workload])
    print("%s  seed %d  %d untraced + %d traced passes of %d verdicts  (%.1f s)"
          % (workload, seed, len(untraced), len(traced), n, time.perf_counter() - start))
    if not trace:
        q1, q3 = _quartiles(walls)
        detail = {
            "setup_s": "median of %d interpreter starts" % len(setups),
            "wall_s": "sum of verdict medians over %d passes; whole passes %.4f .. %.4f"
                      % (len(walls), q1, q3),
            "verdict_max_s": "median of the slowest verdict, %s"
                             % verdict_id(*WORKLOADS[workload][slowest]),
            "peak_rss_mb": "median over passes",
        }
    else:
        detail = {}
    for name, m in metrics.items():
        print("  %-48s %14.6g %-6s %s" % (name, m["value"], m["unit"], detail.get(name, "")))
    frac = tally["failed"] / tally["attempted"]
    print("  %-48s %14.6g %-6s %d of %d verdicts failed"
          % ("failed_frac", frac, "1", tally["failed"], tally["attempted"]))
    for note in sorted(tally["notes"]):
        print("  note: " + note)
    for p in problems[:20]:
        print("  FAILED: " + p)
    if len(problems) > 20:
        print("  FAILED: ... %d more" % (len(problems) - 20))
    return {"correct": not problems, "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="currentalg verdict benchmark")
    ap.add_argument("--workload", default="all", choices=["all"] + sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=gentables.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "currentalg", "__init__.py")):
            raise BenchError("no src/currentalg next to %s" % HERE)
        spec = _spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, seconds, args.trace, spec) for w in names}
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
