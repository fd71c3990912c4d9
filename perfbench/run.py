"""caliblab benchmark: seeded CLI request lists, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload flat-algebra --seed 0 --seconds 25 --trace 0

A single client calls ``caliblab.cli.main(argv)`` in this process, one
request after the other (a closed loop), over the workload's request list
(see ``workloads.py``), and checks every request's output (see
``checks.py``).  It repeats the list while time remains of ``--seconds``;
the first pass always completes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
same untraced passes, then one pass with every public function of the
package wrapped in a span (see ``tracer.py``), and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-golden`` stores the records of seed 0 as the golden records the
default-seed check compares against.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the program's matrices are small, and idle OpenBLAS threads
# spinning on two vCPUs made per-request CPU times vary by tens of percent.
# Set before numpy is first imported, here and in the set-up interpreters.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"
DEFAULT_SEED = 0
SETUP_SAMPLES = 7

# a fresh interpreter imports caliblab and makes the cheapest request of each
# case, which builds the lazy tables every CLI invocation pays for: kits,
# wedge/star tables, the G2 and Spin(7) decomposition maps
SETUP_CODE = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import caliblab.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    for case in ("um", "associative", "coassociative", "cayley"):
        if cli.main(["theorem", "--case", case, "--count", "1"]) != 0:
            sys.exit(1)
print(time.perf_counter() - t0)
"""


class Outcome:
    """One request: its process CPU time, records and failed checks."""
    __slots__ = ("cpu", "records", "errors", "text")

    def __init__(self, cpu, records, errors):
        self.cpu, self.records, self.errors = cpu, records, errors
        self.text = checks.canonical(records)


def run_request(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback from any input is a failed request
        error = f"{type(exc).__name__}: {exc}"
    cpu = time.process_time() - c0
    try:
        records = checks.parse_records(out.getvalue())
    except json.JSONDecodeError as exc:
        records, error = [], error or f"unparseable output: {exc}"
    errors = checks.request_errors(rc, error, records)
    if errors and err.getvalue().strip():
        errors.append("stderr: " + err.getvalue().strip().splitlines()[-1])
    return Outcome(cpu, records, errors)


class Pass:
    """One pass over the request list, in the given order: wall, process CPU
    and CPU steal seconds; ``outcomes`` are in list order."""
    __slots__ = ("wall", "cpu", "steal", "outcomes")

    def __init__(self, cli, requests, order):
        steal0 = steal_seconds()
        t0, c0 = time.perf_counter(), time.process_time()
        done = {i: run_request(cli, requests[i]) for i in order}
        self.wall, self.cpu = time.perf_counter() - t0, time.process_time() - c0
        steal1 = steal_seconds()
        self.steal = None if steal0 is None or steal1 is None else steal1 - steal0
        self.outcomes = [done[i] for i in range(len(requests))]


def run_passes(cli, requests, seconds: float, rng: random.Random) -> list[Pass]:
    """Passes over the list while the next one is expected to fit in ``seconds``.

    The first pass runs the list in order; each later pass in a new seeded
    order.  The host's speed drifts over seconds, and in a fixed order a slow
    stretch would hit the same requests in every pass, which the median over
    passes of a request's CPU time could not filter out."""
    passes = []
    order = list(range(len(requests)))
    t0 = time.perf_counter()
    while True:
        passes.append(Pass(cli, requests, order))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - t0 + typical > seconds:
            return passes
        rng.shuffle(order)


def setup_seconds() -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def steal_seconds() -> float | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_metadata(seed: int) -> dict:
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(),
            "blas_threads_env": {k: os.environ[k] for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS", "CALIBLAB_THREADS") if k in os.environ}}


# ---------------------------------------------------------------------------
# metrics

def per_request_cpu_ms(passes) -> list[float]:
    """Median over passes of each request's process CPU time, in list order."""
    return [1000 * statistics.median(p.outcomes[i].cpu for p in passes)
            for i in range(len(passes[0].outcomes))]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 0.0, ordered[0]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(passes, setup_s: float) -> tuple[dict, list[str]]:
    per_req = per_request_cpu_ms(passes)
    pct, tail_ms = tail(per_req)
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "req_cpu_p50_ms": (statistics.median(per_req), "ms"),
        "req_cpu_tail_ms": (tail_ms, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"req_cpu_tail_ms is p{pct:.1f} over {len(per_req)} requests "
             f"(each the median of {len(passes)} passes)"]
    return metrics, notes


def per_layer(tracer: Tracer, spans: dict, traced_wall: float, untraced_wall: float,
              records: int) -> tuple[dict, list[str], bool]:
    res = tracer.analyze(spans)
    self_ns, incl = res["self_ns"], res["inclusive_ns"]
    fid, parent, size = spans["fid"], spans["parent"], spans["size"]
    names, layers = tracer.names, tracer.layers
    nf = len(names)
    calls = np.bincount(fid, minlength=nf)
    fn_self = np.bincount(fid, weights=self_ns, minlength=nf)
    fn_size = np.bincount(fid, weights=size, minlength=nf)
    layer_self: dict[str, float] = {}
    for f in range(nf):
        layer_self[layers[f]] = layer_self.get(layers[f], 0.0) + fn_self[f]

    group = tracer.fids

    def by_name(*wanted):
        return group(lambda name, f: name in wanted)

    def n_calls(fids):
        return int(sum(calls[f] for f in fids))

    def busy(fids):
        return tracer.busy_ns(spans, incl, fids) / 1e9

    # quadrature nodes enter variation through its entry points: calls into
    # variation from another layer, with a rule or nodes argument
    is_var = np.isin(fid, list(group(lambda name, f: layers[f] == "variation")))
    from_outside = parent < 0
    from_outside[~from_outside] = ~is_var[parent[~from_outside]]
    entry = is_var & from_outside & (size > 0)
    nodes = int(size[entry].sum())
    var_busy = float(incl[entry].sum()) / 1e9
    batch = group(lambda name, f: layers[f] == "decomposition" and name.endswith("_batch"))
    batch_rows = int(sum(fn_size[f] for f in batch))
    field_batch = group(lambda name, f: layers[f] == "fields" and name.endswith("_batch"))
    point_evals = group(lambda name, f: layers[f] == "fields" and "y" in tracer.params[f])
    jac_calls = n_calls(by_name("submanifold.Patch.jacobian"))
    identity = group(lambda name, f: layers[f] == "structures"
                     and ("identity" in name or "equality" in name))
    ctors = group(lambda name, f: name.startswith("exterior.KForm.") and tracer.is_static[f])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in ("cli", "variation", "structures", "submanifold", "decomposition",
                  "fields", "exterior", "smith"):
        m[f"{layer}.self_s"] = (float(layer_self.get(layer, 0.0)) / 1e9, "s")
    m["cli.records"] = (records, "count")
    m["cli.pool_overlap"] = (ratio(spans["pool_cpu_ns"], res["pool_wall_ns"]), "ratio")
    m["variation.nodes"] = (nodes, "count")
    m["variation.us_per_node"] = (ratio(1e6 * var_busy, nodes), "us/node")
    for fn in ("theorem_A_experiment", "theorem_B_defect", "chain_consistency",
               "cayley_anomaly", "flow_volume_derivative", "divergence_route"):
        m[f"variation.{fn}.busy_s"] = (busy(by_name(f"variation.{fn}")), "s")
    m["variation.closed_form_trace.calls"] = (n_calls(by_name("variation.closed_form_trace")),
                                              "count")
    m["structures.cross_calls"] = (n_calls(by_name("structures.cross_2fold",
                                                   "structures.chi_3fold",
                                                   "structures.cayley_cross")), "count")
    m["structures.cayley_cross.busy_s"] = (busy(by_name("structures.cayley_cross")), "s")
    m["structures.standard_kit.calls"] = (n_calls(by_name("structures.standard_kit")), "count")
    m["structures.identity_busy_s"] = (busy(identity), "s")
    m["submanifold.jacobian.calls"] = (jac_calls, "count")
    m["submanifold.jacobian_per_node"] = (ratio(jac_calls, nodes), "calls/node")
    m["submanifold.normal_projector.calls"] = (
        n_calls(by_name("submanifold.normal_projector")), "count")
    m["submanifold.mean_curvature.busy_s"] = (busy(by_name("submanifold.mean_curvature")), "s")
    m["decomposition.batch_calls"] = (n_calls(batch), "count")
    m["decomposition.rows_per_call"] = (ratio(batch_rows, n_calls(batch)), "rows/call")
    m["fields.point_evals"] = (n_calls(point_evals), "count")
    m["fields.batch_rows"] = (int(sum(fn_size[f] for f in field_batch)), "count")
    m["exterior.calls"] = (n_calls(group(lambda name, f: layers[f] == "exterior")), "count")
    m["exterior.wedge.calls"] = (n_calls(by_name("exterior.wedge")), "count")
    m["exterior.evaluate.calls"] = (n_calls(by_name("exterior.evaluate")), "count")
    m["exterior.kform_built"] = (n_calls(ctors), "count")
    m["smith.calls"] = (n_calls(group(lambda name, f: layers[f] == "smith")), "count")
    m["trace.overhead"] = (ratio(traced_wall, untraced_wall), "ratio")

    total_self = float(sum(layer_self.values())) / 1e9
    harness = traced_wall - total_self
    notes = [
        f"variation.us_per_node: {var_busy:.3f} s in variation entry calls / {nodes} nodes",
        f"submanifold.jacobian_per_node: {jac_calls} jacobian calls / {nodes} nodes",
        f"decomposition.rows_per_call: {batch_rows} rows / {n_calls(batch)} batch calls",
        f"cli.pool_overlap: {spans['pool_cpu_ns'] / 1e9:.3f} s pool-thread CPU / "
        f"{res['pool_wall_ns'] / 1e9:.3f} s wall of requests that used the pool",
        f"trace.overhead: {traced_wall:.3f} s traced / {untraced_wall:.3f} s untraced pass",
        "self time by layer: " + ", ".join(
            f"{k} {v / 1e9:.3f} s ({100 * v / 1e9 / traced_wall:.1f}%)"
            for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1])),
        f"accounting: layers {total_self:.3f} s + harness {harness:.3f} s = traced wall "
        f"{traced_wall:.3f} s ({len(fid)} spans)",
        f"variation entry calls: {int(entry.sum())}",
    ]
    accounted = (0.0 <= harness <= 0.25 * traced_wall
                 and abs(res["roots_ns"] / 1e9 - total_self) <= 1e-6 * max(1.0, total_self)
                 and float(self_ns.min(initial=0.0)) > -1e3)
    return m, notes, accounted


def write_spans(tracer: Tracer, spans: dict, workload: str, seed: int) -> Path:
    """Spans as numpy columns; ``names`` maps the ``fid`` column to functions."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.npz"
    np.savez_compressed(path, names=np.array(tracer.names),
                        **{k: v for k, v in spans.items() if k != "pool_cpu_ns"})
    return path


# ---------------------------------------------------------------------------

def load_golden(workload: str):
    path = GOLDEN / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def check_passes(passes, requests, golden, first, label="pass") -> tuple[int, int, list[str]]:
    """(attempted, failed, problems).  Besides each request's own checks, every
    pass must print the records of the first untraced pass, ``first``."""
    attempted = failed = 0
    problems = []
    for k, p in enumerate(passes):
        for i, out in enumerate(p.outcomes):
            errors = list(out.errors)
            if golden is not None:
                if len(golden) != len(requests) or golden[i]["argv"] != requests[i]:
                    errors.append("golden records are for another request list")
                else:
                    errors += checks.golden_errors(out.records, golden[i]["records"])
            if out is not first[i] and out.text != first[i].text:
                errors.append("records differ from the first pass")
            attempted += 1
            if errors:
                failed += 1
                problems.append(f"{label} {k + 1} request {i} {' '.join(requests[i])}: "
                                f"{'; '.join(errors[:3])}")
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "caliblab" / "__init__.py").is_file():
        print(f"error: no caliblab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import caliblab
    import caliblab.cli as cli
    if Path(caliblab.__file__).resolve().parent != SRC / "caliblab":
        print(f"error: imported caliblab from {caliblab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    requests = workloads.requests_for(args.workload, args.seed)
    golden = load_golden(args.workload) if args.seed == DEFAULT_SEED and not args.write_golden \
        else None
    meta = run_metadata(args.seed)
    print(f"# caliblab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(requests)} requests per pass, trace {args.trace}")
    print(f"# {workloads.WHY[args.workload]}")

    setup_s = setup_seconds() if not args.trace else None
    passes = run_passes(cli, requests, args.seconds,
                        random.Random(f"pass-order:{args.workload}:{args.seed}"))
    steals = [p.steal for p in passes]
    meta["steal_s"] = None if None in steals else round(sum(steals), 3)
    meta["passes"] = len(passes)
    print("meta " + json.dumps(meta, sort_keys=True))
    for k, p in enumerate(passes):
        steal = "unknown" if p.steal is None else f"{p.steal:.2f} s"
        print(f"pass {k + 1}: wall {p.wall:.3f} s, cpu {p.cpu:.3f} s, steal {steal}")

    first = passes[0].outcomes
    attempted, failed, problems = check_passes(passes, requests, golden, first)
    if args.write_golden:
        if failed:
            print("error: not writing golden records from a run with failed requests",
                  file=sys.stderr)
            return 1
        GOLDEN.mkdir(exist_ok=True)
        entries = [{"argv": argv, "records": [{k: v for k, v in r.items() if k != "wall_ms"}
                                              for r in out.records]}
                   for argv, out in zip(requests, first)]
        (GOLDEN / f"{args.workload}.json").write_text(json.dumps(entries, indent=1) + "\n")
    correct = failed == 0
    if args.trace:
        tracer = Tracer(caliblab)
        tracer.install()
        try:
            traced = Pass(cli, requests, range(len(requests)))
        finally:
            tracer.uninstall()
        t_attempted, t_failed, t_problems = check_passes([traced], requests, golden,
                                                         first, "traced pass")
        attempted += t_attempted
        failed += t_failed
        problems += t_problems
        spans = tracer.spans()
        untraced = statistics.median(p.wall for p in passes)
        records = sum(len(out.records) for out in traced.outcomes)
        metrics, notes, accounted = per_layer(tracer, spans, traced.wall, untraced, records)
        notes.append(f"spans written to {write_spans(tracer, spans, args.workload, args.seed)}")
        notes.append(f"peak RSS of the traced run "
                     f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
        if not accounted:
            problems.append("layer self times and harness time do not account for the "
                            "traced wall")
        correct = correct and t_failed == 0 and accounted
    else:
        metrics, notes = end_to_end(passes, setup_s)

    worst = max(checks.margins([r for out in first for r in out.records]), default=None)
    if worst is not None:
        notes.append(f"smallest margin: {worst[1]}, {100 * worst[0]:.3g}% of tolerance used")
    notes.append(f"failed_ratio: {failed} failed of {attempted} requests")
    for line in problems[:20]:
        print("FAILED " + line)
    for name, (value, unit) in [*metrics.items(), ("failed_ratio", (failed / attempted, "ratio"))]:
        print(f"{name:40s} {value:14.6g} {unit}")
    for line in notes:
        print("  " + line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
