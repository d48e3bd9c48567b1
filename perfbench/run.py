"""biharmfem benchmark: timed `biharmfem study` runs, one at a time.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Every study runs in a fresh interpreter through the public CLI entry point
(``biharmfem.cli.main(["study", ..., "--out", <tmp>])``), because a CLI
user pays import and set-up on every run.  The load is a closed loop with
one client: the next study starts after the previous process has exited.
Each study's study.csv must pass the correctness gate (gate.py).

--trace 0 prints the end-to-end metrics (medians over the studies of the
run); --trace 1 alternates untraced and traced studies and prints the
per-layer metrics from the spans (spans.py).  ``--workload all`` runs
every workload in an order drawn from the seed, then the gate's negative
controls.  The last line of output is one JSON object.  The exit code is
0 only if every study passed; 2 when the program is not there to run.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")

# the CLI does only tiny dense linear algebra (2x2 Gram systems), so one
# BLAS thread costs nothing and keeps idle BLAS threads off the second core
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
# the study is single-threaded; keeping it on one CPU avoids migrations
# (in a 12-study test on 2 vCPUs it cut the spread of wall times 18% -> 8%)
STUDY_CPU = max(os.sched_getaffinity(0))
SETUP_SAMPLES = 7          # import-only spawns top the setup_s sample up to this
RUN_LIMIT_S = 170          # a whole benchmark run stays under this

WORKLOADS = {
    "iii-b1-naive-l5": {
        "args": ["--domain", "III", "--bc", "B1", "--f", "const1",
                 "--formulation", "naive", "--levels", "5"],
        "dominant": "fem",
        "why": "Poisson solves, assembly and refinement only: 12,545 "
               "nodes at the finest level and no singular quadrature",
    },
    "iv-b3-compare-l2": {
        "args": ["--domain", "IV", "--bc", "B3", "--f", "quadrant-step",
                 "--formulation", "modified", "--compare",
                 "modified-truncated", "--levels", "2"],
        "dominant": "singular",
        "why": "singular quadrature only: two-function Gram system, and "
               "the compare run recomputes the basis-0 loads (6 of 9 "
               "load_singular calls distinct)",
    },
    "iii-b5-neumann-l4": {
        "args": ["--domain", "III", "--bc", "B5", "--f", "quadrant-step",
                 "--formulation", "neumann-modified", "--levels", "4"],
        "dominant": "singular",
        "why": "pure-Neumann path: mean-zero Poisson solves plus pair "
               "integrals whose cost grows with the mesh",
    },
}

# gate controls: (what, study args, reference, must pass)
CONTROLS = (
    ("III/B1 naive, level 2",
     WORKLOADS["iii-b1-naive-l5"]["args"][:-1] + ["2"],
     "iii-b1-naive-l2", True),
    ("III/B1 modified in place of naive, level 2",
     ["--domain", "III", "--bc", "B1", "--f", "const1",
      "--formulation", "modified", "--levels", "2"],
     "iii-b1-naive-l2", False),
    ("IV/B3 modified-truncated in place of modified, level 2",
     ["--domain", "IV", "--bc", "B3", "--f", "quadrant-step",
      "--formulation", "modified-truncated", "--compare", "modified",
      "--levels", "2"],
     "iv-b3-compare-l2", False),
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _now():
    # system-wide, so the child's readings compare with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_calls", "_points", "solves", "nodes_total")):
        return "count"
    return "ratio"


# -- one process --------------------------------------------------------------


def _wait(proc, timeout):
    """Reap ``proc`` with its rusage; kill it after ``timeout`` seconds."""
    box = []
    waiter = threading.Thread(target=lambda: box.append(os.wait4(proc.pid, 0)))
    waiter.start()
    waiter.join(timeout)
    timed_out = waiter.is_alive()
    if timed_out:
        proc.kill()
        waiter.join()
    _, status, usage = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, timed_out


def spawn(study_args, timeout, trace=False, run_id=""):
    """Run one study (or, with ``study_args=None``, only the imports) in a
    fresh interpreter.  Returns a record; ``error`` is None on success."""
    work = tempfile.mkdtemp(dir=TMP)
    try:
        spec = {"study_args": study_args, "trace": trace, "run_id": run_id,
                "cpu": STUDY_CPU,
                "out_dir": os.path.join(work, "out"),
                "result_path": os.path.join(work, "result.json")}
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, **BLAS_THREADS,
                   PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        log_path = os.path.join(work, "log.txt")
        with open(log_path, "w") as log:
            t_spawn = _now()
            proc = subprocess.Popen([sys.executable, CHILD, spec_path],
                                    cwd=work, env=env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            usage, timed_out = _wait(proc, timeout)
        record = {"peak_rss_mb": usage.ru_maxrss / 1024.0, "error": None}
        if timed_out:
            record["error"] = f"timed out after {timeout:.0f} s"
        elif proc.returncode != 0:
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            record["error"] = f"exit code {proc.returncode}: {tail}"
        else:
            with open(spec["result_path"]) as fh:
                result = json.load(fh)
            record["setup_s"] = result["t_imported"] - t_spawn
            real_src = os.path.realpath(SRC) + os.sep
            if not os.path.realpath(result["module"]).startswith(real_src):
                record["error"] = f"imported {result['module']}, not {SRC}"
            elif study_args is not None:
                record["wall_s"] = result["t_done"] - result["t_call"]
                record["trace"] = result.get("trace")
                record["spans"] = result.get("spans")
                csv_path = os.path.join(spec["out_dir"], "study.csv")
                if result["exit_code"] != 0:
                    record["error"] = f"cli exit code {result['exit_code']}"
                elif not os.path.exists(csv_path):
                    record["error"] = "no study.csv written"
                else:
                    with open(csv_path) as fh:
                        record["csv"] = fh.read()
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def gated(record, reference_name, references):
    """Apply the correctness gate to a study record, in place."""
    if record["error"] is None:
        problems = gate.check(record["csv"], references[reference_name])
        if problems:
            record["error"] = "correctness gate: " + "; ".join(problems[:5])
    return record


# -- one workload --------------------------------------------------------------


def measure(name, seed, seconds, trace, references):
    """Run one workload's closed loop; returns (metrics, attempted, failed,
    notes)."""
    args = WORKLOADS[name]["args"]
    if references[name]["args"] != args:
        raise SystemExit(f"reference for {name} was recorded for other "
                         "arguments; re-record it")
    rng = random.Random(seed)
    start = _now()
    studies, notes = [], []
    spans_dump = None
    while True:
        round_start = _now()
        # --trace 1: each round is one untraced and one traced study, in an
        # order drawn from the seed
        modes = [False, True] if trace else [False]
        rng.shuffle(modes)
        for traced in modes:
            run_id = f"{name}/seed{seed}/{len(studies)}"
            timeout = max(RUN_LIMIT_S - (_now() - start), 1.0)
            record = gated(spawn(args, timeout, traced, run_id), name,
                           references)
            record["traced"] = traced
            studies.append(record)
            if record["error"]:
                notes.append(f"{run_id}: {record['error']}")
            elif traced:
                spans_dump = record.pop("spans")
        now = _now()
        # start another round only if it should end within the run time
        if (now - start) + (now - round_start) > seconds:
            break

    setup = [r["setup_s"] for r in studies if "setup_s" in r]
    if not trace:
        while len(setup) < SETUP_SAMPLES and _now() - start < RUN_LIMIT_S - 20:
            record = spawn(None, 20.0)
            if record["error"]:
                notes.append(f"import-only run: {record['error']}")
                break
            setup.append(record["setup_s"])

    attempted = len(studies)
    failed = sum(1 for r in studies if r["error"])
    good = [r for r in studies if not r["error"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics = {}
    if not trace and plain:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        notes.append(f"samples: {len(plain)} studies, {len(setup)} set-ups; "
                     f"failed_frac {failed}/{attempted}")
    elif trace and plain and traced:
        metrics = per_layer(plain, traced, notes)
        if spans_dump is not None:
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
            with open(path, "w") as fh:
                json.dump({"columns": ["id", "name", "parent", "start", "end",
                                       "run_id"], "spans": spans_dump}, fh)
            notes.append(f"spans of the last traced study: {path}")
    return metrics, attempted, failed, notes


def per_layer(plain, traced, notes):
    summaries = [r["trace"] for r in traced]
    names = summaries[0]["metrics"].keys()
    metrics = {m: statistics.median(s["metrics"][m] for s in summaries)
               for m in names}
    header, rows = gate.parse_csv(traced[0]["csv"])
    metrics["mesh.nodes_total"] = sum(int(r[header.index("nodes")])
                                      for r in rows)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    last = summaries[-1]
    if last["missing_metrics"]:
        notes.append("missing per-layer metrics: "
                     + ", ".join(last["missing_metrics"])
                     + " (entry points gone: "
                     + ", ".join(last["missing_targets"]) + ")")
    for fn, c in last["quadrature_calls"].items():
        notes.append(f"{fn}: {c['distinct']} distinct of {c['calls']} calls")
    wall = metrics["trace.wall_s"]
    shares = {
        "fem solves": ("fem.first_solve_s", "fem.solve_s"),
        "singular": ("singular.load_singular_s", "singular.load_chi_s_s",
                     "singular.pair_s", "singular.eval_s"),
    }
    for label, parts in shares.items():
        if all(p in metrics for p in parts):
            share = sum(metrics[p] for p in parts) / wall
            notes.append(f"{label}: {share:.1%} of traced wall_s "
                         f"{wall:.3f} s")
    notes.append(f"samples: {len(traced)} traced, {len(plain)} untraced "
                 "studies")
    return metrics


# -- negative controls -----------------------------------------------------


def controls(references):
    """The gate must pass the right tables and reject the wrong ones.
    Returns the list of controls that went the wrong way."""
    wrong = []
    for what, args, ref, must_pass in CONTROLS:
        record = spawn(args, RUN_LIMIT_S)
        if record["error"]:
            wrong.append(f"{what}: run failed: {record['error']}")
            continue
        problems = gate.check(record["csv"], references[ref])
        columns = sorted({p.split(":")[0].split()[-1] for p in problems})
        print(f"control {what}: "
              + (f"rejected, {len(problems)} cells differ in "
                 f"{', '.join(columns)}" if problems else "accepted"))
        if bool(problems) == must_pass:
            wrong.append(what)
    for name in WORKLOADS:
        ref = references[name]
        text = gate.write_csv(ref["columns"], ref["rows"])
        kept = not gate.check(text, ref)
        perturbed = gate.check(gate.perturb_rate(text), ref)
        print(f"control {name} reference table: "
              f"{'accepted' if kept else 'rejected'}; with rate_u changed "
              f"in its 4th digit: {'rejected' if perturbed else 'accepted'}")
        if not kept or not perturbed:
            wrong.append(f"{name} rate perturbation")
    return wrong


# -- provenance and reference ----------------------------------------------


def provenance(seed):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None       # a checkout without git metadata
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "biharmfem")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as fh:
                digest.update(fn.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, one client, one study process at a time",
    }


def record_references():
    """Run every workload and control reference once and store the tables."""
    configs = {name: w["args"] for name, w in WORKLOADS.items()}
    configs["iii-b1-naive-l2"] = CONTROLS[0][1]
    refs = {}
    for name, args in configs.items():
        record = spawn(args, RUN_LIMIT_S)
        if record["error"]:
            raise SystemExit(f"{name}: {record['error']}")
        header, rows = gate.parse_csv(record["csv"])
        refs[name] = {"args": args, "columns": header, "rows": rows}
        print(f"recorded {name}", flush=True)
    refs["_provenance"] = provenance(None)
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


# -- entry point -----------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time per workload (whole studies only)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this commit's study tables as the reference")
    args = p.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "biharmfem", "cli.py")):
        print(f"error: no biharmfem sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(TMP, exist_ok=True)
    if args.record_reference:
        record_references()
        return 0
    references = gate.load_references()

    prov = provenance(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    all_metrics, attempted, failed, wrong = {}, 0, 0, []
    for name in names:
        metrics, n, bad, notes = measure(name, args.seed, args.seconds,
                                         bool(args.trace), references)
        attempted += n
        failed += bad
        print(f"== {name} (dominant layer: {WORKLOADS[name]['dominant']})")
        for note in notes:
            print(f"   {note}")
        for metric, value in metrics.items():
            unit = END_TO_END_UNITS.get(metric) or per_layer_unit(metric)
            print(f"   {metric:<30} {value:>14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            all_metrics[key] = {"value": value, "unit": unit}
        sys.stdout.flush()
    if args.workload == "all":
        wrong = controls(references)
        for w in wrong:
            print(f"control went the wrong way: {w}")
    print(json.dumps({"provenance": prov}))
    correct = failed == 0 and not wrong and bool(all_metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
