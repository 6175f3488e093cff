#!/usr/bin/env python3
"""jmbench: the jmsim host benchmark. Run it through benchmark/run.sh,
which builds the Release binaries first; benchmark/README.md defines
every metric.

  run.sh [--workload W]... [--seed N] [--reps N | --seconds S]
         [--trace [0|1]] [--smoke]
  run.sh --compare BASE.json NEW.json

Closed loop: one rep runs at a time, each in a freshly exec'd process,
and the workloads take turns (round robin) so host drift hits them all
alike. --reps rounds run (default 5); with --seconds, rounds continue
while the next one would still end within that many seconds, and a
child still running when the whole invocation nears 170 s is killed.
--trace 1 adds one traced rep per workload plus the layer microbenches.
Results go to benchmark/out/; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and the median of every end-to-end
metric (per-layer with --trace 1).
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
OUT = HERE / "out"
REP_BIN = BUILD / "jmbench_rep"
SERVER_BIN = BUILD / "jrun_server"

SWEEP = "fig5_sweep"
SWEEP_WORKERS = 4
SWEEP_SPEC = {False: HERE / "fig5_sweep.jsonl", True: HERE / "fig5_sweep_smoke.jsonl"}
# Extra cold setup-only processes after each rep: setup_s is a median
# over these plus the reps' own setups, spread over the whole window.
SETUP_SAMPLES_PER_REP = 2
# A timed (--seconds) invocation ends within 180 s: children get what is
# left of this budget.
RUN_BUDGET_S = 170
CHILD_TIMEOUT_S = 600

# Per-layer values kept in results.json but not declared in
# BENCHMARK.json. net_s, commit_s and ns_per_flit_hop read exactly 0 on
# some workload: the serial kernel bills commit to net, hotspot traffic
# never enters the mesh, and the sweep rows carry no flit count.
# BENCHMARK.json tracks the four kernel buckets as shares of
# machine.run_s instead.
EXTRA_LAYER_UNITS = {"machine.node_s": "s", "machine.net_s": "s", "machine.commit_s": "s",
                     "machine.unattributed_s": "s", "net.ns_per_flit_hop": "ns/hop"}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---- child processes ------------------------------------------------

class Child:
    """One finished child process: output, exit code, wall time, peak RSS."""

    def __init__(self, argv, timeout):
        self.t0 = time.monotonic_ns()
        proc = subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE,
                                cwd=ROOT, start_new_session=True)

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            out = proc.stdout.read()
            # wait4 reports the peak RSS of the child and of every
            # descendant it reaped: the rep's whole process tree.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.t1 = time.monotonic_ns()
        self.code = proc.returncode
        self.text = out.decode(errors="replace")
        self.wall_s = (self.t1 - self.t0) / 1e9
        self.rss_mib = usage.ru_maxrss / 1024.0

    def last_json(self):
        for line in reversed(self.text.splitlines()):
            try:
                return json.loads(line)
            except ValueError:
                continue
        return None


class Op:
    """The outcome of one rep: its e2e values and what failed in it."""

    def __init__(self, child):
        self.child = child
        self.values = {}
        self.signature = None
        self.rec = {}
        self.attempted = 1
        self.errors = []

    @property
    def failed(self):
        return min(len(self.errors), self.attempted)


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S if args.seconds else math.inf
        self.expected = {}
        exp_path = HERE / "expected.json"
        if exp_path.exists():
            profile = "smoke" if args.smoke else "default"
            with open(exp_path) as f:
                self.expected = json.load(f).get(profile, {}).get(str(args.seed), {})
        self.reference = {}

    def child(self, argv):
        left = self.deadline - time.monotonic()
        return Child(argv, max(1.0, min(CHILD_TIMEOUT_S, left)))

    def rep_argv(self, workload, *extra):
        argv = [REP_BIN, workload, "--seed", self.args.seed, *extra]
        return argv + (["--smoke"] if self.args.smoke else [])

    # -- reps --

    def rep(self, workload, traced=False):
        if workload == SWEEP:
            return self.sweep_rep()
        op = Op(self.child(self.rep_argv(workload, *(["--trace"] if traced else []))))
        rec = op.child.last_json() or {}
        op.rec = rec
        if op.child.code != 0 or not rec.get("ok"):
            op.errors.append(rec.get("error") or f"exit code {op.child.code}")
            return op
        sig = rec["signature"]
        op.signature = sig
        if self.mismatch(workload, sig):
            op.errors.append(f"signature {sig} differs from the reference")
        op.values = {
            "sim_mips": sig["proc.instructions"] / rec["run_s"] / 1e6,
            "setup_s": rec["setup_s"],
            "peak_rss_mb": op.child.rss_mib,
            "jobs_per_min": 60.0 / op.child.wall_s,
            "run_s": rec["run_s"],
        }
        return op

    def sweep_rep(self, spec_path=None):
        spec_path = spec_path or SWEEP_SPEC[self.args.smoke]
        labels = [json.loads(l)["label"] for l in spec_path.read_text().splitlines() if l.strip()]
        op = Op(self.child([SERVER_BIN, "--jobs", SWEEP_WORKERS, "--spec", spec_path]))
        op.attempted = len(labels)
        rows, summary = {}, None
        for line in op.child.text.splitlines():
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if row.get("summary"):
                summary = row
            else:
                rows[row.get("workload")] = row
        op.rec = {"rows": rows, "summary": summary}
        sig = {}
        for label in labels:
            row = rows.get(label)
            if row is None or "error" in row:
                op.errors.append(f"{label}: {row.get('error') if row else 'no result row'}")
                continue
            sig[label] = {"sim_cycles": row["sim_cycles"],
                          "sim_instructions": row["sim_instructions"]}
        # The microbench sweep (the smoke spec at default sizes) has no
        # reference signature; the workload's own sweep always does.
        if spec_path == SWEEP_SPEC[self.args.smoke]:
            ref = self.expected.get(SWEEP) or self.reference.setdefault(SWEEP, sig)
            for label, s in sig.items():
                if label in ref and ref[label] != s:
                    op.errors.append(f"{label}: signature {s} differs from {ref[label]}")
        op.signature = sig
        if summary is None:
            op.errors.append(f"jrun_server exit code {op.child.code}, no summary")
            return op
        wall = op.child.wall_s
        op.values = {
            "sim_mips": sum(r["sim_instructions"] for r in sig.values()) / wall / 1e6,
            "setup_s": summary["boot_sec"],
            "peak_rss_mb": op.child.rss_mib,
            "jobs_per_min": len(labels) * 60.0 / wall,
            "run_s": wall,
        }
        return op

    def mismatch(self, workload, sig):
        ref = self.expected.get(workload) or self.reference.setdefault(workload, sig)
        return ref != sig

    def setup_sample(self, workload):
        op = Op(self.child(self.rep_argv(workload, "--setup-only")))
        rec = op.child.last_json() or {}
        if op.child.code != 0 or not rec.get("ok"):
            op.errors.append(rec.get("error") or f"exit code {op.child.code}")
        else:
            op.values = {"setup_s": rec["setup_s"]}
        return op

    def micro(self):
        argv = [REP_BIN, "--micro", "--seed", self.args.seed]
        op = Op(self.child(argv + (["--smoke"] if self.args.smoke else [])))
        op.rec = op.child.last_json() or {}
        if op.child.code != 0 or not op.rec.get("ok"):
            op.errors.append(op.rec.get("error") or f"exit code {op.child.code}")
        return op


# ---- statistics and metrics -----------------------------------------

def summarize(values):
    med = statistics.median(values)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) >= 2
              else (med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(workload, traced, micro, sweep_micro, run_median):
    """Per-layer values of one workload's traced pass."""
    m = dict(micro)
    if workload == SWEEP:
        rows = list(traced.rec["rows"].values())
        summary = traced.rec["summary"]
        node = sum(r["node_sec"] for r in rows)
        net = sum(r["net_sec"] for r in rows)
        commit = sum(r["commit_sec"] for r in rows)
        run_s = sum(r["host_seconds"] for r in rows)
        instr = sum(r["sim_instructions"] for r in rows)
        c = {"proc.instructions": instr,
             "pool.allocs": sum(r["pool_allocs"] for r in rows),
             "pool.live_high_water": max(r["pool_live_high_water"] for r in rows)}
        threads = max(r["threads"] for r in rows)
        footprint = max(r["footprint_bytes"] for r in rows)
        stepped = skipped = 0
        traced_run_s = traced.child.wall_s
        jrun = summary
        jrun_job_max = max(r["host_seconds"] for r in rows)
    else:
        rec = traced.rec
        p = rec["profile"]
        node, net, commit = p["node_s"], p["net_s"], p["commit_s"]
        run_s = traced_run_s = rec["run_s"]
        c = rec["counters"]
        threads = rec["threads"]
        footprint = rec["footprint_bytes"]
        stepped, skipped = p["stepped_cycles"], p["skipped_cycles"]
        jrun = sweep_micro.rec["summary"]
        jrun_job_max = max(r["host_seconds"] for r in sweep_micro.rec["rows"].values())

    def cnt(name):
        return c.get(name, 0)

    steps, parked = cnt("kernel.node_steps"), cnt("kernel.skipped_node_steps")
    unattributed = run_s - (node + net + commit)
    m.update({
        "machine.run_s": run_s,
        "machine.node_s": node,
        "machine.net_s": net,
        "machine.commit_s": commit,
        "machine.unattributed_s": unattributed,
        "machine.node_frac": node / run_s,
        "machine.net_frac": net / run_s,
        "machine.commit_frac": commit / run_s,
        "machine.unattributed_frac": unattributed / run_s,
        "machine.threads": threads,
        "machine.stepped_cycles": stepped,
        "machine.skipped_cycles": skipped,
        "machine.active_node_frac": ratio(steps, steps + parked),
        "machine.footprint_mb": footprint / 2**20,
        "mdp.ns_per_instr": ratio(node * 1e9, cnt("proc.instructions")),
        "proc.seg_cache_hit_ratio": ratio(cnt("proc.seg_cache_hits"),
                                          cnt("proc.seg_cache_hits") + cnt("proc.seg_cache_misses")),
        "proc.xlate_cache_hit_ratio": ratio(cnt("proc.xlate_cache_hits"),
                                            cnt("proc.xlate_cache_hits") + cnt("proc.xlate_cache_misses")),
        "net.ns_per_flit_hop": ratio(net * 1e9, cnt("net.flits_routed")),
        "netops.combine_hit_ratio": ratio(cnt("net.combine_hits"),
                                          cnt("net.combine_hits") + cnt("net.combine_misses")),
        "jrun_server.work_s": jrun["work_sec"],
        "jrun_server.boot_s": jrun["boot_sec"],
        "jrun_server.parallel_speedup": ratio(jrun["work_sec"], jrun["wall_sec"]),
        "jrun_server.job_s_max": jrun_job_max,
        "trace_overhead_frac": traced_run_s / run_median - 1.0,
    })
    for name in ("kernel.node_steps", "kernel.skipped_node_steps", "kernel.idle_skipped_cycles",
                 "proc.instructions", "proc.dispatches", "proc.suspends",
                 "ni.messages_sent", "ni.send_full_events", "ni.messages_bounced",
                 "net.flits_routed", "net.messages_delivered", "net.router_steps",
                 "net.skipped_router_steps", "net.event_skipped_cycles", "net.inject_stalls",
                 "pool.allocs", "pool.live_high_water",
                 "net.faa_ops", "net.combine_hits", "net.combine_misses", "netops.reply_retries"):
        m[name] = cnt(name)
    return m


MICRO_KEYS = {"machine.build512_s": "build512_s", "machine.build4k_s": "build4k_s",
              "jasm.assemble_s": "assemble_s", "mdp.seq_mcycles_per_s": "seq_mcycles_per_s",
              "net.bare_mhops_per_s": "bare_mhops_per_s"}


# ---- tracing ---------------------------------------------------------

class Trace:
    """Spans of the traced pass, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent, rep, workload):
        self.spans.append({"id": len(self.spans), "name": name, "start_ns": start,
                           "end_ns": end, "parent": parent, "rep": rep,
                           "workload": workload})
        return len(self.spans) - 1

    def add_child(self, name, op, rep, workload):
        """A span around a child process plus the spans it reported."""
        root = self.add(name, op.child.t0, op.child.t1, None, rep, workload)
        ids = {}
        for i, s in enumerate(op.rec.get("spans", [])):
            parent = root if s["parent"] < 0 else ids[s["parent"]]
            ids[i] = self.add(s["name"], s["start_ns"], s["end_ns"], parent, rep, workload)

    def layer_table(self):
        kids = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append((s["start_ns"], s["end_ns"]))
        table = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for s in self.spans:
            covered, reach = 0, s["start_ns"]
            for a, b in sorted(kids[s["id"]]):
                a, b = max(a, reach), min(b, s["end_ns"])
                if b > a:
                    covered += b - a
                    reach = b
            row = table[s["name"]]
            row["count"] += 1
            row["total_s"] += (s["end_ns"] - s["start_ns"]) / 1e9
            row["self_s"] += (s["end_ns"] - s["start_ns"] - covered) / 1e9
        return dict(sorted(table.items()))

    def chrome(self):
        t0 = min((s["start_ns"] for s in self.spans), default=0)
        pids = {}
        events = []
        for s in self.spans:
            pid = pids.setdefault(s["workload"], len(pids) + 1)
            events.append({"name": s["name"], "ph": "X", "pid": pid, "tid": s["rep"],
                           "ts": (s["start_ns"] - t0) / 1e3,
                           "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                           "args": {"span_id": s["id"], "parent_id": s["parent"],
                                    "rep_id": s["rep"]}})
        for name, pid in pids.items():
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": name}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---- host fingerprint ---------------------------------------------------

def fingerprint():
    fp = {}
    try:
        fp.update(json.loads(subprocess.run([str(REP_BIN), "--fingerprint"], capture_output=True,
                                            text=True, timeout=30).stdout))
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    fp["nproc"] = len(os.sched_getaffinity(0))
    fp["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    fp["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fp["kernel"] = platform.release()
    fp["git_revision"] = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            fp["git_revision"] = r.stdout.strip()
    return fp


# ---- the benchmark ----------------------------------------------------

def run(args, spec):
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {**{m["name"]: m["unit"] for m in spec["per_layer"]}, **EXTRA_LAYER_UNITS}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runner = Runner(args)
    ops = defaultdict(list)
    setups = defaultdict(list)

    start = time.monotonic()
    rounds = 0
    while True:
        for w in workloads:
            samples = [runner.rep(w)]
            if w != SWEEP:
                samples += [runner.setup_sample(w) for _ in range(SETUP_SAMPLES_PER_REP)]
            ops[w] += samples
            setups[w] += [op.values["setup_s"] for op in samples if "setup_s" in op.values]
        rounds += 1
        if args.seconds:
            # Stop before a round that would end past the window.
            elapsed = time.monotonic() - start
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break
        elif rounds >= args.reps:
            break

    results = {}
    for w in workloads:
        timed = [op for op in ops[w] if "run_s" in op.values]
        e2e = {}
        for name, unit in e2e_units.items():
            vals = setups[w] if name == "setup_s" else [op.values[name] for op in timed]
            if vals:
                e2e[name] = {"unit": unit, **summarize(vals)}
        results[w] = {"e2e": e2e}

    trace = None
    shared = []   # the microbench ops, which serve every workload
    if args.trace:
        trace = Trace()
        micro = runner.micro()
        sweep_micro = runner.sweep_rep(SWEEP_SPEC[True])
        shared = [micro, sweep_micro]
        trace.add_child("layer microbenches", micro, 0, "microbench")
        trace.add("jrun_server microbench", sweep_micro.child.t0, sweep_micro.child.t1,
                  None, 0, "microbench")
        micro_values = {k: micro.rec.get(v, 0.0) for k, v in MICRO_KEYS.items()}
        for w in workloads:
            untraced = [op.values["run_s"] for op in ops[w] if "run_s" in op.values]
            traced = runner.rep(w, traced=True)
            ops[w].append(traced)
            rep_id = len(ops[w])
            if w == SWEEP:
                trace.add("jrun_server sweep", traced.child.t0, traced.child.t1, None, rep_id, w)
            else:
                trace.add_child(f"rep {w}", traced, rep_id, w)
            if traced.errors or micro.errors or sweep_micro.errors or not untraced:
                continue
            lm = layer_metrics(w, traced, micro_values, sweep_micro, statistics.median(untraced))
            results[w]["per_layer"] = {n: {"unit": u, "value": lm[n]}
                                       for n, u in layer_units.items()}

    for w in workloads:
        att = sum(op.attempted for op in ops[w])
        fail = sum(op.failed for op in ops[w])
        results[w].update({
            "attempted": att, "failed": fail, "failed_frac": ratio(fail, att),
            "errors": [e for op in ops[w] for e in op.errors],
            "signature": next((op.signature for op in ops[w] if op.signature), None),
        })
    all_ops = [op for w in workloads for op in ops[w]] + shared
    return (results, trace, sum(op.attempted for op in all_ops),
            sum(op.failed for op in all_ops), [e for op in shared for e in op.errors])


def print_tables(results):
    for w, r in results.items():
        print(f"\n{w}: attempted {r['attempted']}, failed {r['failed']}, "
              f"failed_frac {r['failed_frac']:.4g}")
        for e in r["errors"]:
            print(f"  FAILED: {e}")
        print(f"  {'metric':<28} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
        for name, s in r["e2e"].items():
            print(f"  {name:<28} {s['unit']:<10} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['n']:>3}")
        for name, s in r.get("per_layer", {}).items():
            print(f"  {name:<28} {s['unit']:<10} {s['value']:>12.6g}")


def main_bench(args, spec):
    results, trace, attempted, failed, micro_errors = run(args, spec)
    OUT.mkdir(exist_ok=True)
    doc = {"seed": args.seed, "smoke": args.smoke, "fingerprint": fingerprint(),
           "workloads": results, "microbench_errors": micro_errors}
    if trace:
        doc["layers"] = trace.layer_table()
        with open(OUT / "trace.json", "w") as f:
            json.dump(trace.chrome(), f)
    with open(OUT / "results.json", "w") as f:
        json.dump(doc, f, indent=1)
    print_tables(results)
    for e in micro_errors:
        print(f"microbench FAILED: {e}")
    if trace:
        print(f"\n{'span':<28} {'count':>5} {'total_s':>10} {'self_s':>10}")
        for name, row in doc["layers"].items():
            print(f"{name:<28} {row['count']:>5} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    print(f"\nwrote {OUT / 'results.json'}" + (f" and {OUT / 'trace.json'}" if trace else ""))

    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for w, r in results.items():
        for name in declared:
            s = r.get("per_layer", {}).get(name) if args.trace else r["e2e"].get(name)
            if s is None:
                continue
            key = name if len(results) == 1 else f"{w}.{name}"
            metrics[key] = {"value": s["value"] if args.trace else s["median"], "unit": s["unit"]}
    complete = len(metrics) == len(declared) * len(results)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---- compare ----------------------------------------------------------

HOST_KEYS = ("nproc", "hardware_concurrency", "cpu_model", "compiler", "build_type", "kernel")


def verdict(metric, base, new, bound):
    higher = metric["better"] == "higher"
    gain = (new["median"] - base["median"]) / base["median"] * (1 if higher else -1)
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base, new))
    bv, nv = base["values"], new["values"]
    all_better = min(nv) > max(bv) if higher else max(nv) < min(bv)
    all_worse = max(nv) < min(bv) if higher else min(nv) > max(bv)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "unchanged"


def main_compare(paths, spec):
    base, new = (json.loads(Path(p).read_text()) for p in paths)
    fb, fn = base.get("fingerprint", {}), new.get("fingerprint", {})
    same_host = all(fb.get(k) == fn.get(k) for k in HOST_KEYS)
    if not same_host:
        print("WARNING: the two results come from different hosts or builds; "
              "verdicts are advisory:")
        for k in HOST_KEYS:
            if fb.get(k) != fn.get(k):
                print(f"  {k}: {fb.get(k)!r} vs {fn.get(k)!r}")
    print(f"{'workload':<16} {'metric':<14} {'base':>11} {'iqr':>9} {'new':>11} {'iqr':>9} "
          f"{'delta':>8}  verdict")
    worse = 0
    for w in [x["name"] for x in spec["workloads"]]:
        rb, rn = base["workloads"].get(w), new["workloads"].get(w)
        if not rb or not rn:
            continue
        for m in spec["end_to_end"]:
            b, n = rb["e2e"].get(m["name"]), rn["e2e"].get(m["name"])
            if not b or not n:
                continue
            v = verdict(m, b, n, m["bound"])
            worse += v == "worse"
            delta = n["median"] / b["median"] - 1
            print(f"{w:<16} {m['name']:<14} {b['median']:>11.5g} {b['q3'] - b['q1']:>9.3g} "
                  f"{n['median']:>11.5g} {n['q3'] - n['q1']:>9.3g} {delta:>+8.2%}  {v}")
        v = "worse" if rn["failed"] > 0 else "unchanged"
        worse += v == "worse"
        print(f"{w:<16} {'failed_frac':<14} {rb['failed_frac']:>11.4g} {'':>9} "
              f"{rn['failed_frac']:>11.4g} {'':>9} {'':>8}  {v}")
    return 1 if worse and same_host else 0


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return main_compare(args.compare, spec)
    if not 0 <= args.seed < 2**32 or args.reps < 1 or (args.seconds or 1) <= 0:
        ap.error("--seed must be in [0, 2^32), --reps >= 1 and --seconds > 0")
    if args.smoke:
        args.reps = 1
        args.seconds = None
    return main_bench(args, spec)


if __name__ == "__main__":
    sys.exit(main())
