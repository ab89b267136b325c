"""Benchmark of the rbmpo pipeline, generate -> learn -> diagnose, end to end and per module.

Run from the repository root (standard library only)::

    python3 bench/run.py --workload markov-pf --seed 2024 --seconds 20 --trace 0

Each workload is a chain of ``rbmpo`` CLI commands, run as users run them:
``python -m rbmpo.cli`` from ``src/``, one child process at a time, with the
BLAS thread count set to the number of CPUs this process may use.  The
seed reaches the program only through ``generate --seed``.

``--trace 0`` times whole chains, repeated while another one still fits in
``--seconds`` of chain time (at least twice, so the outputs can be compared
byte for byte), and reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` instead repeats a pair: one plain chain and one chain whose
commands run under ``traced.py``, which records a span for every public rbmpo
function; it reports the per-layer metrics named in ``BENCHMARK.json``.
Output checks run after the timed chains, in an untraced child process
(``check.py``).  Every CLI invocation and every check is one operation; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with the environment, goes to
``bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"

# Every run makes at least this many chains, so criterion 9 (byte-identical
# outputs at one seed) is checked on every run.
MIN_CHAINS = 2
# `--version` start-ups timed for setup_s before the chains and again after
# them, so the median spans the whole run; one untimed warm-up first fills
# the bytecode cache.
SETUP_REPS = 6
# A run stops starting chains once it is this old, and kills a child that
# would take it past RUN_LIMIT_S.
RUN_SOFT_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0

# Output thresholds.  Z_MAX bounds |Monte Carlo mean - exact 2-design average|
# in standard errors at every length of every generated curve.
Z_MAX = 5.0
MARKOV_OFF_BLOCK_MAX = 1e-2
UNITARITY_MAX = 1e-9
NON_EXPONENTIAL_FACTOR = 3.0
# The sweep must update the node at every iteration.  A skipped update
# leaves the cost bit for bit unchanged, and an update of round-off size
# moves it by far less than this share of its value; real updates moved it
# by 5e-7 or more of its value over 21 seeds, also at seeds where the
# departed node is already close to a minimum of the cost.
SWEEP_STEP_MIN = 1e-11

# Each workload: its chain of (command, config) steps and the learning
# checks it adds to the ones every workload gets (exit codes, Monte Carlo
# agreement with the exact curve, byte-identical reruns, unitarity, finite
# costs).  "fit" bounds the returned node's l1 distance from the data by
# fit_max summed standard errors; the identity node the learner starts from
# is 70 of them away on the phase-flip data and 14 on the spin data, so a
# learner that does not move fails it.  Each fit_max is the largest value
# seen over seeds 1-40 and 40 random ones (phase flip, 1.10) or over seeds
# 1-23 and 20 random ones (spin, 1.96), plus a margin.  markov-pf and
# nonmarkov-spin are the acceptance fixtures.  BENCHMARK.json lists only
# the workloads whose work and checks hold at every seed and whose times
# spread least across seeds (see layers.json for why each exists and why
# the others are run by hand).
WORKLOADS = {
    "markov-pf": {
        "steps": (("generate", "configs/phase_flip.json"),
                  ("learn", "configs/learner_adagrad.json"),
                  ("diagnose", None)),
        "checks": ("converged", "markovian"),
    },
    "nonmarkov-spin": {
        "steps": (("generate", "configs/spin_model.json"),
                  ("learn", "configs/learner_adam.json"),
                  ("diagnose", None)),
        "checks": ("converged", "non-markovian", "non-exponential"),
    },
    "departure-pf": {
        "steps": (("generate", "configs/phase_flip.json"),
                  ("learn", "bench/configs/learner_departure.json"),
                  ("diagnose", None)),
        # The Markovian verdict is reported, not checked: at a few seeds
        # (23, 24, 1877275097) the returned node fits the data but is
        # coupled to the environment (off-block 0.34), a learner defect.
        "checks": ("fit", "report-verdict"),
        "fit_max": 1.5,
    },
    "sweep-spin": {
        "steps": (("generate", "configs/spin_model.json"),
                  ("learn", "bench/configs/learner_sweep.json"),
                  ("diagnose", None)),
        "checks": ("fit", "sweep-budget", "sweep-moves"),
        "fit_max": 3.0,
    },
    "mc-long": {
        "steps": (("generate", "configs/amplitude_damping.json"),
                  ("generate", "bench/configs/spin_m40.json")),
        "checks": (),
    },
}


class Bench:
    """One benchmark run: child processes, operation counts and checks."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.started = time.perf_counter()
        self.work = OUT / f"{workload}-s{seed}-t{int(trace)}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.checks: list[dict] = []
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.nproc)

    # -- operations ---------------------------------------------------------

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok

    def child(self, argv: list[str], log: Path, traced_as: tuple[Path, str] | None = None) -> dict:
        """Run one rbmpo command from src/; returns wall time, exit code, peak RSS, stdout."""
        if traced_as is None:
            cmd = [sys.executable, "-m", "rbmpo.cli", *argv]
        else:
            spans, run_id = traced_as
            cmd = [sys.executable, str(BENCH / "traced.py"), str(spans), run_id, "--", *argv]
        budget = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=SRC, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(budget, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.op(f"exit {argv[0]} {log.name}", code == 0,
                f"exit code {code}: {log.with_suffix('.err').read_text(errors='replace')[-300:]}")
        return {
            "seconds": seconds,
            "code": code,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": log.with_suffix(".out").read_text(errors="replace"),
        }

    def setup_seconds(self, tag: str, reps: int) -> list[float]:
        return [self.child(["--version"], self.work / f"setup-{tag}{rep}")["seconds"]
                for rep in range(reps)]

    def chain(self, index: int, traced: bool) -> dict:
        """Run the workload's command chain once; returns per-step timings."""
        d = self.work / f"chain{index}"
        d.mkdir(parents=True)
        record = {"dir": d, "traced": traced, "steps": [], "spans": [], "asf": []}
        for k, (command, config) in enumerate(self.spec["steps"]):
            if command == "generate":
                out = d / f"gen{k}"
                record["asf"].append((out / "asf.csv", ROOT / config))
                argv = ["generate", str(ROOT / config), "-o", str(out),
                        "--seed", str(self.seed), "--json"]
            elif command == "learn":
                record["learn_config"] = ROOT / config
                argv = ["learn", str(record["asf"][0][0]), str(ROOT / config),
                        "-o", str(d / "learn"), "--json"]
            else:
                argv = ["diagnose", str(d / "learn" / "result.json"), "--json"]
            traced_as = None
            if traced:
                spans = d / f"spans{k}.json"
                record["spans"].append(spans)
                traced_as = (spans, f"{self.workload}/s{self.seed}/chain{index}/{k}-{command}")
            res = self.child(argv, d / f"step{k}-{command}", traced_as)
            res["command"] = command
            record["steps"].append(res)
            if res["code"] != 0:
                break
        record["pipeline_s"] = sum(s["seconds"] for s in record["steps"])
        return record

    # -- checks -------------------------------------------------------------

    def complete(self, chain: dict) -> bool:
        return (len(chain["steps"]) == len(self.spec["steps"])
                and all(s["code"] == 0 for s in chain["steps"]))

    def check_outputs(self, chains: list[dict]) -> dict:
        """All output checks, outside the timed region.  Returns check.py's answer."""
        complete = [c for c in chains if self.complete(c)]
        if not self.op("complete chains", len(complete) == len(chains),
                       f"{len(complete)} of {len(chains)} chains ran every step"):
            return {}
        first = complete[0]
        request = {"asf": [{"csv": str(p), "config": str(c), "seed": self.seed}
                           for p, c in first["asf"]]}
        learns = "learn_config" in first
        if learns:
            request["learn"] = [{"result": str(first["dir"] / "learn" / "result.json"),
                                 "data": str(first["asf"][0][0])}]
            if "non-exponential" in self.spec["checks"]:
                request["fit"] = [str(first["asf"][0][0])]
        req_path = self.work / "check_request.json"
        req_path.write_text(json.dumps(request), encoding="utf-8")
        answer = self.run_checker(req_path)
        if not answer:
            return {}

        for item in answer["asf"]:
            self.op(f"asf z {Path(item['csv']).parent.name}", item["max_abs_z"] <= Z_MAX,
                    f"max |z| {item['max_abs_z']:.3f} vs {Z_MAX}")
        self.check_identical(complete)
        if learns:
            self.check_learning(first, answer)
        return answer

    def run_checker(self, req_path: Path) -> dict:
        log = self.work / "check"
        budget = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            try:
                code = subprocess.run([sys.executable, str(BENCH / "check.py"), str(req_path)],
                                      cwd=SRC, env=self.env, stdout=out, stderr=err,
                                      timeout=budget).returncode
            except subprocess.TimeoutExpired:
                code = None
        text = log.with_suffix(".out").read_text(errors="replace")
        if not self.op("checker ran", code == 0 and bool(text.strip()),
                       log.with_suffix(".err").read_text(errors="replace")[-300:]):
            return {}
        return json.loads(text.strip().splitlines()[-1])

    def check_identical(self, chains: list[dict]):
        names = [f"gen{k}/asf.csv" for k, (c, _) in enumerate(self.spec["steps"]) if c == "generate"]
        if "learn_config" in chains[0]:
            names += ["learn/result.json", "learn/predicted.csv"]
        for name in names:
            digests = {hashlib.sha256((c["dir"] / name).read_bytes()).hexdigest() for c in chains}
            self.op(f"identical {name}", len(digests) == 1,
                    f"{len(digests)} distinct versions over {len(chains)} chains")

    def check_learning(self, chain: dict, answer: dict):
        result = json.loads((chain["dir"] / "learn" / "result.json").read_text())
        learn_cfg = json.loads(chain["learn_config"].read_text())
        learned = answer["learn"][0]
        defect = max([*result["unitarity_trace"], learned["defect"]])
        self.op("unitarity", defect <= UNITARITY_MAX, f"max defect {defect:.3e}")
        costs = result["cost_trace"]
        self.op("finite costs", all(math.isfinite(c) for c in costs), f"{len(costs)} costs")
        checks = self.spec["checks"]
        diag = json.loads(chain["steps"][-1]["stdout"].strip().splitlines()[-1])
        verdict = f"markovian={diag['markovian']}, off-block {diag['off_block_norm']:.3e}"
        markovian = diag["markovian"] and diag["off_block_norm"] <= MARKOV_OFF_BLOCK_MAX
        if "fit" in checks:
            fit_max = self.spec["fit_max"]
            self.op("fit", learned["fit_l1_over_sigma"] <= fit_max,
                    f"l1 {learned['fit_l1_over_sigma']:.3f} sigma (identity start "
                    f"{learned['identity_l1_over_sigma']:.3f}), limit {fit_max}")
        if "sweep-budget" in checks:
            budget = learn_cfg["max_iterations"]
            self.op("sweep budget", result["iterations"] == budget,
                    f"{result['iterations']} iterations, budget {budget}")
        if "sweep-moves" in checks:
            steps = [abs(b - a) / a for a, b in zip(costs, costs[1:])]
            still = sum(step <= SWEEP_STEP_MIN for step in steps)
            self.op("sweep moves the node", bool(steps) and still == 0,
                    f"{still} of {len(steps)} iterations left the cost unchanged "
                    f"(smallest step {min(steps, default=0.0):.3e} of the cost)")
        if "converged" in checks:
            self.op("converged", result["converged"] is True, f"converged={result['converged']}")
        if "markovian" in checks:
            self.op("markovian verdict", markovian, verdict)
        if "report-verdict" in checks and not markovian:
            self.notes.append(f"Markovian data diagnosed non-Markovian, not counted as a failure "
                              f"(converged={result['converged']}, {verdict})")
        if "non-markovian" in checks:
            self.op("non-markovian verdict", not diag["markovian"], verdict)
        if "non-exponential" in checks:
            fit = answer["fit"][0]
            self.op("non-exponential data",
                    fit["max_residual"] > NON_EXPONENTIAL_FACTOR * fit["median_stderr"],
                    f"fit residual {fit['max_residual']:.4f}, median stderr {fit['median_stderr']:.4f}")


# -- metrics ------------------------------------------------------------------

def end_to_end(bench: Bench, chains: list[dict], setup: list[float], answer: dict) -> dict:
    """Every end-to-end metric the workload defines: name -> (value, unit, samples)."""
    def med(values):
        return statistics.median(values), len(values)

    out = {
        "pipeline_s": (*med([c["pipeline_s"] for c in chains]), "s"),
        "generate_s": (*med([sum(s["seconds"] for s in c["steps"] if s["command"] == "generate")
                             for c in chains]), "s"),
        "setup_s": (*med(setup), "s"),
        "peak_rss_mb": (*med([max(s["rss_mb"] for s in c["steps"]) for c in chains]), "MB"),
    }
    if "learn_config" in chains[0]:
        out["learn_s"] = (*med([s["seconds"] for c in chains for s in c["steps"]
                                if s["command"] == "learn"]), "s")
        if answer.get("learn"):
            out["fit_l1_over_sigma"] = (answer["learn"][0]["fit_l1_over_sigma"], 1, "ratio")
    out["failed_ops_frac"] = (bench.failed / max(bench.attempted, 1), bench.attempted, "ratio")
    return {name: {"value": v, "samples": n, "unit": u} for name, (v, n, u) in out.items()}


def aggregate_spans(paths: list[Path]) -> dict:
    """Per-function calls and inclusive seconds, per-module self seconds.

    Spans nest on one thread, so a span's self time is its duration minus
    the durations of its direct children.  The name table lists every
    wrapped function, called or not.
    """
    calls, incl, self_s, known = {}, {}, {}, set()
    for path in paths:
        rec = json.loads(path.read_text())
        names = rec["names"]
        known.update(names)
        dur = [e - s for s, e in zip(rec["start"], rec["end"])]
        covered = [0.0] * len(dur)
        for i, p in enumerate(rec["parent"]):
            if p >= 0:
                covered[p] += dur[i]
        for i, n in enumerate(rec["name"]):
            fn = names[n]
            calls[fn] = calls.get(fn, 0) + 1
            incl[fn] = incl.get(fn, 0.0) + dur[i]
            module = fn.split(".", 1)[0]
            self_s[module] = self_s.get(module, 0.0) + dur[i] - covered[i]
    return {"calls": calls, "s": incl, "self_s": self_s, "known": known}


def layer_value(metric: str, agg: dict):
    """Value of `<module>.<function>.{calls,s}` or `<module>.self_s` from aggregated spans."""
    if metric.endswith(".self_s"):
        return agg["self_s"].get(metric[: -len(".self_s")], 0.0)
    fn, kind = metric.rsplit(".", 1)
    if fn not in agg["known"] or kind not in ("calls", "s"):
        raise KeyError(f"no traced function behind per-layer metric {metric!r}")
    return agg[kind].get(fn, 0 if kind == "calls" else 0.0)


def per_layer(bench: Bench, plain: list[dict], traced: list[dict], wanted: list[dict]) -> dict:
    """Every per-layer metric in BENCHMARK.json from the traced chains."""
    aggs = [aggregate_spans(c["spans"]) for c in traced]
    if len(aggs) > 1:
        bench.op("identical call counts", all(a["calls"] == aggs[0]["calls"] for a in aggs),
                 f"over {len(aggs)} traced chains")
    untraced = statistics.median(c["pipeline_s"] for c in plain)
    with_trace = statistics.median(c["pipeline_s"] for c in traced)
    out = {}
    for m in wanted:
        name = m["name"]
        if name == "trace.overhead_frac":
            value = (with_trace - untraced) / untraced
        else:
            try:
                values = [layer_value(name, a) for a in aggs]
            except KeyError as exc:
                bench.op(f"metric {name}", False, str(exc))
                continue
            value = values[0] if name.endswith(".calls") else statistics.median(values)
        out[name] = {"value": value, "samples": len(aggs), "unit": m["unit"]}
    out["traced.pipeline_s"] = {"value": with_trace, "samples": len(traced), "unit": "s"}
    return out


# -- environment --------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (unknown outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(bench: Bench, answer: dict, seconds: float) -> dict:
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "seconds": seconds,
        "trace": int(bench.trace),
        "python": platform.python_version(),
        "numpy": answer.get("numpy", "unknown"),
        "blas": answer.get("blas", "unknown"),
        "blas_threads": bench.env["OPENBLAS_NUM_THREADS"],
        "nproc": bench.nproc,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# -- main ---------------------------------------------------------------------

def run_chains(bench: Bench, seconds: float, traced: bool) -> tuple[list[dict], list[dict]]:
    """Timed plain chains (each followed, when traced, by a traced chain).

    A new round starts only while the last round's time still fits in what
    is left of `seconds`, so a run measures at most about `seconds` of chain
    time (beyond MIN_CHAINS).
    """
    plain, with_trace = [], []
    measured = last = 0.0
    while len(plain) + len(with_trace) < MIN_CHAINS or (
        measured + last <= seconds and time.perf_counter() - bench.started < RUN_SOFT_LIMIT_S
    ):
        plain.append(bench.chain(len(plain) + len(with_trace), traced=False))
        last = plain[-1]["pipeline_s"]
        if traced:
            with_trace.append(bench.chain(len(plain) + len(with_trace), traced=True))
            last += with_trace[-1]["pipeline_s"]
        measured += last
    return plain, with_trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024, help="passed to `generate --seed`")
    parser.add_argument("--seconds", type=float, default=20.0, help="chain time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rbmpo" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no rbmpo sources (src/rbmpo) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    for _, config in WORKLOADS[args.workload]["steps"]:
        if config is not None and not (ROOT / config).is_file():
            print(f"error: missing workload config {config}", file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text())

    bench = Bench(args.workload, args.seed, bool(args.trace))
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)

    setup = []
    bench.setup_seconds("warm", 1)
    if not args.trace:
        setup += bench.setup_seconds("before", SETUP_REPS)
    plain, traced = run_chains(bench, args.seconds, bool(args.trace))
    if not args.trace:
        setup += bench.setup_seconds("after", SETUP_REPS)
    answer = bench.check_outputs(plain + traced)

    # Metrics come from the chains that ran every step; a failed step already
    # counts as a failed operation.
    plain_ok = [c for c in plain if bench.complete(c)]
    traced_ok = [c for c in traced if bench.complete(c)]
    printed = {}
    if args.trace and plain_ok and traced_ok:
        printed = per_layer(bench, plain_ok, traced_ok, spec["per_layer"])
        printed["failed_ops_frac"] = {"value": bench.failed / bench.attempted,
                                      "samples": bench.attempted, "unit": "ratio"}
    elif not args.trace and plain_ok:
        printed = end_to_end(bench, plain_ok, setup, answer)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment(bench, answer, args.seconds)

    for key, value in env.items():
        print(f"env {key} {value}")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for note in bench.notes:
        print(f"NOTE {note}")
    for name, m in printed.items():
        print(f"{name} {m['value']!r} {m['unit']} (n={m['samples']})")

    metrics = {m["name"]: {"value": printed[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted if m["name"] in printed}
    complete = len(metrics) == len(wanted)
    record = {
        "environment": env,
        "metrics": printed,
        "checks": bench.checks,
        "notes": bench.notes,
        "chains": [{"traced": c["traced"], "pipeline_s": c["pipeline_s"],
                    "steps": [{k: s[k] for k in ("command", "seconds", "code", "rss_mb")}
                              for s in c["steps"]]} for c in plain + traced],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": bench.failed == 0 and complete,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
