#!/usr/bin/env python3
"""Pipeline benchmark for notepheno.

Runs profile -> preprocess -> detect --mode all -> evaluate over a seeded
synthetic cohort, each stage as its own `notepheno` process, checks the
labels against the cohort's planted truth, and prints every metric by name
and unit. The last line of standard output is one JSON object.

    python3 perfbench/run.py --workload mock-cpu --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads, the metrics and the trace.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field, replace
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

NPROC = len(os.sched_getaffinity(0))
# Every patient gets exactly three notes, so a cohort's size, and with it the
# request count, depends on the patient count and not on the seed.
SYNTH_ARGS = (
    "--prevalence", "ami=0.2", "--prevalence", "diabetes=0.3",
    "--prevalence", "hypertension=0.35", "--docs-min", "3", "--docs-max", "3",
)
STAGES = ("profile", "preprocess", "detect", "evaluate")
CHECKED_MODES = ("prompt1", "merged")
SETUP_REPEATS = 5
STAGE_TIMEOUT_S = 150.0
# Printed but not in BENCHMARK.json: they are defined only on cache-rerun,
# which is run by hand, or are zero on every listed workload.
UNLISTED_UNITS = {
    "rerun_s": "s",
    "inference.cache_hits": "count",
    "inference.cache_misses": "count",
    "inference.cache_files": "count",
    "inference.cache_get.s": "s",
    "inference.cache_put.s": "s",
}


@dataclass(frozen=True)
class Workload:
    patients: int
    m: int
    parallelism: int
    cache: bool = False  # --cache-dir, empty at the start of each cycle, and a warm rerun
    stub: bool = False  # latency-injecting HTTP stub instead of --mock


# The pipeline's worker pool is the client: a closed loop of `parallelism`
# workers, each sending its next request after the previous reply.
# cache-rerun is run by hand and is not in BENCHMARK.json: its cold pass
# writes a file per response, and on a disk where deletions slow later file
# creation it times the file system's backlog (see README.md).
WORKLOADS = {
    "mock-cpu": Workload(patients=2000, m=200, parallelism=1),
    "http-wait": Workload(patients=50, m=60, parallelism=NPROC, stub=True),
    "cache-rerun": Workload(patients=60, m=100, parallelism=NPROC, cache=True),
}


def child_env() -> dict:
    drop = ("NOTEPHENO_", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(drop) and "proxy" not in k.lower()
    }
    env["PYTHONPATH"] = str(SRC)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


# ---------------------------------------------------------------------------
# processes

@dataclass
class StageRun:
    stage: str
    code: int
    start: float
    end: float
    rss_mb: float
    record: dict
    served: dict | None = None  # what the stub saw during the stage

    @property
    def wall(self) -> float:
        return self.end - self.start

    def reached(self, backend: str) -> tuple[int, int]:
        """(calls, prompt chars) that reached `backend` in this stage."""
        entry = self.record.get("counts", {}).get(backend, {})
        return entry.get("calls", 0), entry.get("prompt_chars", 0)


class Stub:
    """The stub completion server (stub.py) in its own process."""

    def __init__(self, log_path: Path) -> None:
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(), text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError(f"stub server did not start; see {log_path}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def drain(self) -> dict:
        with self._opener.open(self.url + "/stats", timeout=30) as reply:
            return json.loads(reply.read())

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def run_stage(argv: list[str], log_dir: Path, stub: Stub | None = None,
              trace: bool = False) -> StageRun:
    """Run one stage in its own process; read its peak RSS from wait4."""
    stage = argv[0]
    record_path = log_dir / f"{stage}.json"
    cmd = [sys.executable, str(HERE / "stage.py"), str(record_path)]
    cmd += ["--trace"] if trace else []
    with open(log_dir / f"{stage}.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd + argv, stdout=log, stderr=subprocess.STDOUT, env=child_env())
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    served = stub.drain() if stub is not None else None
    record["argv"] = argv
    return StageRun(stage, proc.returncode, start, end, usage.ru_maxrss / 1024.0, record, served)


# ---------------------------------------------------------------------------
# one pass of the pipeline and its correctness check

def stage_argvs(wl: Workload, seed: int, corpus: Path, out: Path, cache: Path | None,
                backend_url: str | None) -> list[list[str]]:
    backend = ["--backend-url", backend_url] if backend_url else ["--mock"]
    backend += ["--parallelism", str(wl.parallelism)]
    if cache is not None:
        backend += ["--cache-dir", str(cache)]
    return [
        ["profile", "--corpus", str(corpus), "--m", str(wl.m), "--seed", str(seed),
         *backend, "--out", str(out / "profile.csv")],
        ["preprocess", "--corpus", str(corpus), "--profile-csv", str(out / "profile.csv"),
         "--percentile", "q1", "--out", str(out / "prep")],
        ["detect", "--corpus", str(corpus), "--merged", str(out / "prep"), "--mode", "all",
         *backend, "--out", str(out / "det")],
        ["evaluate", "--corpus", str(corpus), "--detect-dir", str(out / "det"),
         "--out", str(out / "report.csv")],
    ]


@dataclass
class PassRun:
    stages: list[StageRun] = field(default_factory=list)  # a failed stage ends the pass
    problems: dict[str, list[str]] = field(default_factory=dict)  # stage -> failed checks
    digest: str | None = None

    @property
    def completed(self) -> bool:
        return len(self.stages) == len(STAGES) and all(s.code == 0 for s in self.stages)

    @property
    def ok(self) -> bool:
        return self.completed and not self.problems

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.stages)

    @property
    def failed(self) -> int:
        """Stages that exited non-zero or failed a check."""
        return len(self.problems)

    def stage(self, name: str) -> StageRun:
        return next(s for s in self.stages if s.stage == name)

    def reached(self, stub: bool) -> tuple[int, int]:
        """(requests, prompt chars) that reached the backend in this pass."""
        if stub:
            served = [s.served for s in self.stages if s.served]
            return sum(x["requests"] for x in served), sum(x["prompt_chars"] for x in served)
        pairs = [s.reached("MockBackend") for s in self.stages]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_outputs(corpus: Path, out: Path) -> dict[str, list[str]]:
    """Labels of the checked modes must equal the planted truth, and the
    report must read 1.000 sensitivity and specificity for them."""
    problems: dict[str, list[str]] = {}
    truth: dict[str, dict[str, int]] = {}
    for row in read_jsonl(corpus / "truth.jsonl"):
        truth.setdefault(row["condition"], {})[row["patient_id"]] = int(row["label"])
    for condition, expected in sorted(truth.items()):
        for mode in CHECKED_MODES:
            path = out / "det" / f"detect_{mode}_{condition}.jsonl"
            if not path.exists():
                problems.setdefault("detect", []).append(f"missing {path.name}")
                continue
            got = {r["patient_id"]: int(r["label"]) for r in read_jsonl(path)}
            wrong = sum(1 for pid in expected.keys() | got.keys() if got.get(pid) != expected.get(pid))
            if wrong:
                problems.setdefault("detect", []).append(f"{path.name}: {wrong} labels differ from truth")
    report = out / "report.csv"
    rows = report.read_text(encoding="utf-8").splitlines() if report.exists() else []
    seen = 0
    for line in rows[1:]:
        cells = line.split(",")
        if cells[0] in CHECKED_MODES:
            seen += 1
            if cells[2] not in ("1.000", "undefined") or cells[5] not in ("1.000", "undefined"):
                problems.setdefault("evaluate", []).append(f"report row {cells[0]},{cells[1]} is not 1.000/1.000")
    if seen != len(CHECKED_MODES) * len(truth):
        problems.setdefault("evaluate", []).append("report.csv lacks rows for the checked modes")
    return problems


def check_counts(run: PassRun, wl: Workload, warm: bool) -> None:
    """What reached the backend must agree across the stub, the client and
    the stage manifests; a warm rerun must reach it not at all."""
    for stage in run.stages:
        if stage.stage not in ("profile", "detect"):
            continue
        issues = []
        if wl.stub:
            calls, chars = stage.reached("HttpBackend")
            if (stage.served["requests"], stage.served["prompt_chars"]) != (calls, chars):
                issues.append(f"stub saw {stage.served['requests']} requests, client sent {calls}")
        if wl.cache:
            misses, _ = stage.reached("MockBackend")
            lookups, _ = stage.reached("CachedBackend")
            argv = stage.record["argv"]
            out = Path(argv[argv.index("--out") + 1])
            manifest_dir = out if stage.stage == "detect" else out.parent
            manifest = json.loads((manifest_dir / f"manifest_{stage.stage}.json").read_text())
            if manifest.get("backend_requests") != misses:
                issues.append(f"manifest backend_requests {manifest.get('backend_requests')} != {misses} misses")
            if "cache_hits" in manifest and manifest["cache_hits"] != lookups - misses:
                issues.append(f"manifest cache_hits {manifest['cache_hits']} != {lookups - misses}")
            if warm and misses:
                issues.append(f"warm rerun sent {misses} requests to the backend")
        if issues:
            run.problems.setdefault(stage.stage, []).extend(issues)


def digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def output_digest(out: Path) -> str:
    return digest_files(sorted((out / "det").glob("detect_*.jsonl")) + [out / "report.csv"])


def run_pass(ctx: "Context", out: Path, cache: Path | None, tag: str, warm: bool = False,
             trace: bool = False) -> PassRun:
    log_dir = ctx.work / "logs" / tag
    log_dir.mkdir(parents=True)
    if ctx.stub is not None:
        ctx.stub.drain()
    url = ctx.stub.url if ctx.stub is not None else None
    run = PassRun()
    for argv in stage_argvs(ctx.wl, ctx.seed, ctx.corpus, out, cache, url):
        stage = run_stage(argv, log_dir, ctx.stub, trace)
        run.stages.append(stage)
        if stage.code != 0:
            run.problems[stage.stage] = [f"exited {stage.code}; see {log_dir / argv[0]}.log"]
            return run
    run.problems = check_outputs(ctx.corpus, out)
    check_counts(run, ctx.wl, warm)
    run.digest = output_digest(out)
    return run


# ---------------------------------------------------------------------------
# set-up, cycles and the traced pass

@dataclass
class Context:
    wl: Workload
    seed: int
    work: Path
    corpus: Path | None = None
    stub: Stub | None = None
    # Output and cache directories are deleted only after the traced pass: on
    # some hosts deleting thousands of small files slows the creation of new
    # ones for seconds afterwards, and every pass creates them.
    used: list = field(default_factory=list)


@dataclass
class Cycle:
    cold: PassRun
    rerun: PassRun | None = None
    disk_mb: float = 0.0
    artifact_mb: float = 0.0
    cache_files: int = 0

    @property
    def wall(self) -> float:
        return self.cold.wall + (self.rerun.wall if self.rerun else 0.0)


def tree_files(root: Path | None) -> list[Path]:
    if root is None or not root.exists():
        return []
    return [p for p in root.rglob("*") if p.is_file()]


def remove(*paths: Path | None) -> None:
    for path in paths:
        if path is not None and path.exists():
            shutil.rmtree(path)


def setup(ctx: Context) -> list[float]:
    """Generate the cohort (and start the stub) SETUP_REPEATS times; keep the
    last. Every generation must give the same bytes."""
    times, digests = [], []
    log_dir = ctx.work / "logs" / "setup"
    log_dir.mkdir(parents=True)
    for k in range(SETUP_REPEATS):
        corpus = ctx.work / f"corpus{k}"
        started = time.monotonic()
        synth = run_stage(
            ["synth", "--out", str(corpus), "--n-patients", str(ctx.wl.patients),
             *SYNTH_ARGS, "--seed", str(ctx.seed)],
            log_dir,
        )
        if synth.code != 0:
            raise RuntimeError(f"synth exited {synth.code}; see {log_dir / 'synth.log'}")
        if ctx.wl.stub:
            if ctx.stub is not None:
                ctx.stub.stop()
                ctx.stub = None
            ctx.stub = Stub(log_dir / f"stub{k}.log")
        times.append(time.monotonic() - started)
        digests.append(digest_files(sorted(p for p in corpus.glob("*.jsonl"))))
        if ctx.corpus is not None:
            shutil.rmtree(ctx.corpus)
        ctx.corpus = corpus
    if len(set(digests)) != 1:
        raise RuntimeError("synth gave different cohorts for the same seed")
    return times


def run_cycle(ctx: Context, index: int) -> Cycle:
    """A cold pass into fresh directories; with a cache, then a rerun into the
    same ones against the cache the cold pass filled."""
    out = ctx.work / f"out{index}"
    cache = ctx.work / f"cache{index}" if ctx.wl.cache else None
    ctx.used += [out, cache]
    cycle = Cycle(run_pass(ctx, out, cache, f"{index}-cold"))
    if cycle.cold.ok:
        on_disk = tree_files(out) + tree_files(cache)
        cycle.disk_mb = sum(p.stat().st_blocks * 512 for p in on_disk) / 1e6
        cycle.artifact_mb = sum(p.stat().st_size for p in tree_files(out)) / 1e6
        cycle.cache_files = len(tree_files(cache))
        if ctx.wl.cache:
            cycle.rerun = run_pass(ctx, out, cache, f"{index}-rerun", warm=True)
    return cycle


def traced_pass(ctx: Context) -> tuple[PassRun, dict]:
    out = ctx.work / "traced"
    cache = ctx.work / "traced-cache" if ctx.wl.cache else None
    ctx.used += [out, cache]
    run = run_pass(ctx, out, cache, "traced", trace=True)
    stages = [
        {"stage": s.stage, "wall": [s.start, s.end], "trace": s.record["trace"]}
        for s in run.stages if "trace" in s.record
    ]
    layers = tracing.analyze(stages, ctx.wl.parallelism) if run.completed else {}
    with open(ctx.work / "spans.jsonl", "w", encoding="utf-8") as handle:
        for s in stages:
            for span in s["trace"]["spans"]:
                name, start, end, parent, thread, _ = span
                handle.write(json.dumps({"stage": s["stage"], "name": name, "start": start,
                                         "end": end, "parent": parent, "thread": thread}) + "\n")
    return run, layers


# ---------------------------------------------------------------------------
# metrics

def median(values):
    return statistics.median(values) if values else None


def end_to_end(ctx: Context, setup_times, colds, reruns, cycles) -> dict:
    pipeline_s = median([p.wall for p in colds])
    reached = [p.reached(ctx.wl.stub) for p in colds]
    out = {
        "setup_s": median(setup_times),
        "pipeline_s": pipeline_s,
        "patients_per_s": ctx.wl.patients / pipeline_s,
        "backend_requests": median([r[0] for r in reached]),
        "backend_prompt_kchars": median([r[1] / 1000.0 for r in reached]),
        "peak_rss_mb": max(s.rss_mb for p in colds + reruns for s in p.stages),
        "disk_mb": median([c.disk_mb for c in cycles if c.cold.ok]),
    }
    if ctx.wl.cache:
        out["rerun_s"] = median([p.wall for p in reruns])
    return out


def cache_counts(run: PassRun) -> tuple[int, int]:
    """(hits, misses) of the response cache over a pass's stages."""
    hits = misses = 0
    for stage in run.stages:
        lookups = stage.reached("CachedBackend")[0]
        if lookups:
            answered = stage.reached("MockBackend")[0] + stage.reached("HttpBackend")[0]
            hits += lookups - answered
            misses += answered
    return hits, misses


def per_layer(ctx: Context, colds, reruns, cycles, traced: PassRun, layers: dict) -> dict:
    out = {f"cli.{name}_s": median([p.stage(name).wall for p in colds]) for name in STAGES}
    out["cli.artifact_mb"] = median([c.artifact_mb for c in cycles if c.cold.ok])
    out.update(layers)
    out["trace_overhead_s"] = traced.wall - median([p.wall for p in colds]) if traced.completed else None
    if ctx.wl.cache:
        out["inference.cache_misses"] = median([cache_counts(p)[1] for p in colds])
        out["inference.cache_hits"] = median([cache_counts(p)[0] for p in reruns])
        out["inference.cache_files"] = median([c.cache_files for c in cycles if c.cold.ok])
    if ctx.wl.stub:
        served, inflight, idle = [], [], []
        for p in colds:
            for s in p.stages:
                served += [tuple(x) for x in s.served["spans"]]
            detect = p.stage("detect")
            mean, share = tracing.concurrency(
                [tuple(x) for x in detect.served["spans"]], detect.start, detect.end
            )
            inflight.append(mean)
            idle.append(share)
        durations = [e - s for s, e in served]
        out["inference.server_service_ms.p50"] = tracing.percentile(durations, 50) * 1000.0
        out["inference.server_service_ms.p99"] = tracing.percentile(durations, 99) * 1000.0
        out["inference.server_inflight_mean"] = median(inflight)
        out["inference.server_idle_share"] = median(idle)
    return out


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="notepheno pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--patients", type=int, help="override the workload's cohort size")
    args = parser.parse_args(argv)
    if not (SRC / "notepheno" / "cli.py").is_file():
        print(f"error: no notepheno sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    wl = WORKLOADS[args.workload]
    if args.patients:
        wl = replace(wl, patients=args.patients)
    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ctx = Context(wl, args.seed, work)

    cycles: list[Cycle] = []
    traced, layers = None, {}
    try:
        setup_times = setup(ctx)
        started = time.monotonic()
        longest = 0.0
        while not cycles or time.monotonic() - started + longest <= args.seconds:
            cycles.append(run_cycle(ctx, len(cycles)))
            longest = max(longest, cycles[-1].wall)
        if args.trace:
            traced, layers = traced_pass(ctx)
    finally:
        if ctx.stub is not None:
            ctx.stub.stop()
        remove(*ctx.used)

    passes = [c.cold for c in cycles] + [c.rerun for c in cycles if c.rerun]
    passes += [traced] if traced else []
    colds = [c.cold for c in cycles if c.cold.ok]
    reruns = [c.rerun for c in cycles if c.rerun and c.rerun.ok]
    digests = {p.digest for p in passes if p.completed}
    attempted = sum(len(p.stages) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [f"{s}: {m}" for p in passes for s, ms in p.problems.items() for m in ms]
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} different output digests")

    print(f"workload {args.workload}: seed {args.seed}, {wl.patients} patients, m {wl.m}, "
          f"parallelism {wl.parallelism}, cache {'on' if wl.cache else 'off'}, "
          f"backend {'stub' if wl.stub else 'mock'}")
    reran = f" and {len(reruns)} passing reruns" if wl.cache else ""
    print(f"timed {len(colds)} passing cold passes{reran} of {len(cycles)} cycles")
    print(f"failure_rate {failed / max(attempted, 1):.4f} ratio "
          f"({failed} of {attempted} stage invocations)")
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"digest {' '.join(sorted(d for d in digests if d))}")
    if not colds or (wl.cache and not reruns):
        print("error: no passing pass to time", file=sys.stderr)
        return 1

    values = end_to_end(ctx, setup_times, colds, reruns, cycles)
    listed = spec["end_to_end"]
    if args.trace:
        values = per_layer(ctx, colds, reruns, cycles, traced, layers)
        listed = spec["per_layer"]
        for layer in tracing.LAYERS:
            print(f"self_time {layer} {fmt(values.get(layer + '.self_s'))} s")
        print(f"spans {ctx.work / 'spans.jsonl'}")
    units = {**UNLISTED_UNITS, **{m["name"]: m["unit"] for m in listed}}
    for name, value in values.items():
        print(f"metric {name} {fmt(value)} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in listed},
    }
    walls = [
        {"pass": tag, "ok": p.ok, "failed": p.failed, "stages": {s.stage: s.wall for s in p.stages}}
        for c in cycles for tag, p in (("cold", c.cold), ("rerun", c.rerun)) if p is not None
    ]
    (ctx.work / "result.json").write_text(json.dumps(
        {**result, "digest": sorted(digests), "all_metrics": values, "passes": walls}, indent=2
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
