#!/usr/bin/env python3
"""End-to-end benchmark of the bolforge CLI, with a traced per-layer split.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hunt|corpus --seed N \
        --seconds S --trace 0|1

The program is the committed source, staged under ``.perfbench/stage/``
from source files only (no ``.so``, bytecode or build tree comes along)
and built there the way ``setup.py`` builds it.  The build is cached by
the sources' hash and never timed.  Every op is a fresh
``python -m bolforge.cli ... --jobs 1`` process writing into a fresh
directory, and the kernel is the default selection (``BOLFORGE_KERNEL``
unset).

Load shape: one client in a closed loop.  A pass runs the workload's ops
in a fixed order, one after another; passes repeat until the next one
would end after ``--seconds``.  Every op's exit code and outputs are
checked against pinned values; a mismatch counts as a failed op and is
never retried.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several set-ups: interpreter start, import, corpus construction and
writes), ``pass_s`` (median wall time of one pass) and ``max_rss_mb``
(median over passes of the largest peak RSS of an op process).

The two times are scaled to a nominal host speed.  On a small shared
host the speed drifts by up to 2x within minutes, and it moves the times
of all ops alike, so raw medians of the same code in runs a few minutes
apart differ by more than any useful bound.  After each untraced pass
the benchmark therefore runs ``perfbench/reference.py``, a fixed loop
of dict and integer work, as a fresh process like the ops, once per op
of the pass.
The median time of that process over the run, divided by
``REF_NOMINAL_S``, is the host's slowness, and both medians are divided
by it.  The reference imports nothing from the program, so a change to
the program moves the scaled times as much as the raw ones.  Raw times
and the slowness are printed as well.
``--trace 1`` alternates untraced passes with passes whose ops run under
``perfbench/launcher.py``, and reports the per-layer metrics: self times
per layer, kernel counters, call counts and ``trace.overhead_s`` (median
traced pass minus median untraced pass).  ``claims.<ID>_s`` is a claim
check's whole time, the property calls it makes included.  A layer that
a workload never calls reads 0 there.  Per-op medians, tail
percentiles, sample counts, the CPU time of a pass (user plus system
time of its op processes; wall time minus this is time the process
could not run), the error rate and the environment are printed above
the result, which is the last line: one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"
INPUTS = HERE / "inputs.py"
REFERENCE = HERE / "reference.py"

#: Files and directories of the checkout that make up the program's source.
SOURCE_PARTS = ("setup.py", "pyproject.toml", "src")
#: Build products that must never reach the staging copy.
BUILD_PRODUCTS = re.compile(r"(^|/)(__pycache__|build|[^/]*\.egg-info)(/|$)|\.(so|pyd|pyc|o)$")

SETUP_REPS = 9
#: Seconds ``perfbench/reference.py`` takes on the nominal host of the scaled times.
REF_NOMINAL_S = 0.5
VERSION_REPS = 3
#: No op may push the whole run past this many seconds.
RUN_LIMIT_S = 170.0

#: The claim ids of bolforge.claims, one per-layer time metric each.
CLAIM_IDS = (
    "LEMMA1",
    "LEMMA2",
    "THEOREM1",
    "COROLLARY",
    "GLAUBERMAN_PARITY",
    "REMARK1_EXT",
    "REMARK2_EXT",
    "CENTER_NORMAL",
    "GROUP_COINCIDENCE",
    "MOUFANG_COMMUTANT",
)


@dataclass(frozen=True)
class Op:
    """One CLI process of a pass and what its outputs must be.

    ``{out}`` in ``args`` is the op's fresh output directory and
    ``{manifest}`` the manifest the op verifies.  A search op pins the
    count and SHA-256 of its sorted representative file names and the
    ``exhausted`` flag (``found`` is always false here); a verify op pins
    its verdict totals and loop count.
    """

    kind: str
    args: tuple[str, ...]
    exit_code: int
    names: tuple[int, str] | None = None
    exhausted: bool | None = None
    totals: dict | None = None


#: Each workload makes one layer do most of its work.  BENCHMARK.json records why.
#: There are two, so that a run can be long enough for its median to hold
#: still on a small shared host; more workloads would mean shorter runs.
WORKLOADS: dict[str, tuple[Op, ...]] = {
    "hunt": (
        Op(
            "enumerate",
            ("enumerate", "--order", "9", "--class", "left-bol", "--jobs", "1", "--out", "{out}"),
            exit_code=0,
            # 4f2f2b147201fd20.loop and 9c32d6f8bfae3c4c.loop
            names=(2, "009a84565aa08c5e6818946246baac0d323cfe96c2a6c546270876af0d56bd8a"),
            exhausted=True,
        ),
        Op(
            "find",
            ("find", "--order", "8", "--class", "right-bol",
             "--find", "commutant-not-subloop", "--jobs", "1", "--out", "{out}"),
            exit_code=4,
            names=(0, hashlib.sha256(b"").hexdigest()),
            exhausted=True,
        ),
    ),
    "corpus": (
        Op(
            "verify",
            ("verify", "{manifest}", "--out", "{out}/report.json"),
            exit_code=0,
            totals={"verified": 200, "hypothesis-not-met": 60, "REFUTED": 0},
        ),
    ),
}


class SetupError(Exception):
    """The program cannot be staged, built or prepared; no result is printed."""


# -- staging and build ---------------------------------------------------------


def source_files(root: Path) -> list[Path]:
    files = []
    for part in SOURCE_PARTS:
        path = root / part
        if path.is_file():
            files.append(Path(part))
        elif path.is_dir():
            for sub in sorted(path.rglob("*")):
                rel = sub.relative_to(root)
                if sub.is_file() and not BUILD_PRODUCTS.search(rel.as_posix()):
                    files.append(rel)
        else:
            raise SetupError(f"{part} not found in {root}; run from the root of a bolforge checkout")
    return files


def stage_and_build(root: Path) -> tuple[Path, dict]:
    """Copy the sources into a cache keyed by their hash and build there, untimed."""
    files = source_files(root)
    digest = hashlib.sha256()
    for rel in files:
        digest.update(rel.as_posix().encode() + b"\0" + (root / rel).read_bytes() + b"\0")
    source_sha = digest.hexdigest()
    stages = root / ".perfbench" / "stage"
    stage = stages / source_sha[:16]
    record_file = stage / "build.json"
    if record_file.is_file():
        return stage, json.loads(record_file.read_text())
    shutil.rmtree(stages, ignore_errors=True)
    tmp = stages / (source_sha[:16] + ".tmp")
    for rel in files:
        (tmp / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(root / rel, tmp / rel)
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=tmp, capture_output=True, text=True, timeout=600,
    )
    log = build.stdout + build.stderr
    (tmp / "build.log").write_text(log)
    if build.returncode != 0:
        raise SetupError(f"build failed (exit {build.returncode}):\n{log[-2000:]}")
    compileall.compile_dir(str(tmp / "src"), quiet=1)
    record = {
        "source_sha256": source_sha,
        "extensions_built": re.findall(r"building '([^']+)' extension", log),
    }
    (tmp / "build.json").write_text(json.dumps(record) + "\n")
    tmp.rename(stage)
    return stage, record


def program_env(stage: Path, kernel: str | None = None) -> dict:
    env = dict(os.environ)
    env.pop("BOLFORGE_KERNEL", None)
    env.pop("BOLFORGE_BUDGET_NODES", None)
    if kernel:
        env["BOLFORGE_KERNEL"] = kernel
    env["PYTHONPATH"] = str(stage / "src")
    return env


def describe_environment(root: Path, env: dict, build: dict, seed: int) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, os, sys; from bolforge.search import get_kernel; "
         "print(json.dumps({'python': sys.version.split()[0], 'nproc': len(os.sched_getaffinity(0)), "
         "'backend': get_kernel().BACKEND}))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise SetupError(f"staged bolforge does not import:\n{probe.stderr[-2000:]}")
    info = json.loads(probe.stdout)
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        except OSError:
            rev = None
        if rev is not None and rev.returncode == 0:
            commit = rev.stdout.strip()
    info.update(
        commit=commit,
        source_sha256=build["source_sha256"],
        seed=seed,
        extensions_built=build["extensions_built"],
    )
    return info


# -- one op --------------------------------------------------------------------


@dataclass
class OpResult:
    kind: str
    wall_s: float
    rss_kb: int
    problems: list[str]
    files_written: int = 0
    bytes_written: int = 0
    digest: str = ""
    report: dict = field(default_factory=dict)
    trace: list | None = None
    cpu_s: float = 0.0


def spawn(
    argv: list[str], env: dict, cwd: Path, log: Path, deadline: float
) -> tuple[int, float, os.struct_rusage]:
    """Run one process to its end; return (exit code, wall seconds, resource usage).

    The process is killed at ``deadline`` (a ``time.monotonic`` value), and
    also when the benchmark itself is interrupted; it is always reaped.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def output_summary(path: Path) -> tuple[int, int, str]:
    """File count, byte count, and a digest of the names and bytes of the ``.loop`` files."""
    files = sorted(p for p in path.rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for p in files:
        if p.suffix == ".loop":
            digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return len(files), sum(p.stat().st_size for p in files), digest.hexdigest()


def names_pin(names: list[str]) -> tuple[int, str]:
    return len(names), hashlib.sha256("\n".join(sorted(names)).encode()).hexdigest()


def check_outputs(op: Op, out: Path, code: int, expected_loops: int | None) -> tuple[list[str], dict]:
    """Compare an op's exit code and outputs with the pinned values."""
    problems = []
    if code != op.exit_code:
        problems.append(f"exit code {code}, expected {op.exit_code}")
    if op.kind == "verify":
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"no verify report: {exc}"], {}
        if report["totals"] != op.totals:
            problems.append(f"verdict totals {report['totals']}, expected {op.totals}")
        if report["errors"]:
            problems.append(f"{len(report['errors'])} files failed to parse")
        if expected_loops is not None and len(report["loops"]) != expected_loops:
            problems.append(f"{len(report['loops'])} loops verified, expected {expected_loops}")
        return problems, report
    names = sorted(p.name for p in out.glob("*.loop"))
    if names_pin(names) != op.names:
        problems.append(f"representatives {names_pin(names)}, expected {op.names}")
    try:
        stats = json.loads((out / "stats.json").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"no stats.json: {exc}"], {}
    if (stats["exhausted"], stats["found"]) != (op.exhausted, False):
        problems.append(
            f"exhausted={stats['exhausted']} found={stats['found']}, "
            f"expected exhausted={op.exhausted} found=False"
        )
    if sorted(stats["representatives"]) != names:
        problems.append("stats.json lists other representatives than the directory holds")
    return problems, stats


# -- passes --------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    stage: Path
    env: dict
    backend: str
    inputs: Path
    inputs_record: dict
    work: Path
    deadline: float
    passes: int = 0

    def run_pass(self, traced: bool, env: dict | None = None) -> list[OpResult]:
        """Run the workload's ops once, in order, each in a fresh directory."""
        pass_dir = self.work / f"pass-{self.passes}"
        self.passes += 1
        pass_dir.mkdir(parents=True)
        manifest = self.inputs / self.inputs_record.get("manifest", "")
        expected_loops = self.inputs_record.get("loops")
        results = []
        for i, op in enumerate(WORKLOADS[self.workload]):
            out = pass_dir / f"{i}-{op.kind}"
            out.mkdir()
            args = [a.format(out=out, manifest=manifest) for a in op.args]
            trace_file = pass_dir / f"{i}.trace.json"
            if traced:
                argv = [sys.executable, str(LAUNCHER), str(trace_file), *args]
            else:
                argv = [sys.executable, "-m", "bolforge.cli", *args]
            code, wall, usage = spawn(argv, env or self.env, pass_dir, pass_dir / f"{i}.log", self.deadline)
            problems, report = check_outputs(op, out, code, expected_loops)
            result = OpResult(op.kind, wall, usage.ru_maxrss, problems, report=report,
                              cpu_s=usage.ru_utime + usage.ru_stime)
            result.files_written, result.bytes_written, result.digest = output_summary(out)
            if traced:
                try:
                    result.trace = json.loads(trace_file.read_text())["spans"]
                except (OSError, ValueError) as exc:
                    result.problems.append(f"no trace: {exc}")
            results.append(result)
        shutil.rmtree(pass_dir)
        return results

    def version_op(self) -> OpResult:
        log = self.work / "version.log"
        code, wall, usage = spawn(
            [sys.executable, "-m", "bolforge.cli", "--version"], self.env, self.work, log, self.deadline
        )
        text = log.read_text()
        problems = [] if code == 0 and text.startswith("bolforge ") else [f"--version exit {code}: {text[:200]!r}"]
        return OpResult("startup", wall, usage.ru_maxrss, problems)

    def reference(self) -> float:
        """Wall seconds of one run of the reference process."""
        log = self.work / "reference.log"
        code, wall, _ = spawn([sys.executable, str(REFERENCE)], self.env, self.work, log, self.deadline)
        if code != 0:
            raise SetupError(f"reference exit {code}: {log.read_text()[-2000:]}")
        return wall


def run_setup(workload: str, seed: int, env: dict, base: Path) -> tuple[list[float], Path, dict]:
    """Make the inputs SETUP_REPS times; return the wall times, the last inputs and their record.

    The record's ``construct_s`` is the median over the repetitions.
    """
    walls = []
    construct = []
    for rep in range(SETUP_REPS):
        out = base / f"inputs-{rep}"
        log = base / f"inputs-{rep}.log"
        code, wall, _ = spawn(
            [sys.executable, str(INPUTS), "--workload", workload, "--seed", str(seed), "--out", str(out)],
            env, base, log, time.monotonic() + 120,
        )
        if code != 0:
            raise SetupError(f"input set-up failed:\n{log.read_text()[-2000:]}")
        walls.append(wall)
        record = json.loads((out / "inputs.json").read_text())
        construct.append(record.get("construct_s", 0.0))
        if rep < SETUP_REPS - 1:
            shutil.rmtree(out)
    record["construct_s"] = statistics.median(construct)
    return walls, out, record


# -- metrics -------------------------------------------------------------------


def tail(samples: list[float]) -> str:
    """Median, the highest percentile above it with at least ten samples beyond, and the samples."""
    s = sorted(samples)
    n = len(s)
    text = f"median {statistics.median(s):.4f} s, n={n}"
    if n >= 21:
        text += f", p{100 * (n - 10) // n} {s[n - 11]:.4f} s"
    else:
        text += ", no tail percentile (needs 21 samples)"
    return text + f", samples {[round(x, 4) for x in samples]}"


def layer_counts(results: list[OpResult]) -> Counter:
    """Per-layer self times and counts of one traced pass."""
    c: Counter = Counter()
    for result in results:
        spans = result.trace or []
        self_time = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                self_time[parent] -= end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            outer = parent < 0 or spans[parent][0] != name
            if name == "cli":
                c["cli.self_s"] += self_time[i]
            elif name == "engine":
                c["engine.self_s"] += self_time[i]
            elif name.startswith("kernel.search"):
                c["kernel.search_s"] += self_time[i]
                c.update({f"kernel.{k}": v for k, v in counts.items()})
                c["kernel.subtrees"] += name == "kernel.search.run"
            elif name == "kernel.canon":
                c["kernel.canon_s"] += self_time[i]
                c["kernel.canon_calls"] += 1
            elif name.startswith("table."):
                c[f"{name}_s"] += self_time[i]
                c[f"{name}_calls"] += outer
            elif name.startswith("props.scan"):
                c["props.scan_s"] += self_time[i]
                if result.kind == "verify" and name == "props.scan.is_left_bol":
                    c["left_bol_calls"] += 1
            elif name == "props.structure":
                c["props.structure_s"] += self_time[i]
            elif name.startswith("claims."):
                c[f"{name}_s"] += end - start
                c["claims.self_s"] += self_time[i]
        c["cli.files_written"] += result.files_written
        c["cli.bytes_written"] += result.bytes_written
        if result.kind == "verify" and result.report:
            totals = result.report["totals"]
            c["claims.verified"] += totals["verified"]
            c["claims.hypothesis_not_met"] += totals["hypothesis-not-met"]
            c["claims.refuted"] += totals["REFUTED"]
            loops = result.report["loops"].values()
            c["loops"] += len(loops)
            c["left_bol_loops"] += sum(v["LEMMA1"]["status"] != "hypothesis-not-met" for v in loops)
    return c


def per_layer(traced_passes: list[list[OpResult]]) -> dict[str, float]:
    rows = []
    for results in traced_passes:
        c = layer_counts(results)
        c["kernel.nodes_per_s"] = c["kernel.nodes"] / c["kernel.search_s"] if c["kernel.search_s"] else 0.0
        c["kernel.canonical_per_leaf"] = c["kernel.canonical"] / c["kernel.leaves"] if c["kernel.leaves"] else 0.0
        c["props.left_bol_calls_per_loop"] = c["left_bol_calls"] / c["loops"] if c["loops"] else 0.0
        c["claims.left_bol_share"] = c["left_bol_loops"] / c["loops"] if c["loops"] else 0.0
        rows.append(c)
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


PER_LAYER_UNITS = {
    "kernel.search_s": "s", "kernel.nodes": "count", "kernel.nodes_per_s": "1/s",
    "kernel.identity_prunes": "count", "kernel.iso_prunes": "count", "kernel.leaves": "count",
    "kernel.canonical": "count", "kernel.canonical_per_leaf": "ratio", "kernel.subtrees": "count",
    "kernel.canon_s": "s", "kernel.canon_calls": "count",
    "engine.self_s": "s",
    "table.build_s": "s", "table.build_calls": "count",
    "table.serialize_s": "s", "table.serialize_calls": "count",
    "table.parse_s": "s", "table.parse_calls": "count",
    "props.scan_s": "s", "props.structure_s": "s", "props.left_bol_calls_per_loop": "calls/loop",
    **{f"claims.{claim}_s": "s" for claim in CLAIM_IDS},
    "claims.self_s": "s", "claims.verified": "count", "claims.hypothesis_not_met": "count",
    "claims.refuted": "count", "claims.left_bol_share": "ratio",
    "cli.startup_s": "s", "cli.self_s": "s", "cli.files_written": "count", "cli.bytes_written": "bytes",
    "construct_s": "s",
    "trace.overhead_s": "s",
}


# -- main ----------------------------------------------------------------------


def check_parity(run: Run, reference: list[OpResult]) -> list[OpResult]:
    """Rerun a pass on the Python kernel; its search outputs must match byte for byte."""
    results = run.run_pass(traced=False, env=program_env(run.stage, kernel="python"))
    for ref, alt in zip(reference, results):
        if alt.kind != "verify" and alt.digest != ref.digest:
            alt.problems.append("python kernel output differs from the default kernel's")
    return results


def measure(run: Run, seconds: float, trace: bool, setup_walls: list[float]) -> dict:
    """Run passes for ``seconds``; print the per-op report and return the result object."""
    end = time.monotonic() + seconds
    untraced: list[list[OpResult]] = []
    traced: list[list[OpResult]] = []
    startups: list[OpResult] = []
    references: list[float] = []
    steps: list[float] = []
    while True:
        start = time.monotonic()
        untraced.append(run.run_pass(traced=False))
        references += [run.reference() for _ in untraced[-1]]
        if trace:
            startups += [run.version_op() for _ in range(VERSION_REPS)]
            traced.append(run.run_pass(traced=True))
        steps.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(steps) > end:
            break

    parity: list[OpResult] = []
    checked = run.stage / f"parity-{run.workload}.ok"
    if run.backend == "python":
        print("parity: only the python kernel is built; backend parity not checked")
    elif checked.is_file():
        print(f"parity: {run.backend} vs python kernel outputs identical (checked once for this build)")
    else:
        parity = check_parity(run, untraced[0])
        same = not any(r.problems for r in parity)
        if same:
            checked.touch()
        print(f"parity: {run.backend} vs python kernel outputs {'identical' if same else 'DIFFER'}")

    ops = [r for p in untraced + traced for r in p] + startups + parity
    failed = sum(1 for r in ops if r.problems)
    for r in ops:
        for problem in r.problems:
            print(f"FAILED {r.kind}: {problem}")
    walls = [pass_wall(p) for p in untraced]
    slowness = statistics.median(references) / REF_NOMINAL_S
    print(f"reference: {tail(references)}; host slowness {slowness:.4f}")
    print(f"setup_s raw: {tail(setup_walls)}")
    for kind in dict.fromkeys(op.kind for op in WORKLOADS[run.workload]):
        samples = [r for p in untraced for r in p if r.kind == kind]
        rss = statistics.median(r.rss_kb for r in samples) / 1024
        print(f"{kind}_s: {tail([r.wall_s for r in samples])}; median peak RSS {rss:.2f} MB")
    print(f"pass_s raw: {tail(walls)}")
    print(f"pass_cpu_s: {tail([sum(r.cpu_s for r in p) for p in untraced])}")
    print(f"scaled: setup_s {statistics.median(setup_walls) / slowness:.4f} s, "
          f"pass_s {statistics.median(walls) / slowness:.4f} s")
    print(f"error_rate: {failed}/{len(ops)} = {failed / len(ops):.4f}")
    for r in untraced[0]:
        if r.kind != "verify" and r.report:
            print(f"{r.kind} kernel nodes: {r.report['search']['nodes']}")

    if trace:
        metrics = per_layer(traced)
        metrics["cli.startup_s"] = statistics.median(r.wall_s for r in startups)
        metrics["construct_s"] = run.inputs_record["construct_s"]
        metrics["trace.overhead_s"] = statistics.median(pass_wall(p) for p in traced) - statistics.median(walls)
        values = {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        rss = [max(r.rss_kb for r in p) / 1024 for p in untraced]
        values = {
            "setup_s": {"value": statistics.median(setup_walls) / slowness, "unit": "s"},
            "pass_s": {"value": statistics.median(walls) / slowness, "unit": "s"},
            "max_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": values}


def pass_wall(results: list[OpResult]) -> float:
    return sum(r.wall_s for r in results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into SystemExit, so the running op is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    work = root / ".perfbench" / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        stage, build = stage_and_build(root)
        env = program_env(stage)
        info = describe_environment(root, env, build, args.seed)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        setup_walls, inputs, inputs_record = run_setup(args.workload, args.seed, env, work)
        print(f"environment: {json.dumps(info, sort_keys=True)}")
        print(f"workload {args.workload}: ops {[op.kind for op in WORKLOADS[args.workload]]}, "
              f"inputs {json.dumps(inputs_record, sort_keys=True)}")
        run = Run(args.workload, stage, env, info["backend"], inputs, inputs_record, work / "ops", deadline)
        result = measure(run, args.seconds, bool(args.trace), setup_walls)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
