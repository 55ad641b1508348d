#!/usr/bin/env python3
"""ramstab benchmark: drives `ramstab.cli.main(argv)` in process and checks every output.

    python3 bench/run.py --workload certify-corpus --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the end-to-end metrics are measured; with --trace 1 every public
ramstab function is wrapped (see spans.py) and the per-layer metrics are
reported instead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The full result, with the environment it was measured in, is
written to bench/out/.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "ramstab" / "data"
OUT = HERE / "out"

WORKLOADS = ("certify-corpus", "wide-degree", "tower-depth")
RUNGS = (10, 20, 40)  # k = (V-1) * depth tower vertices
TAIL_BEYOND = 10
# generator blocks in a run's corpus; tower-depth has a fixed document list
BLOCKS = {"certify-corpus": 4, "wide-degree": 2}
SETUP_REPEATS = 11
PROBE_SHARE = 0.3  # of the window, for the tower rungs on the other workloads
# the calibration loop runs after every timed repeat for this share of the
# repeat's time, and at least once
CALIBRATION_SHARE = 0.1
# about the time of one calibrate() loop on the machine the benchmark was
# written on; times are reported at that speed (see "Noise" in README.md)
CALIBRATION_REF_S = 0.0004
CENSUS = ("branches.build_record", "polygons.lower_hull", "limitdata.limiting_data", "hasseherbrand.build_phi")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "docs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "breaks_s.k10": "s",
    "breaks_s.k20": "s",
    "breaks_s.k40": "s",
    "hh_s.k40": "s",
    "plot_s.k20": "s",
}

PER_LAYER_CALLS = [
    "branches.build_record",
    "branches.branch_step_candidates",
    "polygons.lower_hull",
    "limitdata.limiting_data",
    "limitdata.main_and_error",
    "limitdata.reindexed_record",
    "valuations.binom_valuation",
    "plf.evaluate",
    "plf.PLFunction.slopes",
]
PER_LAYER_SELF = [
    "inputdoc.load_document",
    "branches.build_record",
    "branches.extend_record",
    "polygons.lower_hull",
    "limitdata.main_and_error",
    "valuations.kummer_carries",
    "certificates.certify",
    "certificates.pcb_normal_form",
    "hasseherbrand.build_tower",
    "plf.compose",
    "plf.make_plf",
    "svgplot.render_level_report",
    "cli.main",
]


# --- documents and commands ------------------------------------------------


@dataclass
class Fixture:
    """A bundled input with its committed golden reports."""

    name: str
    V: int
    path: Path
    golden: dict
    golden_breaks: list
    support: frozenset


def load_fixtures() -> list[Fixture]:
    fixtures = []
    for name, V, hh in (("sample", 3, "hh3"), ("uniformizer", 2, "hh5")):
        golden = {
            kind: json.loads((DATA / "golden" / f"{name}.{kind}.json").read_text())
            for kind in ("certify", "limit-data")
        }
        hh_golden = json.loads((DATA / "golden" / f"{name}.{hh}.json").read_text())
        path = DATA / f"{name}.json"
        support = frozenset(int(i) for i in json.loads(path.read_text())["coeff_valuations"])
        fixtures.append(Fixture(name, V, path, golden, [Fraction(b) for b in hh_golden["breaks"]], support))
    return fixtures


@dataclass
class Command:
    kind: str
    doc: object  # gen.Doc or Fixture
    path: Path
    depth: Optional[int] = None
    rung: Optional[str] = None  # end-to-end rung metric this command adds to

    def build_argv(self, workdir: Path) -> list:
        if self.kind in ("breaks", "hh"):
            return [self.kind, "--depth", str(self.depth), str(self.path)]
        if self.kind == "plot":
            return ["plot", "--depth", str(self.depth), "--out", str(workdir / "plot.svg"), str(self.path)]
        return [self.kind, str(self.path)]


def write_doc(doc: gen.Doc, workdir: Path) -> Path:
    path = workdir / f"{doc.name}.json"
    path.write_text(json.dumps(doc.obj, indent=1))
    return path


def tower_commands(doc, path: Path, V: int) -> list[Command]:
    cmds = [Command("breaks", doc, path, k // (V - 1), f"breaks_s.k{k}") for k in RUNGS]
    cmds.append(Command("hh", doc, path, 40 // (V - 1), "hh_s.k40"))
    cmds.append(Command("plot", doc, path, 20 // (V - 1), "plot_s.k20"))
    return cmds


class Workload:
    """The commands of one workload run, made once from the seed and run in every pass.

    Every pass runs the same commands on the same documents, so each
    command's times are repeats of identical work, and a faster commit only
    adds repeats.  ``probe`` holds the tower rungs on the sample fixture, for
    the workloads without tower documents: one fixture, not both, so that
    each probe command gets several repeats in the share of the window the
    probe has.
    """

    def __init__(self, name: str, seed: int, workdir: Path, fixtures: list[Fixture]):
        self.workdir = workdir
        sample = fixtures[0]
        self.probe = [] if name == "tower-depth" else tower_commands(sample, sample.path, sample.V)
        self.commands: list[Command] = []
        if name == "tower-depth":
            for fx in fixtures:
                self.commands += tower_commands(fx, fx.path, fx.V)
            for doc in gen.tower_docs(seed):
                self.commands += tower_commands(doc, write_doc(doc, workdir), 2)
        elif name == "certify-corpus":
            self.commands = [Command(kind, fx, fx.path) for fx in fixtures for kind in ("certify", "limit-data")]
            for block in range(BLOCKS[name]):
                for doc in gen.certify_corpus(seed, block):
                    path = write_doc(doc, workdir)
                    self.commands.append(Command("certify", doc, path))
                    if doc.extra_commands:
                        self.commands += [Command("branch", doc, path), Command("limit-data", doc, path)]
        else:
            for block in range(BLOCKS[name]):
                for doc in gen.wide_degree(seed, block):
                    path = write_doc(doc, workdir)
                    self.commands += [Command("limit-data", doc, path), Command("certify", doc, path)]


# --- running and checking --------------------------------------------------


@dataclass
class Outcome:
    code: object
    ns: int
    stdout: str
    stderr: str


def execute(cli, argv: list) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash of the program under test is a failed command
        code = f"raised {type(exc).__name__}: {exc}"
    ns = time.perf_counter_ns() - t0
    return Outcome(code, ns, out.getvalue(), err.getvalue())


class Checker:
    """Checks each command's output; keeps what later commands are compared with."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.breaks: dict = {}  # (doc name, depth) -> breaks seen so far in the run
        self.certificate_checks: list[int] = []
        self.max_denominator_bits = 0

    def check(self, cmd: Command, res: Outcome) -> Optional[str]:
        try:
            return self._check(cmd, res)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check(self, cmd: Command, res: Outcome) -> Optional[str]:
        doc = cmd.doc
        if isinstance(res.code, str):
            return res.code
        if isinstance(doc, gen.Doc) and doc.broken_field:
            return checks.check_malformed(doc, res.code, res.stderr)
        if cmd.kind == "plot":
            if res.code != 0:
                return f"plot exit {res.code}: {res.stderr.strip()[:200]}"
            return checks.check_svg((self.workdir / "plot.svg").read_text())
        payload = json.loads(res.stdout)
        if cmd.kind == "certify":
            self.certificate_checks.append(len(payload["checks"]))
            problem = checks.check_certificate(payload, res.code)
            if problem or not isinstance(doc, Fixture):
                return problem
            return None if payload == doc.golden["certify"] else "certify differs from the golden report"
        if res.code != 0:
            return f"{cmd.kind} exit {res.code}: {res.stderr.strip()[:200]}"
        if cmd.kind == "limit-data":
            if isinstance(doc, Fixture):
                return None if payload == doc.golden["limit-data"] else "limit-data differs from the golden report"
            return checks.check_limit_data(doc, payload)
        if cmd.kind == "branch":
            return checks.check_branch(doc, payload)
        return self._check_tower(cmd, payload)

    def _check_tower(self, cmd: Command, payload: dict) -> Optional[str]:
        doc, depth = cmd.doc, cmd.depth
        breaks = checks.parse_breaks(payload)
        self.max_denominator_bits = max(self.max_denominator_bits, checks.max_denominator_bits(payload))
        V = doc.V if isinstance(doc, Fixture) else 2
        problem = checks.check_breaks(breaks, (V - 1) * depth)
        if problem:
            return problem
        if cmd.kind == "hh":
            return checks.check_hh(payload, depth, self.breaks.get((doc.name, depth), breaks))
        # an earlier run at this depth must match, and a shallower rung be a prefix
        earlier = [b for (name, d), b in self.breaks.items() if name == doc.name and d <= depth]
        if any(breaks[: len(b)] != b for b in earlier):
            return "a shallower rung is not a prefix of this one, or a repeat differs"
        self.breaks[(doc.name, depth)] = breaks
        if isinstance(doc, Fixture):
            n = min(len(doc.golden_breaks), len(breaks))
            if breaks[:n] != doc.golden_breaks[:n]:
                return "breaks do not start with the golden breaks"
            if doc.name == "uniformizer" and breaks != [Fraction(3**n + 1, 2) for n in range(1, depth + 1)]:
                return "uniformizer breaks are not (3^n + 1)/2"
            return None
        return None if breaks == checks.v2_breaks(doc, depth) else "breaks differ from the closed form"


@dataclass
class Record:
    """What is kept of one command once it has been checked."""

    kind: str
    name: str  # document name
    fixture: bool
    depth: Optional[int]
    ns: int
    problem: Optional[str]
    output_bytes: int


class Runner:
    def __init__(self, cli, workload: Workload, tracer=None):
        self.cli, self.workload, self.tracer = cli, workload, tracer
        self.checker = Checker(workload.workdir)
        self.records: list[Record] = []

    def run_commands(self, cmds: list[Command]) -> list[Record]:
        out = []
        for cmd in cmds:
            argv = cmd.build_argv(self.workload.workdir)
            if self.tracer:
                self.tracer.begin_command(argv, cmd.doc.support)
            res = execute(self.cli, argv)
            out.append(Record(cmd.kind, cmd.doc.name, isinstance(cmd.doc, Fixture), cmd.depth,
                              res.ns, self.checker.check(cmd, res), len(res.stdout)))
        self.records += out
        return out


def calibrate() -> int:
    """Time in ns of a fixed pure-Python loop that does not touch ramstab, collector off."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter_ns()
    acc, counts = Fraction(0), {}
    for i in range(1, 150):
        acc += Fraction(i % 97, i % 89 + 1)
    for i in range(1000):
        counts[i % 100] = counts.get(i % 100, 0) + i
    ns = time.perf_counter_ns() - t0
    if collecting:
        gc.enable()
    return ns


class Clock:
    """Turns wall times into reference seconds with the calibration loop run on either side.

    After every timed repeat the loop runs for CALIBRATION_SHARE of the
    repeat's time.  The repeat's reference time is CALIBRATION_REF_S times
    the repeat's time over the mean loop time of the calibration runs just
    before and just after it, so a stretch in which the core runs slower
    slows both alike.
    """

    def __init__(self):
        self.loop_ns = self._loop_ns(0)

    @staticmethod
    def _loop_ns(budget_ns: float) -> float:
        """Mean time of calibrate() over runs that take at least budget_ns, and at least one run."""
        runs = spent = 0
        while not runs or spent < budget_ns:
            spent += calibrate()
            runs += 1
        return spent / runs

    def reference_s(self, ns: int) -> float:
        before, self.loop_ns = self.loop_ns, self._loop_ns(CALIBRATION_SHARE * ns)
        return CALIBRATION_REF_S * ns / ((before + self.loop_ns) / 2)


@dataclass
class Timings:
    """Per command, the wall time of each repeat and its time in reference seconds."""

    wall: list
    ref: list

    @classmethod
    def of(cls, cmds: list[Command]) -> "Timings":
        return cls([[] for _ in cmds], [[] for _ in cmds])

    def total_s(self) -> float:
        return sum(map(sum, self.wall))

    def run_pass(self, runner: Runner, cmds: list[Command], clock: Clock) -> None:
        """Each command once, with the calibration loop run after each."""
        for cmd, wall, ref in zip(cmds, self.wall, self.ref):
            (rec,) = runner.run_commands([cmd])
            wall.append(rec.ns / 1e9)
            ref.append(clock.reference_s(rec.ns))

    def medians(self) -> tuple[list[float], list[float]]:
        """Per command, the median of its repeats in reference seconds, and in wall seconds."""
        return [statistics.median(r) for r in self.ref], [statistics.median(w) for w in self.wall]


@dataclass
class Measurement:
    main: Timings  # the workload's commands
    probe: Timings  # the probe commands
    setup: list = field(default_factory=list)  # set-up times in reference seconds
    setup_wall: list = field(default_factory=list)  # the same in wall seconds
    passes: int = 0
    probe_rounds: int = 0
    rss_mb: float = 0.0  # ru_maxrss after the first pass, before any probe command

    def add_setup(self, argv: list, clock: Clock) -> None:
        wall = setup_once(argv)
        self.setup_wall.append(wall)
        self.setup.append(clock.reference_s(round(wall * 1e9)))


def measure(runner: Runner, until: float, setup_argv: list) -> Measurement:
    """Whole passes while the next one is expected to end before ``until``; at least one.

    Between passes the probe rounds get PROBE_SHARE of the time, and
    set-up samples are spread over the run, so that every figure draws on
    the whole window and not on one stretch of it.
    """
    workload = runner.workload
    m = Measurement(Timings.of(workload.commands), Timings.of(workload.probe))
    clock = Clock()
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        while len(m.setup) < SETUP_REPEATS * (t0 - t_start) / max(until - t_start, 1e-9) + 1:
            m.add_setup(setup_argv, clock)
        m.main.run_pass(runner, workload.commands, clock)
        m.passes += 1
        if m.passes == 1:
            m.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if workload.probe:
            target = PROBE_SHARE / (1 - PROBE_SHARE) * m.main.total_s()
            while not m.probe_rounds or m.probe.total_s() < target:
                m.probe.run_pass(runner, workload.probe, clock)
                m.probe_rounds += 1
        if time.monotonic() + (time.monotonic() - t0) > until:
            break
    while len(m.setup) < SETUP_REPEATS:
        m.add_setup(setup_argv, clock)
    return m


# --- metrics ---------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it, and its value.

    By nearest rank that is the (TAIL_BEYOND + 1)-th largest sample, at
    percentile 100 (n - TAIL_BEYOND) / n.  The percentile moves smoothly with
    the sample count instead of jumping between fixed levels.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, n - TAIL_BEYOND)
    return 100 * rank / n, xs[rank - 1]


def end_to_end(m: Measurement, workload: Workload):
    """The metrics in reference seconds, and the details of the run.

    Each command's time is the median of its repeats in reference seconds
    (see Clock); the figures from wall times are kept in the details.
    """
    times, walls = m.main.medians()
    probe_times, probe_walls = m.probe.medians()

    def figures(times: list[float], probe_times: list[float], setup: list[float]) -> dict[str, float]:
        rungs: dict[str, float] = {}
        for cmd, t in zip(workload.commands + workload.probe, times + probe_times):
            if cmd.rung:
                rungs[cmd.rung] = rungs.get(cmd.rung, 0.0) + t
        return {
            "setup_s": statistics.median(setup),
            "docs_per_s": len(times) / sum(times),
            "latency_p50_ms": statistics.median(times) * 1e3,
            "latency_tail_ms": tail(times)[1] * 1e3,
            **rungs,
        }

    metrics = figures(times, probe_times, m.setup)
    metrics["peak_rss_mb"] = m.rss_mb
    scale = statistics.median(r / w for rs, ws in zip(m.main.ref, m.main.wall) for r, w in zip(rs, ws))
    details = {"latency_tail_percentile": tail(times)[0], "commands": len(times), "passes": m.passes,
               "probe_rounds": m.probe_rounds, "scale": scale,
               "unscaled": figures(walls, probe_walls, m.setup_wall), "setup_samples": m.setup}
    return metrics, details


def per_layer(tracer, records: list[Record], checker: Checker) -> dict[str, float]:
    n = max(1, len(records))
    metrics = {}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = tracer.counts(name) / n
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_ms"] = tracer.self_ms(name) / n
    # from the stored spans, over the commands that build the whole tower report
    counts = tracer.per_command_counts()
    tower = [c for c, r in enumerate(records) if r.kind in ("breaks", "hh") and c in counts]
    levels = sum(records[c].depth for c in tower)
    phi_calls = sum(counts[c].get("hasseherbrand.build_phi", 0) for c in tower)
    metrics["hasseherbrand.build_phi.calls_per_level"] = phi_calls / levels if levels else 0.0
    metrics["valuations.binom_useful_ratio"] = (
        tracer.binom_useful / tracer.binom_calls if tracer.binom_calls else 0.0
    )
    metrics["certificates.checks"] = (
        statistics.mean(checker.certificate_checks) if checker.certificate_checks else 0.0
    )
    metrics["hasseherbrand.max_denominator_bits"] = float(checker.max_denominator_bits)
    metrics["cli.output_bytes"] = sum(r.output_bytes for r in records) / n
    return metrics


PER_LAYER_UNITS = {"calls": "count", "self_ms": "ms", "calls_per_level": "count", "checks": "count",
                   "max_denominator_bits": "bits", "output_bytes": "bytes", "binom_useful_ratio": "ratio"}


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# --- set-up time -----------------------------------------------------------

SETUP_CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, {src!r})
import ramstab.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = ramstab.cli.main({argv!r})
print(json.dumps({{"t": time.monotonic(), "code": code}}))
"""


def setup_once(argv: list) -> float:
    """Fresh interpreter -> ramstab.cli imported and the first command finished, in seconds."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD.format(src=str(SRC), argv=argv)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["code"] != 0:
        raise RuntimeError(f"first command {argv} exited {result['code']} in the set-up child")
    return result["t"] - t0


# --- environment -----------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "commit": commit_id()}


def commit_id() -> str:
    """HEAD of the checkout's own .git, read as files; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- main ------------------------------------------------------------------


def import_cli():
    if not (SRC / "ramstab" / "cli.py").is_file():
        sys.exit(f"bench: no ramstab sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import ramstab.cli

    if Path(ramstab.__file__).resolve().parent != (SRC / "ramstab").resolve():
        sys.exit(f"bench: ramstab was imported from {ramstab.__file__}, not from {SRC}")
    return ramstab.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(cli, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(cli, args, workdir: Path) -> int:
    workload = Workload(args.workload, args.seed, workdir, load_fixtures())
    first = workload.commands[:1]
    deadline = time.monotonic() + args.seconds
    if args.trace:
        # untraced and traced passes alternate, so that the overhead ratio
        # compares passes run side by side
        tracer = spans.Tracer()
        plain, traced = Runner(cli, workload), Runner(cli, workload, tracer)
        plain.run_commands(first)  # warm-up, not counted
        ratios = []
        while True:
            t0 = time.monotonic()
            plain_ns = sum(r.ns for r in plain.run_commands(workload.commands))
            tracer.install()
            try:
                traced_ns = sum(r.ns for r in traced.run_commands(workload.commands))
            finally:
                tracer.restore()
            ratios.append(traced_ns / plain_ns)
            if time.monotonic() + (time.monotonic() - t0) > deadline:
                break
        metrics = per_layer(tracer, traced.records, traced.checker)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        details = {"spans": str(spans_path.relative_to(ROOT)), "traced_passes": len(ratios),
                   "trace_overhead_ratio": statistics.median(ratios), **census(tracer, traced.records)}
        checked = plain.records[1:] + traced.records
    else:
        runner = Runner(cli, workload)
        runner.run_commands(first)  # warm-up, not counted
        m = measure(runner, deadline, first[0].build_argv(workdir))
        metrics, details = end_to_end(m, workload)
        checked = runner.records[1:]

    failures = [f"{r.kind} {r.name}: {r.problem}" for r in checked if r.problem]
    details["failed_frac"] = len(failures) / len(checked)
    details["failures"] = failures[:20]
    report(args, metrics, details, len(checked), len(failures))
    return 0


def census(tracer, records: list[Record]) -> dict:
    """Call counts in the first run of each fixture command, and the largest self times."""
    counts = tracer.per_command_counts()
    fixtures = {}
    for c, rec in enumerate(records):
        key = f"{rec.name} {rec.kind}" + (f" --depth {rec.depth}" if rec.depth else "")
        if rec.fixture and c in counts and key not in fixtures:
            fixtures[key] = {name: counts[c].get(name, 0) for name in CENSUS}
    n = max(1, len(records))
    top = sorted(((tracer.self_ns[nid] / 1e6 / n, name) for nid, name in enumerate(tracer.names)), reverse=True)
    return {"fixture_call_counts": fixtures, "top_self_ms": {name: ms for ms, name in top[:8]}}


def report(args, metrics: dict, details: dict, attempted: int, failed: int) -> None:
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
        "details": details,
        "attempted": attempted, "failed": failed,
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for name, value in metrics.items():
        print(f"{args.workload:15} {name:45} {value:14.6g} {unit_of(name)}")
    print(f"{args.workload:15} {'failed_frac':45} {details['failed_frac']:14.6g} ratio")
    for key in ("latency_tail_percentile", "commands", "passes", "probe_rounds", "scale",
                "traced_passes", "trace_overhead_ratio"):
        if key in details:
            print(f"{args.workload:15} {key:45} {details[key]:14}")
    for key, counts in details.get("fixture_call_counts", {}).items():
        print(f"{args.workload:15} calls in {key}: {counts}")
    for name, ms in details.get("top_self_ms", {}).items():
        print(f"{args.workload:15} self time per command {name:30} {ms:10.4f} ms")
    for line in details["failures"][:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
