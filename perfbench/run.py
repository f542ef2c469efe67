"""The repository benchmark: ``repro check`` and ``repro serve`` as users
run them, on seeded workloads, with every verdict checked.

    python3 perfbench/run.py --workload check-oocore --seed 22 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` starts the
same child processes through ``perfbench/tracing.py`` and reports the
per-layer metrics instead.  The last stdout line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before
it name each metric as README.md defines it, plus the host record.  A
full result document is kept under ``.perfbench/results/`` for
``perfbench/compare.py``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import importlib.util
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench")

#: Every child is killed once the run has used this much wall time, so
#: the benchmark itself ends within its 180 s limit.
HARD_LIMIT_S = 170.0
#: A run repeats its set-ups until they have taken this long in all.  On
#: the reference host a set-up of a millisecond or so ran at one of two
#: speeds 1.6x apart, each lasting for seconds, so a median of a few
#: serve set-ups flipped between them from run to run (an interquartile
#: range of 32% of the median over ten runs).
SETUP_SECONDS = 3.0

END_TO_END_UNITS = {"setup_s": "s", "first_verdict_s": "s",
                    "peak_rss_mb": "MB"}


class Run:
    """One benchmark invocation: its work directory, clock and tallies."""

    def __init__(self, spec, seed: int, seconds: float, trace: bool):
        self.started = time.perf_counter()
        self.spec, self.seed = spec, seed
        self.seconds, self.trace = seconds, trace
        self.dir = os.path.join(WORK, f"run-{spec.name}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "tmp"))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (
            os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else "")
        # The engine's throwaway partition directories land here too,
        # so every file the program writes stays inside the checkout.
        self.env["TMPDIR"] = os.path.join(self.dir, "tmp")
        self.attempted = 0
        self.failures: list[str] = []
        self._seq = 0
        #: The subjects (see set_up) and the time each set-up took.
        self.inputs: list[tuple] = []
        self.setup_s: list[float] = []
        self.generate_s: list[float] = []

    def path(self, name: str) -> str:
        self._seq += 1
        return os.path.join(self.dir, f"{self._seq:03d}-{name}")

    def record(self, ok: bool, what: str, errors=()) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {'; '.join(errors) or 'failed'}")
        return ok

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)


# -- child processes ----------------------------------------------------------


class Child:
    """A ``repro`` child whose exit is reaped with its own rusage."""

    def __init__(self, run: Run, args: list[str], name: str,
                 spans: str | None = None, stdout=None):
        if spans is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracing.py"),
                    spans, "--", *args]
        self.stderr_path = run.path(f"{name}.err")
        self._stderr = open(self.stderr_path, "wb")
        self.stdout_path = None
        if stdout is None:
            self.stdout_path = run.path(f"{name}.out")
            stdout = open(self.stdout_path, "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=stdout, stderr=self._stderr,
                                     env=run.env)
        if self.stdout_path is not None:
            stdout.close()
        self.run = run

    def wait(self) -> tuple[int, float, float]:
        """``(exit code, wall seconds, peak RSS MiB)``; kills the child
        when the run's hard limit passes."""
        timer = threading.Timer(max(self.run.remaining(), 0.0),
                                self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            self._stderr.close()
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, wall, usage.ru_maxrss / 1024.0

    def stderr_tail(self) -> str:
        with open(self.stderr_path, errors="replace") as f:
            lines = f.read().strip().splitlines()
        return lines[-1] if lines else ""


# -- set-up -------------------------------------------------------------------


def set_up(run: Run) -> None:
    """Generate and write the run's subjects into ``run.inputs``, each
    ``(directory, sources, seeds, serve edit script or None)``: the
    workload's ``setups`` of them, or one on a traced run.  Then set
    them up again in turn until ``SETUP_SECONDS`` have passed; every
    repeat must give the same subject.

    A set-up time covers generating the subject and its edit script,
    not writing the files: on the reference host, creating the gateway's
    64 small files took from 1 to over 4 ms depending on the file
    system's state, and set the serve workload's figure.
    """
    import workloads

    count = 1 if run.trace else run.spec.setups
    started, k, differ = time.perf_counter(), 0, 0
    while k < count or time.perf_counter() - started < SETUP_SECONDS:
        seed = workloads.subject_seed(run.seed, k % count)
        t0 = time.perf_counter()
        sources, seeds = workloads.generate(run.spec, seed)
        t1 = time.perf_counter()
        script = None
        if run.spec.kind == "serve":
            script = workloads.edit_script(sources, seed)
        run.setup_s.append(time.perf_counter() - t0)
        run.generate_s.append(t1 - t0)
        if k < count:
            directory = run.path("inputs")
            workloads.write_sources(directory, sources)
            # Flush before the next set-up and before the program runs:
            # otherwise later set-ups pay to write back earlier ones,
            # and the program's first fsync waits for the journal to
            # commit the benchmark's own files.
            os.sync()
            run.inputs.append((directory, sources, seeds, script))
        elif run.inputs[k % count][1:] != (sources, seeds, script):
            differ += 1
        k += 1
    run.record(not differ, "repeated set-ups",
               [f"{differ} of {k - count} gave another subject"])


# -- check workloads ----------------------------------------------------------


def one_check(run: Run, path: str, seeds, traced: bool):
    """One fresh ``repro check`` process; returns its figures and the
    verdicts it printed (None when it failed)."""
    import workloads

    spans = run.path("spans.json") if traced else None
    child = Child(run, ["check", path, *run.spec.check_args],
                  "check", spans=spans)
    code, wall, rss = child.wait()
    errors = []
    warnings = None
    if code not in (0, 1):
        errors.append(f"exit {code}: {child.stderr_tail()}")
    else:
        with open(child.stdout_path) as f:
            try:
                warnings = workloads.parse_check_output(f.read())
            except ValueError as exc:
                errors.append(str(exc))
        if warnings is not None:
            errors += workloads.accounting_errors(seeds, warnings)
    ok = run.record(not errors, "traced check" if traced else "check",
                    errors)
    layers = traced_layers(run, spans, "check") if traced and ok else None
    return {"wall": wall, "rss": rss, "warnings": warnings if ok else None,
            "layers": layers}


def traced_layers(run: Run, spans: str, what: str) -> dict | None:
    """Per-layer metrics from a traced child's span file.  A missing
    file, or a wrapper whose target no longer exists, is a failed
    operation: that layer would read 0 and look like a saving."""
    import tracing

    try:
        with open(spans) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        run.record(False, f"traced {what} spans", [str(exc)])
        return None
    if not run.record(not doc["missing"], f"traced {what} spans",
                      [f"no such wrapper target {', '.join(doc['missing'])}"]):
        return None
    return tracing.layer_metrics(doc)


def run_checks(run: Run) -> dict:
    """Fresh ``repro check`` processes, cycling through the subjects,
    while another is expected to end inside the run's window.  Traced
    runs (one subject) pair each check with a traced one."""
    deadline = time.perf_counter() + run.seconds
    plain, traced = [], []
    while True:
        directory, _, seeds, _ = run.inputs[len(plain) % len(run.inputs)]
        path = os.path.join(directory, "subject.mini")
        plain.append(one_check(run, path, seeds, traced=False))
        if run.trace:
            traced.append(one_check(run, path, seeds, traced=True))
            if (traced[-1]["warnings"] is not None
                    and plain[-1]["warnings"] is not None
                    and traced[-1]["warnings"] != plain[-1]["warnings"]):
                run.record(False, "traced check",
                           ["verdicts differ from the untraced check"])
        # Start another check only if it should end inside the window.
        step = sum(c["wall"] for c in plain + traced) / len(plain)
        if time.perf_counter() + step > deadline or run.remaining() < 2 * step:
            break
    walls = [c["wall"] for c in plain]
    return {"walls": walls, "rss": max(c["rss"] for c in plain),
            "traced_walls": [c["wall"] for c in traced],
            "layers": [c["layers"] for c in traced if c["layers"]]}


# -- the serve workload -------------------------------------------------------


class Daemon:
    """``repro serve --socket`` fed by one closed-loop client."""

    def __init__(self, run: Run, workspace: str, traced: bool):
        import workloads

        self.run = run
        # A relative socket path keeps under the AF_UNIX length limit
        # however deep the checkout is.
        self.socket = os.path.relpath(run.path("serve.sock"))
        self.spans = run.path("spans.json") if traced else None
        self.first_line = None
        self._ready = threading.Event()
        self.child = Child(
            run, ["serve", workspace, "--workdir", run.path("workdir"),
                  "--checkers", workloads.PACK_CHECKERS,
                  "--socket", self.socket],
            "serve", spans=self.spans, stdout=subprocess.PIPE)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        """Read the daemon's fragment stream so its pipe never fills;
        the first line is the cold scan's fragment."""
        stream = self.child.proc.stdout
        line = stream.readline()
        self.first_at = time.perf_counter()
        self.first_line = line
        self._ready.set()
        for _ in stream:
            pass

    def cold_fragment(self):
        if not self._ready.wait(max(self.run.remaining(), 0.0)):
            return None, None
        try:
            doc = json.loads(self.first_line)
        except ValueError:
            return None, None
        return doc, self.first_at - self.child.start

    def request(self, payload: dict) -> tuple[dict | None, float]:
        data = (json.dumps(payload) + "\n").encode()
        t0 = time.perf_counter()
        chunks = []
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(max(min(self.run.remaining(), 60.0), 0.1))
                sock.connect(self.socket)
                sock.sendall(data)
                while True:
                    chunk = sock.recv(1 << 20)
                    if not chunk:
                        break
                    chunks.append(chunk)
                    if chunk.endswith(b"\n"):
                        break
        except OSError:
            return None, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        try:
            return json.loads(b"".join(chunks)), elapsed
        except ValueError:
            return None, elapsed

    def wait_socket(self) -> bool:
        """The cold fragment is printed before the socket is bound and
        listening: wait until a connection is accepted (the daemon
        ignores an empty one)."""
        limit = time.perf_counter() + 10.0
        while (time.perf_counter() < limit
               and self.child.proc.poll() is None):
            try:
                with socket.socket(socket.AF_UNIX,
                                   socket.SOCK_STREAM) as sock:
                    sock.connect(self.socket)
                return True
            except OSError:
                time.sleep(0.002)
        return False

    def stop(self) -> tuple[float, float]:
        """Shut the daemon down; ``(wall since start, peak RSS MiB)``."""
        if self.child.proc.poll() is None:
            self.request({"op": "shutdown"})
        _code, wall, rss = self.child.wait()
        self._reader.join(timeout=5.0)
        self.child.proc.stdout.close()
        return wall, rss


def _pairs(warnings) -> collections.Counter:
    return collections.Counter((w["checker"], w["func"]) for w in warnings)


def serve_session(run: Run, workspace: str, seeds, script,
                  traced: bool) -> dict:
    """A fresh daemon: its cold scan, then the scripted edits, each
    followed by a ``report`` read."""
    import workloads

    daemon = Daemon(run, workspace, traced)
    what = "traced serve" if traced else "serve"
    cold, cold_s = daemon.cold_fragment()
    out = {"cold_s": cold_s, "edit_s": [], "query_s": [], "report": None}
    ok = cold is not None and daemon.wait_socket()
    errors = [] if ok else ["no cold-scan fragment or socket"]
    if ok:
        added = cold["edit"]["warnings_added"]
        errors = workloads.accounting_errors(seeds, [
            SimpleNamespace(checker=w["checker"], func=w["func"])
            for w in added])
        expected = _pairs(added)
    run.record(not errors, f"{what} cold scan", errors)
    served = 0
    while ok and served < len(script):
        edit = script[served]
        served += 1
        reply, elapsed = daemon.request(
            {"op": "edit", "path": edit.path, "text": edit.text})
        errors = _edit_errors(reply, edit)
        if run.record(not errors, f"{what} edit {served}", errors):
            out["edit_s"].append(elapsed)
        if edit.added:
            expected[edit.added] += 1
        if edit.retracted:
            expected[edit.retracted] -= 1
        expected = +expected
        reply, elapsed = daemon.request({"op": "report"})
        errors = []
        if reply is None or "warnings" not in reply:
            errors.append(f"bad reply {str(reply)[:200]}")
        elif _pairs(reply["warnings"]) != expected:
            errors.append("report warnings differ from the script")
        if run.record(not errors, f"{what} report {served}", errors):
            out["query_s"].append(elapsed)
            out["report"] = reply
        ok = reply is not None and daemon.child.proc.poll() is None
    out["wall"], out["rss"] = daemon.stop()
    out["edits"] = served
    if daemon.spans is not None:
        out["layers"] = traced_layers(run, daemon.spans, "serve")
    return out


def _edit_errors(reply, edit) -> list[str]:
    if reply is None or "edit" not in reply:
        return [f"bad reply {str(reply)[:200]}"]
    frag = reply["edit"]
    errors = []
    if frag.get("strata_rechecked") != 1:
        errors.append(f"strata_rechecked {frag.get('strata_rechecked')}")
    if frag.get("errors"):
        errors.append(f"errors {frag['errors']}")
    added = [(w["checker"], w["func"]) for w in frag["warnings_added"]]
    retracted = [(w["checker"], w["func"])
                 for w in frag["warnings_retracted"]]
    if added != ([edit.added] if edit.added else []):
        errors.append(f"added {added}, expected {edit.added or []}")
    if retracted != ([edit.retracted] if edit.retracted else []):
        errors.append(f"retracted {retracted},"
                      f" expected {edit.retracted or []}")
    return errors


def from_scratch(run: Run, workspace: str) -> list[tuple]:
    """Warning identities of a from-scratch Grapple run over the final
    sources (in this process, after the daemon ended)."""
    import tempfile

    import workloads
    from repro.analysis.pipeline import Grapple
    from repro.checkers.checker import Checker

    sources = {}
    for name in sorted(os.listdir(workspace)):
        if name.endswith(".mini"):
            with open(os.path.join(workspace, name)) as f:
                sources[name] = f.read()
    fsms = [Checker.by_name(n).fsm
            for n in workloads.PACK_CHECKERS.split(",")]
    saved, tempfile.tempdir = tempfile.tempdir, run.env["TMPDIR"]
    try:
        scratch = Grapple(sources, fsms).run()
    finally:
        tempfile.tempdir = saved
    return sorted((w.checker, w.kind, w.site, w.type_name, w.state, w.func,
                   w.line) for w in scratch.report.warnings)


def run_serve(run: Run) -> dict:
    """Sessions over the run's subjects while another is expected to end
    inside the window; the last session's final report is checked
    against a from-scratch run.  Traced runs serve their one subject's
    script untraced, then traced on a fresh copy of its workspace."""
    import workloads

    if run.trace:
        directory, sources, seeds, script = run.inputs[0]
        copy = run.path("workspace")
        workloads.write_sources(copy, sources)
        os.sync()
        sessions = [serve_session(run, path, seeds, script, traced)
                    for path, traced in ((directory, False), (copy, True))]
    else:
        deadline = time.perf_counter() + run.seconds
        sessions = []
        while True:
            directory, _, seeds, script = run.inputs[len(sessions)]
            sessions.append(serve_session(run, directory, seeds, script,
                                          False))
            step = statistics.fmean(s["wall"] for s in sessions)
            if (time.perf_counter() + step > deadline
                    or run.remaining() < 2 * step
                    or len(sessions) == len(run.inputs)):
                break
    want = from_scratch(run, directory)
    for session in sessions[-2 if run.trace else -1:]:
        report = session["report"]
        got = None if report is None else sorted(
            (w["checker"], w["kind"], w["site"], w["type_name"], w["state"],
             w["func"], w["line"]) for w in report["warnings"])
        run.record(got == want, "final report against a from-scratch run",
                   [f"{len(got or ())} warnings, from scratch {len(want)}"])
    return {
        "cold_s": [s["cold_s"] for s in sessions if s["cold_s"]],
        "edit_s": [t for s in sessions for t in s["edit_s"]],
        "query_s": [t for s in sessions for t in s["query_s"]],
        "rss": max(s["rss"] for s in sessions),
        "layers": sessions[-1].get("layers"),
        "traced_wall": sessions[-1]["wall"],
        "untraced_wall": sessions[0]["wall"],
    }


# -- metrics ------------------------------------------------------------------


def p90(values) -> float:
    """The 90th percentile, inclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def host_record() -> dict:
    """What makes two results comparable: CPUs, Python, numpy, and the
    file system (type and mount options) of the work directory."""
    fs_type, options, best = "unknown", "unknown", ""
    work = os.path.realpath(WORK)
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 4:
                    continue
                point = fields[1].replace("\\040", " ")
                inside = work == point or work.startswith(
                    point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, fs_type, options = point, fields[2], fields[3]
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "fs_type": fs_type,
        "mount_options": options,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the subject's own)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = spec.default_seed if args.seed is None else args.seed
    run = Run(spec, seed, args.seconds, bool(args.trace))
    try:
        set_up(run)
        if spec.kind == "check":
            result = run_checks(run)
        else:
            result = run_serve(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        os.sync()  # nor the next run's fsyncs for this run's deletions

    _, sources, seeds, _ = run.inputs[0]
    lines = [f"workload {spec.name}  seed {seed}"
             f"  {len(run.inputs)} subject(s) of {len(sources)} file(s) and"
             f" {workloads.accounting_summary(seeds)} seeded each"]
    # The metrics under the names they were specified with, of which
    # BENCHMARK.json gates the ones every workload has (README.md).
    printed = {"setup_s": (statistics.median(run.setup_s), "s")}
    if spec.kind == "check":
        walls = result["walls"]
        lines.append(f"{len(walls)} check process(es),"
                     f" walls {[round(w, 3) for w in walls]}")
        printed["check_s"] = (statistics.median(walls), "s")
        first_verdict = printed["check_s"][0]
    else:
        colds = result["cold_s"] or [0.0]
        edits = result["edit_s"] or [0.0]
        edit_p90 = p90(edits)
        lines.append(f"{len(colds)} session(s), cold scans"
                     f" {[round(c, 3) for c in colds]}; {len(edits)} edit(s)"
                     f" and {len(result['query_s'])} report read(s),"
                     f" {sum(e > edit_p90 for e in edits)} edit(s) beyond"
                     f" the p90")
        printed.update(cold_scan_s=(statistics.median(colds), "s"),
                       edit_p50_s=(statistics.median(edits), "s"),
                       edit_p90_s=(edit_p90, "s"),
                       query_p50_s=(statistics.median(result["query_s"]
                                                      or [0.0]), "s"))
        first_verdict = printed["cold_scan_s"][0]
    printed["peak_rss_mb"] = (result["rss"], "MB")
    printed["failed_ratio"] = (len(run.failures) / max(run.attempted, 1),
                               "ratio")
    e2e = {"setup_s": printed["setup_s"][0],
           "first_verdict_s": first_verdict, "peak_rss_mb": result["rss"]}

    if run.trace:
        units = tracing.metric_units()
        if spec.kind == "check":
            # Counters repeat exactly from check to check, so they come
            # from the first traced check; times are the traced mean.
            samples = result["layers"]
            layers = dict(samples[0]) if samples else {}
            for key, unit in units.items():
                if unit == "s" and samples:
                    layers[key] = statistics.fmean(s.get(key, 0.0)
                                                   for s in samples)
            overhead = (statistics.median(result["traced_walls"])
                        - statistics.median(result["walls"])
                        if result["traced_walls"] else 0.0)
        else:
            layers = dict(result["layers"] or {})
            overhead = result["traced_wall"] - result["untraced_wall"]
        layers["workloads.generate_s"] = statistics.median(run.generate_s)
        layers["trace_overhead_s"] = overhead
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}

    for name, (value, unit) in printed.items():
        lines.append(f"{name:<14} {value:.6g} {unit}")
    host = host_record()
    lines.append("host " + json.dumps(host, sort_keys=True))
    for failure in run.failures[:20]:
        lines.append(f"FAILED {failure}")
    doc = {"workload": spec.name, "seed": seed, "seconds": args.seconds,
           "trace": args.trace, "host": host,
           "metrics": {k: m["value"] for k, m in metrics.items()},
           "reported": {k: v for k, (v, _) in printed.items()},
           "attempted": run.attempted, "failures": run.failures,
           "samples": {"setup_s": run.setup_s, **{
               k: v for k, v in result.items()
               if k in ("walls", "traced_walls", "edit_s", "query_s",
                        "cold_s")}}}
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{spec.name}-seed{seed}-trace{args.trace}"
                                f"-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    lines.append(f"result document {os.path.relpath(out)}")
    print("\n".join(lines))
    print(json.dumps({"correct": not run.failures,
                      "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
