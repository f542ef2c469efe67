"""Seeded workload inputs and their ground truth.

Every input the program sees is generated here from ``--seed`` through
``dataclasses.replace(profile, seed=...)`` on the program's own subject
profiles; the program receives only the files written to disk.  The
seeds the generator planted are the ground truth every verdict is
checked against.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import re

from repro.workloads.bugs import classify_report
from repro.workloads.generator import generate_subject
from repro.workloads.multifile import (
    MULTIFILE_PROFILES,
    generate_multifile_subject,
)
from repro.workloads.subjects import SUBJECT_PROFILES

#: The property packs ``repro serve`` runs on the gateway workspace.
PACK_CHECKERS = "taint,order,iterator,lockdep"


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """How one workload drives the program (see README.md for why)."""

    name: str
    kind: str  # "check" | "serve"
    subject: str
    scale: float
    #: Extra ``repro check`` arguments; defaults everywhere else.
    check_args: tuple = ()
    default_seed: int = 0
    #: Set-ups per untraced run, each of its own subject
    #: (:func:`subject_seed`): check runs cycle through them, and each
    #: serve session gets its own.  A traced run sets up only the first.
    setups: int = 3


WORKLOADS = {
    "check-oocore": WorkloadSpec(
        "check-oocore", "check", "hadoop", 4.0,
        check_args=("--memory-budget", "0.25"),
        default_seed=SUBJECT_PROFILES["hadoop"].seed, setups=3,
    ),
    "check-resident": WorkloadSpec(
        "check-resident", "check", "hbase", 1.0,
        default_seed=SUBJECT_PROFILES["hbase"].seed, setups=7,
    ),
    "serve-edits": WorkloadSpec(
        "serve-edits", "serve", "gateway", 8.0,
        default_seed=MULTIFILE_PROFILES["gateway"].seed, setups=9,
    ),
}


def subject_seed(seed: int, k: int) -> int:
    """Generator seed of a run's ``k``-th subject; the first is ``seed``.

    Check cost differs by up to a quarter from one subject to the next
    (at a tight budget the partition-load count is sensitive to the
    program's shape), so a run times several subjects rather than one.
    """
    return seed + 1_000_000 * k


# -- generation -----------------------------------------------------------


def generate(spec: WorkloadSpec, seed: int):
    """The seeded subject: ``(sources {relpath: text}, seeds)``.

    A single-file subject is one ``subject.mini`` (``repro check`` takes
    the legacy single-source path); the gateway is one file per module.
    """
    if spec.kind == "check":
        profile = SUBJECT_PROFILES[spec.subject]
        profile = dataclasses.replace(
            profile, seed=seed,
            target_loc=max(200, int(profile.target_loc * spec.scale)),
        )
        subject = generate_subject(profile)
        return {"subject.mini": subject.source}, subject.seeds
    profile = dataclasses.replace(MULTIFILE_PROFILES[spec.subject], seed=seed)
    subject = generate_multifile_subject(profile, scale=spec.scale)
    return dict(subject.sources), subject.seeds


def write_sources(directory: str, sources: dict) -> None:
    os.makedirs(directory)
    for path, text in sorted(sources.items()):
        with open(os.path.join(directory, path), "w") as f:
            f.write(text)


# -- verdict checking -----------------------------------------------------

_WARNING = re.compile(
    r"^\[(?P<checker>[\w-]+)\] (?P<type_name>\S+) allocated in (?P<func>\S+)"
    r" \(line (?P<line>\d+), site (?P<site>\d+)\) can reach"
    r" (?:program exit in state '(?P<exit_state>[^']*)'"
    r"|error state '(?P<error_state>[^']*)')"
)


@dataclasses.dataclass(frozen=True)
class ParsedWarning:
    checker: str
    func: str
    kind: str
    type_name: str
    state: str
    line: int
    site: int


def parse_check_output(text: str) -> list[ParsedWarning]:
    """Warnings from ``repro check`` stdout; raises ValueError when the
    output does not hold exactly the number of warnings it announces."""
    lines = text.splitlines()
    if not lines or not lines[0].endswith(" warning(s)"):
        raise ValueError("no warning count line in check output")
    announced = int(lines[0].split()[0])
    out = []
    for line in lines[1:]:
        m = _WARNING.match(line)
        if m is None:
            continue
        at_exit = m["exit_state"] is not None
        out.append(ParsedWarning(
            checker=m["checker"], func=m["func"],
            kind="at-exit" if at_exit else "error-transition",
            type_name=m["type_name"],
            state=m["exit_state"] if at_exit else m["error_state"],
            line=int(m["line"]), site=int(m["site"]),
        ))
    if len(out) != announced:
        raise ValueError(
            f"check announced {announced} warnings, printed {len(out)}"
        )
    return out


@dataclasses.dataclass
class _Report:
    warnings: list


def accounting_errors(seeds, warnings) -> list[str]:
    """Exact per-checker TP/FP accounting of ``warnings`` (anything with
    ``checker`` and ``func``) against the planted ``seeds``: every seed
    reported, nothing reported at unseeded code.  Empty means exact."""
    outcome = classify_report(seeds, _Report(list(warnings)))
    want_tp, want_fp = collections.Counter(), collections.Counter()
    for seed in {(s.checker, s.func): s for s in seeds}.values():
        (want_tp if seed.expectation == "tp" else want_fp)[seed.checker] += 1
    errors = []
    for checker in sorted(set(want_tp) | set(want_fp) | set(outcome.tp)
                          | set(outcome.fp)):
        got = (outcome.tp.get(checker, 0), outcome.fp.get(checker, 0))
        want = (want_tp[checker], want_fp[checker])
        if got != want:
            errors.append(f"{checker}: TP/FP {got[0]}/{got[1]},"
                          f" expected {want[0]}/{want[1]}")
    for checker, n in sorted(outcome.missed.items()):
        errors.append(f"{checker}: {n} seeded bug(s) missed")
    for w in outcome.unexpected[:5]:
        errors.append(f"unexpected warning [{w.checker}] in {w.func}")
    if len(outcome.unexpected) > 5:
        errors.append(f"... {len(outcome.unexpected) - 5} more unexpected")
    return errors


def accounting_summary(seeds) -> str:
    tp = len({(s.checker, s.func) for s in seeds if s.expectation == "tp"})
    fp = len({(s.checker, s.func) for s in seeds if s.expectation == "fp"})
    return f"{tp} TP + {fp} FP"


# -- the serve edit script ------------------------------------------------

#: Single-file bug bodies, one per property pack; each makes exactly one
#: warning at ``<module>.bench_bug<i>`` wherever it is appended.
BUG_BODIES = {
    "lockdep": "    var m = new Monitor();\n    m.acquire();\n"
               "    m.wait();\n    m.release();\n",
    "taint": "    var t = new UserInput();\n    t.exec();\n",
    "order": "    var h = new Handle();\n    h.use();\n    h.dispose();\n",
    "iterator": "    var it = new Cursor();\n    it.next();\n"
                "    it.invalidate();\n    it.next();\n",
}

_MODULE = re.compile(r"^module (\w+);", re.M)


@dataclasses.dataclass
class Edit:
    path: str
    text: str
    #: (checker, func) the fragment must add / retract (at most one).
    added: tuple = ()
    retracted: tuple = ()


def edit_script(sources: dict, seed: int) -> list[Edit]:
    """The four single-file edits of one serve session on a gateway
    workspace: a clean function append, a seeded bug appended in the
    next cluster, a clean append in the cluster after, and the bug's
    revert.  The bug's warning is thus added and then retracted, and
    consecutive edits never touch the same stratum.  The files and the
    bug's property pack are drawn from ``seed``.
    """
    import random

    rng = random.Random(seed)
    texts = dict(sources)
    clusters = sorted({p[: p.index("core.mini")] for p in sources
                       if p.endswith("core.mini")})
    by_cluster = {c: sorted(p for p in sources if p.startswith(c)
                            and p[len(c):len(c) + 1].isalpha())
                  for c in clusters}

    def pick(i: int) -> str:
        return rng.choice(by_cluster[clusters[i % len(clusters)]])

    def pad(i: int) -> Edit:
        path = pick(i)
        texts[path] += (f"func bench_pad{i}(v) {{\n"
                        f"    return v + {rng.randint(1, 9)};\n}}\n")
        return Edit(path, texts[path])

    script = [pad(0)]
    path = pick(1)
    checker = rng.choice(sorted(BUG_BODIES))
    chunk = f"func bench_bug1(x) {{\n{BUG_BODIES[checker]}    return;\n}}\n"
    key = (checker, f"{_MODULE.search(texts[path]).group(1)}.bench_bug1")
    texts[path] += chunk
    script.append(Edit(path, texts[path], added=key))
    script.append(pad(2))
    texts[path] = texts[path].replace(chunk, "", 1)
    script.append(Edit(path, texts[path], retracted=key))
    return script
