#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload smallbank --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is built from source with dune (the shared dune cache is
turned off, so the build stays inside the checkout) and then run as one
single-threaded process. The last line of stdout is the JSON result; build
output and progress go to stderr. The exit code is the benchmark's: 0 when
every output check passed, nonzero otherwise.

--selftest checks the benchmark itself: the output checks catch tampered
outputs, every metric name is well formed and matches BENCHMARK.json, and a
fixed seed reproduces the deterministic metrics.
"""

import json
import os
import re
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = os.path.join("_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Fixed for a seed: sim_tps and commit_ratio come from simulated time, and
# words_per_commit from allocation counts on one domain. The allocation
# count of sibench was seen to differ by up to 4e-4 between identical runs,
# so words_per_commit is held to a relative tolerance.
TOLERANCE = {"sim_tps": 0.0, "commit_ratio": 0.0, "words_per_commit": 1e-3}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "core"))):
        die("the engine sources (dune-project, lib/) are not here; run from the repository root")
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        die("build failed")
    os.makedirs(OUT_DIR, exist_ok=True)


def run(args, capture=False):
    # runtime_events puts its ring file in RUNTIME_EVENTS_DIR (traced runs)
    env = dict(os.environ, RUNTIME_EVENTS_DIR=OUT_DIR)
    try:
        return subprocess.run(
            [EXE] + args + ["--out-dir", OUT_DIR],
            env=env,
            timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None,
            text=True,
        )
    except subprocess.TimeoutExpired:
        die("benchmark run timed out")


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(what, cond):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    expect("output checks catch tampered outputs", run(["--selftest"]).returncode == 0)
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            expect("metric name %r is well formed" % m["name"], bool(NAME.match(m["name"])))
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "7", "--seconds", "1"]
        a = result_of(run(base + ["--trace", "0"], capture=True))
        b = result_of(run(base + ["--trace", "0"], capture=True))
        t = result_of(run(base + ["--trace", "1"], capture=True))
        expect(name + ": runs pass their checks", all(r and r["correct"] for r in (a, b, t)))
        if not (a and b and t):
            continue
        for kind, r in (("end_to_end", a), ("per_layer", t)):
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect("%s: %s metrics and units match BENCHMARK.json" % (name, kind), want == got)
        for m, tol in TOLERANCE.items():
            va, vb = a["metrics"][m]["value"], b["metrics"][m]["value"]
            expect(
                "%s: seed 7 reproduces %s (%r, %r)" % (name, m, va, vb),
                abs(va - vb) <= tol * abs(va),
            )
        expect(name + ": attempted/failed reproduce", (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]))
    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


def main():
    build()
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    return run(sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
