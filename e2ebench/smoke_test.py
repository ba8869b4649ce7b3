#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at reduced shapes.

Run from the repository root:  python3 e2ebench/smoke_test.py

For every workload in BENCHMARK.json it runs a fixed number of chunks at
the reduced shape (--small --chunks), untraced and traced, and asserts
that the output checks pass, that the JSON result carries exactly the
metrics BENCHMARK.json names with their units, and that every printed
metric line has a unit. It then repeats the traced run with the same seed
and asserts that the deterministic counts (events, frames, controls,
flagged, probes, allocs, ...) repeat exactly. Exits non-zero on failure.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRIC_LINE = re.compile(r"^\[(metric|e2e|layer)\] (\S+)\s+(\S+) (\S+)$")
COUNT_LINE = re.compile(r"^\[count\] (\S+)\s+(\d+)$")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--small", "--chunks", "4"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    return p.returncode, p.stdout, p.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
            print("FAIL", what)

    for wl in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace, seed in ((0, 7), (1, 7), (1, 7)):
            rc, out, err = run(wl, seed, trace)
            tag = f"{wl} trace={trace}"
            expect(rc == 0, f"{tag}: exit code {rc}\n{err[-2000:]}")
            lines = out.strip().splitlines()
            if not lines:
                expect(False, f"{tag}: no output")
                continue
            result = json.loads(lines[-1])
            expect(result["correct"] is True, f"{tag}: output checks failed")
            expect(result["attempted"] >= 1, f"{tag}: nothing attempted")
            want = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            expect(sorted(got) == sorted(m["name"] for m in want),
                   f"{tag}: metric names {sorted(got)}")
            for m in want:
                v = got.get(m["name"], {})
                expect(v.get("unit") == m["unit"],
                       f"{tag}: {m['name']} unit {v.get('unit')}")
                expect(isinstance(v.get("value"), (int, float)),
                       f"{tag}: {m['name']} value")
            printed = [METRIC_LINE.match(l) for l in lines
                       if l.startswith(("[metric]", "[e2e]", "[layer]"))]
            expect(printed and all(printed),
                   f"{tag}: a printed metric line lacks a unit")
            expect(any(l.startswith("host {") for l in lines),
                   f"{tag}: no host block")
            if trace:
                counts.append([COUNT_LINE.match(l).groups() for l in lines
                               if COUNT_LINE.match(l)])
        expect(len(counts) == 2 and counts[0] == counts[1] and counts[0],
               f"{wl}: counts differ between same-seed runs: {counts}")
        print(f"{wl}: ok" if not failures else f"{wl}: done")
    print("smoke test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
