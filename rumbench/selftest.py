#!/usr/bin/env python3
"""Shows that every check of the benchmark can fail.

    python3 rumbench/selftest.py

Run it from the root of a checkout. First each workload runs clean (traced,
so every check is made) and must pass. Then each case breaks one check on
purpose -- a corrupted expected value, or a tracing wrapper that loses a
call -- and the run must exit non-zero, naming that check on stderr.
Runs are one second long. Exits 0 when every case behaved.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

BTREE = "btree-hot-reads"
INGEST = "lsm-ingest-uncached"
SCAN = "lsm-scan-compressed"

# (injection, workload, trace, the check that must fail)
CASES = [
    ("oracle-get", BTREE, "0", "oracle-get"),
    ("oracle-multiget", BTREE, "0", "oracle-multiget"),
    ("oracle-scan", SCAN, "0", "oracle-scan"),
    ("oracle-size", INGEST, "0", "oracle-size"),
    ("device-reads", INGEST, "0", "device-reads"),
    ("cache-bytes", BTREE, "0", "cache-bytes"),
    ("thread-io", SCAN, "0", "thread-io"),
    ("ledger", BTREE, "0", "ledger"),
    ("bloom", INGEST, "0", "bloom"),
    ("cache-calls", BTREE, "1", "cache-calls"),
    ("device-wrapper", INGEST, "1", "device-reads"),
    ("trace-parity", SCAN, "1", "trace-parity"),
    ("repeat", INGEST, "0", "repeat"),
]


def run(workload, trace, inject=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", trace]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


def main():
    bad = 0
    for workload in (BTREE, INGEST, SCAN):
        proc = run(workload, "1")
        ok = proc.returncode == 0
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} clean {workload}: exit "
              f"{proc.returncode}")
    for inject, workload, trace, check in CASES:
        proc = run(workload, trace, inject)
        named = f"check failed: {check}:" in proc.stderr
        ok = proc.returncode != 0 and named
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {inject} on {workload}: exit "
              f"{proc.returncode}, {check} {'named' if named else 'not named'}")
    print(f"{len(CASES) + 3 - bad}/{len(CASES) + 3} cases behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
