#!/usr/bin/env python3
"""The repository benchmark: open-loop BG SoAR and action latency.

One run builds a workload's deployment (``workloads.py``), drives it with
the open-loop driver (``driver.py``) and prints every metric by name and
unit.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that wraps every layer's public
entry points (``layers.py``) and reports the per-layer ledger.  A run
fails -- exits non-zero, naming workload and seed -- on an unpredictable
read, an action neither completed nor failed, or a cache server that did
not drain and exit 0.

Usage::

    python3 perfbench/run.py --workload readhot-wire --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --list
    python3 perfbench/run.py --only '*-wire' --dry-run
    python3 perfbench/run.py --self-test

Without ``--workload``, every workload selected by ``--only`` (default:
all) runs in turn.  Full results, provenance and span files go to
``perfbench/out/``.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Open-loop BG benchmark of the CASQL stack.")
    parser.add_argument("--workload", help="run exactly this workload")
    parser.add_argument("--only", default="*",
                        help="glob or comma list of workloads (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="list workloads and exit")
    parser.add_argument("--dry-run", action="store_true",
                        help="show what would run without running")
    parser.add_argument("--self-test", action="store_true",
                        help="run the driver and ledger self-tests")
    return parser.parse_args(argv)



def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: program sources not found at {}".format(SRC),
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.self_test:
        import selftest

        return selftest.main()
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
