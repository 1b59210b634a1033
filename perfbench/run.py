"""Scout end-to-end benchmark: one workload per run.

    python3 perfbench/run.py --workload udp_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it is the run's record (machine, commit, ``REPRO_*`` settings, tail
percentile, set-up samples).  Both also land in ``perfbench/out/``.
Exit status: 0 when every correctness check passed, 1 when one failed
(the checks are named on standard error), 2 when the program source is
missing or the arguments are wrong.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload briefly and check the "
                             "output and the correctness gates")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.selftest:
        import selftest
        return selftest.main()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.print_usage(sys.stderr)
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    import harness
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
