#!/usr/bin/env python3
"""Reproduce the reference detection experiments end to end.

Runs the full pipeline on the shipped default configuration:

  1. robust filter design (8 relaxation LPs, 4 solved and 4 mirrored;
     report + coefficients), solved once: the later steps repeat its
     inputs and reuse it in this process
  2. worst-case attack coefficients for the designed filter
  3. scenario 1: basic (inconsistent) attack, noise-free
  4. scenario 2: stealthy worst-case attack, sensor-grade noise
  5. per-panel plot CSVs for both scenarios
  6. pole sweep, stealthy scenario

Everything lands under out/experiments/ (override with --out).
"""

import argparse
import json
import os
import sys

from agcdiag.cli import main as agcdiag_main

SCENARIO_COMMON = [
    "--set", "scenario.horizon_s=60.0",
    "--set", "scenario.onset_s=30.0",
    "--set", "scenario.seed=1",
]


def run(label, args):
    print(f"--- {label}: agcdiag {' '.join(args)}")
    code = agcdiag_main(args)
    if code != 0:
        print(f"step '{label}' failed with exit code {code}", file=sys.stderr)
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join("out", "experiments"))
    opts = parser.parse_args()
    os.environ["AGCDIAG_OUTDIR"] = opts.out
    os.makedirs(opts.out, exist_ok=True)

    run("design", ["design"])
    run("worst-case attack", ["attack"])

    with open(os.path.join(opts.out, "attack.json")) as fh:
        attack = json.load(fh)
    basic_f = list(attack["f"])
    # zero the second vulnerable channel: totals no longer match components,
    # so the static detector fires too
    basic_f[1] = 0.0

    scenario1 = os.path.join(opts.out, "scenario1_basic")
    os.environ["AGCDIAG_OUTDIR"] = scenario1
    run("scenario 1 simulate",
        ["--set", "attack.mode=raw",
         "--set", f"attack.raw_f={json.dumps(basic_f)}",
         "--set", "scenario.process_noise=null",
         "--set", "scenario.measurement_noise=null",
         *SCENARIO_COMMON, "simulate"])
    run("scenario 1 report", ["report", "--trace",
                              os.path.join(scenario1, "trace.csv")])

    scenario2 = os.path.join(opts.out, "scenario2_stealthy")
    os.environ["AGCDIAG_OUTDIR"] = scenario2
    run("scenario 2 simulate",
        ["--set", "attack.mode=worst-case", *SCENARIO_COMMON, "simulate"])
    run("scenario 2 report", ["report", "--trace",
                              os.path.join(scenario2, "trace.csv")])

    sweep = os.path.join(opts.out, "pole_sweep")
    os.environ["AGCDIAG_OUTDIR"] = sweep
    run("pole sweep", ["--set", "attack.mode=worst-case", *SCENARIO_COMMON,
                       "sweep-pole"])

    print(f"\nall artifacts under {opts.out}")


if __name__ == "__main__":
    main()
