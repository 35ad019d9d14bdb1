#!/usr/bin/env python3
"""Per-trace RMSRE under the fluid cross-traffic model against the packet model.

Reads two `tcppred_analyze --trace` JSONL files, one per model, written from
campaigns that differ only in `--cross-model`. For each predictor it pairs
the traces by (path, trace), computes each trace's RMSRE from its `predict`
events (the engine's errors E: sqrt of their mean square), and prints the
per-trace medians under both models, the median of the fluid/packet ratios
and a 95 % percentile-bootstrap interval for that median, resampling the
paired traces with a fixed seed.

    tcppred_campaign --paths 35 --traces 2 --epochs 120 --cross-model packet --out p.csv
    tcppred_campaign --paths 35 --traces 2 --epochs 120 --cross-model fluid --out f.csv
    tcppred_analyze p.csv --predictors fb:pftk,10-MA-LSO --trace p.jsonl
    tcppred_analyze f.csv --predictors fb:pftk,10-MA-LSO --trace f.jsonl
    tools/cross_model_ratio.py p.jsonl f.jsonl
"""

import argparse
import json
import math
import random
import statistics
from collections import defaultdict


def per_trace_rmsre(path):
    """{predictor: {(path, trace): RMSRE}} from one analyze trace."""
    errors = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            ev = json.loads(line)
            if ev.get("ev") == "predict" and ev.get("error") is not None:
                errors[ev["predictor"]][(ev["path"], ev["trace"])].append(ev["error"])
    return {spec: {key: math.sqrt(sum(e * e for e in errs) / len(errs))
                   for key, errs in by_trace.items()}
            for spec, by_trace in errors.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("packet", help="analyze trace of the packet-model campaign")
    p.add_argument("fluid", help="analyze trace of the fluid-model campaign")
    p.add_argument("--resamples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=20040501)
    args = p.parse_args()
    packet, fluid = per_trace_rmsre(args.packet), per_trace_rmsre(args.fluid)
    print("predictor       traces  packet  fluid  fluid/packet [95% CI]")
    for spec in sorted(set(packet) & set(fluid)):
        keys = sorted(set(packet[spec]) & set(fluid[spec]))
        ratios = [fluid[spec][k] / packet[spec][k] for k in keys if packet[spec][k] > 0]
        rng = random.Random(args.seed)
        boot = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                      for _ in range(args.resamples))
        lo = boot[int(0.025 * args.resamples)]
        hi = boot[int(0.975 * args.resamples) - 1]
        print(f"{spec:<15} {len(keys):>6}  {statistics.median(packet[spec][k] for k in keys):.3f}"
              f"  {statistics.median(fluid[spec][k] for k in keys):.3f}"
              f"  {statistics.median(ratios):.3f} [{lo:.3f}, {hi:.3f}]")


if __name__ == "__main__":
    main()
