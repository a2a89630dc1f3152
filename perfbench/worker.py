"""One benchmark pass (or one set-up probe) in a fresh process.

Run by ``run.py``; prints one JSON object as its last line of output::

    python3 perfbench/worker.py --workload hard4 --seed 1987 --mode pass --trace 0 --tmp .perfbench

``--mode setup`` stops after set-up, so ``run.py`` can measure set-up time
several times per run.  The process starts cold: the lowering cache and, for
``store_mix``, the store are empty.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv, start: float) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "setup"), default="pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    # Imported here, not at the top: set-up time includes importing repro.
    import workloads
    from repro.api import executor_stats
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, tracer, args.tmp)
    try:
        workload.setup()
        setup_s = time.perf_counter() - start
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run_pass = workloads.Pass(tracer)
        stats_before = executor_stats()
        workload.run(run_pass)
        stats_after = executor_stats()
        store = workload.store_counts()
    finally:
        workload.teardown()

    wall_s = sum(run_pass.latencies)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": run_pass.latencies,
        "attempted": run_pass.attempted,
        "failed": run_pass.failed,
        "errors": run_pass.errors,
        "detected": run_pass.detected,
        "faults": run_pass.faults,
        "opt_lengths": run_pass.opt_lengths,
        "digest": run_pass.digest.hexdigest(),
        "backend": workloads.backend_name(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        timed = tracer.select(phases=("timed",))
        result["layers"] = workloads.layer_metrics(
            tracer, run_pass, wall_s, stats_before, stats_after, store
        )
        result["timed_self_s"] = tracer.self_by_layer(phases=("timed",))
        result["stage_s"] = {
            stage: sum(tracer.total(name, phases=("timed",)) for name in names)
            for stage, names in workloads.STAGE_SPANS.items()
        }
        result["span_self_sum_s"] = sum(span.self_time for span in timed)
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], time.perf_counter()))
