"""Run one pipeline stage in a fresh interpreter and report how it went.

Usage: python3 bench/stage.py REQUEST.json

The request names the stage and either the `opcert` command line for it
or, for `generate`, the datasets to draw. The stage writes a JSON result
to the path the request gives: import time, stage wall time, exit code,
captured stdout, warning counts, peak RSS and, when traced, the span
summary. Warnings are counted, not printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
import warnings

# warning text -> counter name; anything else counts as "other_warnings"
WARNING_COUNTERS = (
    ("exceeds the stability bound", "datagen.unstable_step_warnings"),
    ("infinite conformal parameters", "gp.excluded_infinite_warnings"),
    ("variance clipped", "gp.variance_clipped_warnings"),
    ("zero spread", "conformal.zero_spread_warnings"),
)


def generate(datasets, seed, counters):
    """Draw every split one sample at a time; a SolverError drops the sample.

    Streams are addressed as `make_dataset` does (split base + index under
    SeededRng(seed, 0)), so a split holds the same samples it would there.
    Returns the names of the dropped samples, such as "calibration[6]".
    """
    import numpy as np
    from opcert import datagen as dg
    from opcert.core import GridSpec, SeededRng

    rng = SeededRng(seed, 0)
    attempted, failed = 0, []
    for spec in datasets:
        if spec["kind"] == "burgers":
            config = dg.BurgersConfig(**spec["config"])
            grid = GridSpec((config.output_resolution,))
            sampler = dg.generate_burgers_sample
        else:
            config = dg.DarcyConfig(**spec["config"])
            grid = GridSpec((config.resolution, config.resolution))
            sampler = dg.generate_darcy_sample
        for split, count in spec["splits"].items():
            ins, outs = [], []
            for i in range(count):
                attempted += 1
                try:
                    u, y = sampler(rng.substream(dg.SPLIT_STREAM_BASE[split] + i), config)
                except dg.SolverError:
                    failed.append(f"{split}[{i}]")
                    continue
                ins.append(u)
                outs.append(y)
            dg.write_dataset(f"{spec['out']}/{split}.opdata", spec["kind"], grid,
                             np.stack(ins), np.stack(outs))
    counters["datagen.samples_attempted"] = attempted
    counters["datagen.solver_failures"] = len(failed)
    return failed


def main(request_path):
    with open(request_path) as fh:
        request = json.load(fh)
    start = time.perf_counter()
    import opcert.cli as cli

    import_s = time.perf_counter() - start
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    stage = request["stage"]
    counters = {}
    out = io.StringIO()
    error, failed_samples = None, []
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        span = tracer.begin(f"cli.{stage}") if tracer else None
        start = time.perf_counter()
        try:
            if stage == "generate":
                failed_samples = generate(request["datasets"], request["seed"], counters)
                code = 0
            else:
                code = cli.main(request["argv"])
        except Exception:  # reported as a failed stage, not a crash of the runner
            code, error = 1, traceback.format_exc()
        stage_s = time.perf_counter() - start
        if tracer:
            tracer.end(span)
    for w in caught:
        text = str(w.message)
        name = next((c for key, c in WARNING_COUNTERS if key in text), "other_warnings")
        counters[name] = counters.get(name, 0) + 1
    result = {
        "stage": stage,
        "exit_code": code,
        "error": error,
        "import_s": import_s,
        "stage_s": stage_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stdout": out.getvalue(),
        "counters": counters,
        "failed_samples": failed_samples,
    }
    if tracer:
        tracer.uninstall()
        result["counters"].update(tracer.counters)
        result["layers"] = tracer.summary()
        result["wavelet_share_of_train"] = tracer.share_within(
            "neuralop.train", ("autodiff.dwt", "autodiff.idwt")
        )
        result["spans"] = tracer.spans
    with open(request["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
