"""One benchmark run of a degenflow workload in a fresh interpreter.

    python3 child.py SRC CONFIG OUT RESULT MODE

imports degenflow from SRC, parses CONFIG, and in MODE ``setup`` stops
there.  In MODE ``plain`` or ``traced`` it then runs the CLI command on
CONFIG with output directory OUT, the latter with the span tracer
installed.  RESULT receives a JSON record: the clock reading once the
config is parsed (the parent subtracts its spawn time to get set-up time),
the exit code, the wall time of ``cli.main``, the peak resident memory,
when traced the per-layer metrics, and last the time of a fixed host-speed
probe.
"""

import json
import resource
import sys
import time
from pathlib import Path


def host_speed_probe(rounds=25):
    """Seconds taken by a fixed batch of the work the solvers do: building
    a 2d sparse Laplacian, restricting it to the interior, factoring it with
    SuperLU and reducing the solution with numpy.  It uses no degenflow code,
    so it times the host, not the program."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m = 48
    one = np.ones(m)
    idx = np.arange(1, m * m - 1)
    start = time.perf_counter()
    for _ in range(rounds):
        d = sp.diags_array([-one[:-1], 2.0 * one, -one[:-1]], offsets=[-1, 0, 1])
        k = (sp.kron(d, sp.eye_array(m)) + sp.kron(sp.eye_array(m), d)).tocsr()
        x = spla.splu(k[idx][:, idx].tocsc()).solve(np.ones(len(idx)))
        float(np.sum(np.abs(np.diff(x)) ** 1.5))
    return time.perf_counter() - start


def main(src, config, out, result_path, mode):
    sys.path.insert(0, src)
    from degenflow import cli

    text = Path(config).read_text()
    cfg = cli.parse_config(text)
    record = {"setup_end": time.perf_counter()}

    if mode != "setup":
        tracer = None
        if mode == "traced":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        argv = [cfg.command, "--config", config, "--out", out, "--jobs", "1"]
        start, cpu = time.perf_counter(), time.process_time()
        record["exit"] = cli.main(argv)
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            outcomes = [
                json.loads(p.read_text()) for p in sorted(Path(out).rglob("outcome.json"))
            ]
            record["layers"] = tracing.layer_metrics(tracer, outcomes)

    # after everything timed, so it cannot warm anything the run uses
    record["probe_s"] = host_speed_probe()
    Path(result_path).write_text(json.dumps(record))


if __name__ == "__main__":
    main(*sys.argv[1:])
