"""One benchmark round in a fresh process (started by run.py).

Reads a JSON spec on stdin and prints one JSON result line.  The round
imports cdu, builds every listed field cold (the set-up), then runs each
operation through cdu.cli.main with stdout captured (the wall time).  With
"trace" set it installs the span wrappers after the import and adds the
per-layer metrics: "module" wraps the module-level functions, "full" the
FieldContext vector methods as well.  With "probe" set it runs the layer
probe instead of operations.
"""

import contextlib
import io
import json
import resource
import sys
import time


def _context_mib() -> float:
    """Bytes held in numpy arrays by every cached field context."""
    import numpy as np
    from cdu import field

    total = 0
    for ctx in field._FIELD_CACHE.values():
        for val in vars(ctx).values():
            if isinstance(val, dict):
                val = list(val.values())
            if not isinstance(val, (list, tuple)):
                val = [val]
            total += sum(v.nbytes for v in val if isinstance(v, np.ndarray))
    return total / 2 ** 20


def _peak_rss_mib() -> float:
    """Peak resident memory of this process's own address space.

    On Linux, getrusage's ru_maxrss also counts the parent's peak, which
    the process inherits across fork and exec; VmHWM does not.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_s() -> float:
    """User plus system CPU time of this process so far."""
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def main() -> int:
    spec = json.load(sys.stdin)
    c0 = _cpu_s()
    t0 = time.perf_counter()
    import cdu.cli
    import cdu.field

    tracer, install_s = None, 0.0
    if spec["trace"]:
        t1 = time.perf_counter()
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(vector=spec["trace"] == "full")
        install_s = time.perf_counter() - t1
    for p, n in spec["fields"]:
        cdu.field.make_field(p, n)  # looked up after install, so traced runs get its span
    setup = time.perf_counter() - t0 - install_s
    c1 = _cpu_s()

    result = {"setup_s": setup, "setup_cpu_s": c1 - c0}
    if spec.get("probe"):
        import probe

        result["parallel"] = probe.run(spec["seed"], tracer)
    else:
        outputs, op_s = [], []
        for op in spec["ops"]:
            buf = io.StringIO()
            w0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = cdu.cli.main(op["argv"])
                except SystemExit as exc:  # argparse rejects its input this way
                    rc = exc.code
            op_s.append(time.perf_counter() - w0)
            outputs.append({"rc": rc, "stdout": buf.getvalue()})
        result["wall_s"] = sum(op_s)
        result["wall_cpu_s"] = _cpu_s() - c1
        result["op_s"] = op_s
        result["outputs"] = outputs
    result["peak_rss_mib"] = _peak_rss_mib()
    if tracer is not None:
        import tracer as tracing

        tracer.calibrate()
        result["layers"] = tracing.layer_metrics(tracer)
        result["layers"]["field.context_mib"] = _context_mib()
        if spec.get("spans_out"):
            tracer.dump(spec["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
