"""Launch a ``repro serve`` daemon for the serve_mixed workload.

    python3 perfbench/serve_daemon.py [--spans-out FILE]

The same launcher runs with tracing on and off, so the process layout
is identical either way.  It builds the daemon exactly as ``repro
serve`` does with the daemon's defaults (two workers, shared accept
loop, SIGTERM drain, first line ``repro serve listening on HOST:PORT``)
with two additions that live here, not in the program:

* ``health`` also reports the daemon's peak resident set
  (``peak_rss_kb``), read before drain;
* with ``--spans-out``, the daemon runs a wrapped ``run_job`` as its
  executor and wrapped codec functions, records spans — queue wait
  (submit to executor start), executor run, codec, and the engine
  layers inside each job — and writes them to FILE after the drain.
"""

from __future__ import annotations

import argparse
import resource
import time

from harness import src_on_path

src_on_path()

import repro.serve.client  # noqa: E402
import repro.serve.daemon  # noqa: E402
from repro.core.server import install_term_handler  # noqa: E402
from repro.serve import ServeDaemon, run_job  # noqa: E402
from spans import Tracer, engine_wraps, serve_codec_wraps  # noqa: E402


class BenchDaemon(ServeDaemon):
    def _health(self) -> dict:
        health = super()._health()
        health["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return health


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    tracer = None
    executor = run_job
    submitted: dict = {}
    if args.spans_out:
        tracer = Tracer()
        tracer.install(engine_wraps() + serve_codec_wraps(repro.serve.daemon))

        def executor(job, pool, token):
            start = time.perf_counter()
            queued = submitted.pop(id(job), None)
            if queued is not None:
                tracer.add_span("serve.queue_wait", queued, start)
            return tracer.call("serve.run", run_job, (job, pool, token), {})

    daemon = BenchDaemon(executor=executor)
    if tracer is not None:
        admit = daemon.supervisor.submit

        def submit(job):
            submitted[id(job)] = time.perf_counter()
            try:
                return admit(job)
            except Exception:
                submitted.pop(id(job), None)
                raise

        daemon.supervisor.submit = submit
    install_term_handler(daemon.request_stop)
    print(f"repro serve listening on {daemon.address[0]}:{daemon.address[1]}",
          flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
        if tracer is not None:
            tracer.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
