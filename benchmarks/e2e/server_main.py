"""The benchmark's own server launcher for ``ycsb_a_service``.

``python -m repro.service serve`` cannot take split keys, and
``RangeRouter.uniform`` splits on the first key byte, which sends every
``user...`` key to shard 0.  This launcher passes ``split_keys=[b"user5"]``
and, for the traced pass, installs the layer wrappers in the server
process too.

Protocol with the parent, over the child's stdin/stdout, one line each way:
the child first prints ``{"port": N}``; ``report`` on stdin is answered by
one JSON line (peak RSS, per-shard counters, and in a traced pass the
recorder totals and spans); ``reset`` forgets what the recorder holds (the
load phase); end of input stops the server cleanly.  The parent SIGKILLs
the child for the crash check, so nothing here depends on a clean exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "src"))

from harness import (  # noqa: E402
    CountingEnv,
    db_counters,
    geometry_options,
    peak_rss_mb,
)

SPLIT_KEYS = [b"user5"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()

    from repro import obs
    from repro.service.server import KVServer, KVService

    recorder = env = None
    if args.traced:
        from layers import BridgeTracer, Recorder, install_wrappers
        recorder = Recorder()
        install_wrappers(recorder)
        obs.install(tracer=BridgeTracer(recorder))
        env = CountingEnv(recorder)

    service = KVService(args.root, num_shards=2, split_keys=SPLIT_KEYS,
                        options=geometry_options(wal_sync="group"), env=env)
    server = KVServer(service)
    server.start()
    print(json.dumps({"port": server.port}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "reset" and recorder is not None:
                recorder.reset()
                print("{}", flush=True)
            elif command == "report":
                report = {"peak_rss_mb": peak_rss_mb(),
                          "shards": [db_counters(db)
                                     for db in service.shards]}
                if recorder is not None:
                    report["totals"] = recorder.totals()
                    report["counts"] = dict(recorder.counts())
                    report["env"] = env.counters()
                    report["spans"] = recorder.span_dicts()
                print(json.dumps(report), flush=True)
            else:
                print("{}", flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
