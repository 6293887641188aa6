"""Run one rotdicke command in this fresh process and record when it got where.

    python3 child.py RECORD_JSON MODE RUN_ID ARG...

ARG... is the rotdicke command line (subcommand first), run through
``rotdicke.cli.main``.  MODE is ``run`` (untraced), ``trace`` (spans around
the public functions of every layer, see ``tracer.py``) or ``setup`` (stop
as soon as the configuration is parsed).  RECORD_JSON receives the
``time.monotonic`` readings ``imported`` (numpy, scipy and rotdicke
imported), ``parsed`` (``parse_config`` returned) and ``end`` (``main``
returned), the exit code, and in trace mode the spans.  The exit code of
this process is the command's.
"""

import json
import sys
import time


class SetupDone(Exception):
    """Raised from parse_config in setup mode; cli.main does not catch it."""


def main() -> int:
    record_path, mode, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    import rotdicke.cli

    record = {"imported": time.monotonic(), "parsed": None}
    recorder = None
    if mode == "trace":
        import tracer

        recorder = tracer.install(run_id)
    parse_config = rotdicke.cli.parse_config

    def timed_parse_config(*args, **kwargs):
        config = parse_config(*args, **kwargs)
        record["parsed"] = time.monotonic()
        if mode == "setup":
            raise SetupDone
        return config

    rotdicke.cli.parse_config = timed_parse_config
    code = 1
    try:
        code = rotdicke.cli.main(argv)
    except SetupDone:
        code = 0
    finally:
        record["end"] = time.monotonic()
        record["code"] = code
        record["spans"] = recorder.spans if recorder is not None else []
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
