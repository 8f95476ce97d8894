"""Run ``aal-guard`` with the benchmark's spans installed.

    python -m perfbench.launch TRACE_FILE serve --listen 127.0.0.1:0 ...

The arguments after the trace file go to ``aalguard.cli.main`` unchanged, so
traced and untraced servers share the same TCP path.  Spans are written to
``TRACE_FILE`` when the command returns (SIGINT stops ``serve``).
"""

import sys

from perfbench.spans import Tracer, install


def main(argv) -> int:
    trace_path, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from aalguard import cli
    try:
        return cli.main(args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
