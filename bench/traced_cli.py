"""Run one ``iarx`` CLI command with the span recorder installed.

Usage: ``python traced_cli.py SPANS_FILE COMMAND [ARGS...]``

Behaves like ``python -m iarx.cli COMMAND [ARGS...]`` (same exit code) and
saves the spans of the run, rooted at one ``cli.main`` span, to
``SPANS_FILE``. The parent benchmark process merges them under its own span
for this process, so interpreter start-up and imports show as the parent
span's self time.
"""

import sys

from spans import MAIN_SPAN, Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import iarx.cli

    tracer = Tracer()
    with tracer.recording(0):
        with tracer.span(MAIN_SPAN):
            code = iarx.cli.main(argv)
    tracer.save(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
