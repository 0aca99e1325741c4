"""Run one chaoscope CLI call with tracing on.

    python bootstrap.py TRACE_FILE ARG...

Wraps the package's public functions (spans.install), runs
`console_main(ARG...)` inside the root span `cli.console_main`, writes every
span to TRACE_FILE when the call returns, and exits with the CLI's code.
"""

import sys

from spans import Recorder, install


def main(argv: list[str]) -> int:
    trace_file, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from chaoscope import cli
    try:
        return rec.wrap("cli.console_main", cli.console_main)(cli_args)
    finally:
        rec.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
