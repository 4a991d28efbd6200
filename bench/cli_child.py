"""One traced command-line call, for the traced run of ``cold_cli``.

    python bench/cli_child.py SPANS_JSON ARGV...

Installs the tracer, runs ``qmemcell.cli.main(ARGV)`` like
``python -m qmemcell.cli ARGV`` would, writes the recorded spans to
SPANS_JSON and exits with the CLI's exit code.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from qmemcell import cli
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
