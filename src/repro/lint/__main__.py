"""Entry point: ``python -m repro.lint src benchmarks perf examples
[--format=json]``."""

import sys

from repro.lint.engine import main

if __name__ == "__main__":
    sys.exit(main())
