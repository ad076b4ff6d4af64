"""``python -m repro.megasim ARGS`` is ``python -m repro run --backend
vector ARGS``: a shorthand with no parser of its own."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["run", "--backend", "vector", *sys.argv[1:]]))
