"""``python -m pst``: the command line, as the ``pst`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
