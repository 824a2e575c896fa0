"""``python -m polcascade``: the command line, as the ``polcascade`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
