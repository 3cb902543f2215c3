"""``python -m conncluster``: the same command line as the ``conncluster`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
