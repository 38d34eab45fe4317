"""``python -m oidrd``: the same command line as the ``oidrd`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
