"""`python -m ltcforge ...`: the command-line interface of `ltcforge.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
