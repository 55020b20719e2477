"""``python -m beamchan``: the command-line interface of ``beamchan.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
