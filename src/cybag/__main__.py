"""``python -m cybag``: the command-line interface of :mod:`cybag.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
