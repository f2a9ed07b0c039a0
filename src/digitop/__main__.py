"""``python -m digitop``: the same command line as the ``digitop`` script."""

from .cli import main

main()
