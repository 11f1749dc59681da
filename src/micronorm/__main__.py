"""``python -m micronorm``: the same command line as the ``micronorm`` script."""

from .cli import main

if __name__ == "__main__":
    main()
