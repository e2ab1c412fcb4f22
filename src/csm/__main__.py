"""``python -m csm``: the same command line as the ``csm`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
