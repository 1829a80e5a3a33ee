"""``python -m depthsep``: the command-line interface of depthsep.cli."""

from .cli import main

__all__: list[str] = []  # an entry point, no library API

if __name__ == "__main__":
    main()
