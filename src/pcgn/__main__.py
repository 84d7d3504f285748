"""``python -m pcgn``: the same command-line interface as the ``pcgn`` script."""

from .cli import entrypoint

__all__: list[str] = []

if __name__ == "__main__":
    entrypoint()
