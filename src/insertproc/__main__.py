"""``python -m insertproc``: the command-line interface of :mod:`insertproc.cli`."""

from .cli import entry

entry()
