"""python -m qsumm: the command-line front end."""

from .cli import main

main()
