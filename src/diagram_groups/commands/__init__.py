"""Handlers of the command line, one module per family of commands.

``cli.main`` imports the one module that holds the handler of the command it
runs, once the flags are parsed and the shared inputs loaded; a handler
takes that namespace, prints the command's output and returns its exit
code.  ``cli`` lists which command lives where and which modules each one
loads.
"""

from typing import List

__all__: List[str] = []
