"""Event-triggered decentralized composite optimization.

Library + network simulator + experiment CLI for consensus optimization
where agents broadcast their iterates only when they have moved more than a
summable per-round threshold since the last broadcast.
"""

# `cli` is left out so that `python -m etdopt.cli` does not find it already
# imported; `from etdopt import cli` still loads it.
from . import engine, graph, metrics, objective, reference, trigger

__all__ = ["cli", "engine", "graph", "metrics", "objective", "reference", "trigger"]
__version__ = "0.1.0"
