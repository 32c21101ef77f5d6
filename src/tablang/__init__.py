"""tablang: tabletop instructions -> typed manipulation programs -> SE(2)
control, verified in a kinematic 2D simulator."""

from . import backends, benchmark, ccg, dsl, executor, formats, grounding, world

__all__ = ["backends", "benchmark", "ccg", "dsl", "executor", "formats", "grounding", "world"]

__version__ = "0.1.0"
