"""Re-export of `strategies.Grid2xnCopTeam` under its old module name.

Only `bench/workloads.py` still imports the class from here.  The
benchmark change of ROADMAP item 1 points it at `strategies` and deletes
this module.
"""

from .strategies import Grid2xnCopTeam  # noqa: F401
