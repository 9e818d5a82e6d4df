"""Set-up probe: build the table1 SimContext in a fresh process.

Prints ``ready`` once the context exists (calibration and
eigendecomposition done); ``run.py`` times spawn-to-ready.
"""

from repro.config import table1
from repro.sim.context import SimContext

SimContext(table1())
print("ready", flush=True)
