"""One cold set-up, run in a fresh interpreter and timed by run.py.

Set-up is what every `qhm` process pays before its first real work: import
qhm, obtain the ramp table, and build the bump R on a refinement-9 grid.

Usage: python3 bench/setup_probe.py <checkout root> <build dir>
"""

import sys
from fractions import Fraction
from pathlib import Path

root, build_dir = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "src"))

import ramp_table  # noqa: E402
from qhm.lattice import Params, make_grid  # noqa: E402
from qhm.projection import build_R  # noqa: E402

ramp_table.install(build_dir)
params = Params.from_steps(1, Fraction(1, 4), Fraction(1, 4))
build_R(params, make_grid(params, 9))
