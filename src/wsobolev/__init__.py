"""Numerical toolkit for Sobolev analysis under exponentially decaying weights.

The package covers, on uniform 1d/2d boxes:

* a closed-form weight catalog exp(-beta*|x|^q - W - V) with admissibility
  diagnostics (growth fits, oscillation, doubling and Muckenhoupt ball
  estimates, reciprocal-power integrability): `weights`;
* grids, quadrature, discrete gradients, mollification and maximal
  functions: `grid`;
* weighted Lebesgue/Sobolev norms, integration-by-parts residuals,
  mollification convergence reports and the Hedberg pointwise bound:
  `sobolev`;
* the certified constant chain down to a global Poincaré constant, plus
  quadrature verification of each inequality on a bump corpus (`corpus`):
  `inequalities`;
* implicit-Euler gradient flows for the weighted p-Laplacian (weighted and
  plain-Lebesgue dualizations) and the mean-zero stationary problem: `pde`;
* a batch CLI (`cli`) over JSON run configs (`config`).

Each name is imported from its module, e.g. `from wsobolev.grid import
build_grid`.  `import wsobolev` loads every module but `cli` and binds those
modules and `__version__`, nothing else.
"""

from . import config, corpus, grid, inequalities, pde, sobolev, weights

__version__ = "0.1.0"
