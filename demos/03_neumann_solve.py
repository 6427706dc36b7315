"""Minimizing the Neumann energy by trust-region Newton.

First a configuration with a closed-form answer: Phi = t^4, G = t^2,
lam = 1 on (0,1).  Constants c are critical exactly when 4c^3 = 2c, so the
nontrivial solution is c = 2^{-1/2} with energy c^4 - c^2 = -1/4.  Then a
variable-exponent solve from a small bump seed, saved to a solution file.
Each trial step on this 101-node interval is one banded Cholesky solve; the
closed-form case takes 6 steps, the bump-seed case 16.
"""

import numpy as np

import orliczkit as ok
from orliczkit import bump_seed

grid = ok.make_grid(1, [(0.0, 1.0)], [101])

print("closed-form cross-check: p = 4, q = 2, lam = 1, u0 = 0.3")
config = ok.EnergyConfig(
    ok.power_family(ok.ExponentField.constant(4.0)),
    ok.power_reaction(ok.ExponentField.constant(2.0)), 1.0)
rep = ok.minimize(config, ok.GridFunction.constant(grid, 0.3))
c_star = 2.0 ** -0.5
print(f"  converged: {rep.converged} after {rep.iterations} iterations")
print(f"  max |u - 2^(-1/2)| = {np.max(np.abs(rep.final_u.values - c_star)):.3e}")
print(f"  energy = {rep.final_energy:.10f}   (exact -0.25)")
print(f"  residual sup-norm = {rep.residual_sup:.3e}")
print("  energy trajectory (first 6):",
      np.array2string(rep.trajectory[:6, 0], precision=6))

print("\nvariable exponent solve: p(x) = 3 + x, q = 2, small lam, bump seed")
fam = ok.power_family(ok.ExponentField.affine(3.0, 1.0))
react = ok.power_reaction(ok.ExponentField.constant(2.0))
lam = 0.05
config2 = ok.EnergyConfig(fam, react, lam)
u0 = bump_seed(config2, grid)
print(f"  seed: scaled bump with J(u0) = {ok.energy(config2, u0):.3e} < 0")
rep2 = ok.minimize(config2, u0)
print(f"  converged: {rep2.converged} after {rep2.iterations} iterations")
print(f"  final energy = {rep2.final_energy:.6e} (negative, nontrivial)")
print(f"  solution norm = {ok.sobolev_norm(fam, rep2.final_u):.6e}")
print(f"  residual sup-norm = {rep2.residual_sup:.3e}")

path = "bump_solution.dat"
ok.save_function(rep2.final_u, path)
reloaded = ok.load_function(path)
print(f"  saved to {path}; reload bit-identical: "
      f"{np.array_equal(reloaded.values, rep2.final_u.values)}")
