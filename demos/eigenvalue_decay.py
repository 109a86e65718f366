"""Spectra of integral operators, from a textbook kernel to a CDF basis.

The min kernel min(s, t) on [0, 1] has known eigenvalues
1 / ((k - 1/2)^2 pi^2), which makes it a good first check of the quadrature
eigensolver. The second half of the script looks at the point operators of
every catalog basis and fits a polynomial decay exponent to each one's
dominating eigenvalue sequence.
"""

import numpy as np

from cdfreg import (
    build_cdf_grid,
    build_uniform_grid,
    degenerate_kernel_eig,
    eigendecay_prepass,
    make_catalog_env,
)
from cdfreg.environments import BASIS_CATALOG


def main():
    print("min kernel on a 64-node grid, top 5 eigenvalues")
    spec = degenerate_kernel_eig(lambda s, t: np.minimum(s, t), 64, 5)
    analytic = 1.0 / ((np.arange(1, 6) - 0.5) ** 2 * np.pi**2)
    for k, (lam, ref) in enumerate(zip(spec.eigenvalues[:5], analytic), 1):
        print("  k=%d  computed %.6f  analytic %.6f  rel err %.2e"
              % (k, lam, ref, abs(lam - ref) / ref))

    omega = build_uniform_grid(32)
    s = build_cdf_grid(64)
    for name in BASIS_CATALOG:
        env = make_catalog_env(name, omega, s)
        fit = eigendecay_prepass(env, seed=0, n_pairs=25)
        print("\n%s point operators, dominating sequence over 25 pairs" % env.basis.name)
        print("  nonzero tau:", np.array2string(fit.tau[fit.tau > 0], precision=4))
        print("  fitted decay exponent gamma = %.2f, power sum s0 = %.3f"
              % (fit.gamma, fit.s0))


if __name__ == "__main__":
    main()
