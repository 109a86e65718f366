"""Held-out CDF error of the truncated spectral regression as n grows.

Each dataset size is run over ten seeds; the medians should fall roughly
like a power of n, and the log-log slope printed at the end summarizes the
decay rate actually achieved at this scale.
"""

import numpy as np

from cdfreg import (
    build_cdf_grid,
    build_uniform_grid,
    fit_loglog_slope,
    make_catalog_env,
    sweep_regression_error,
)


def main():
    omega = build_uniform_grid(32)
    s = build_cdf_grid(64)
    env = make_catalog_env("kumaraswamy", omega, s, theta_star="bumps")
    sizes = (64, 256, 1024)
    rows = sweep_regression_error(env, sizes, tuple(range(10)),
                                  gamma=0.1, M=2.0, heldout_pairs=32)
    print("n      median     q1         q3")
    for row in rows:
        print("%-6d %.4e %.4e %.4e" % (row["n"], row["median"],
                                       row["q1"], row["q3"]))
    slope = fit_loglog_slope([(row["n"], row["median"]) for row in rows])
    print("log-log slope of the median error: %.3f" % slope)


if __name__ == "__main__":
    main()
