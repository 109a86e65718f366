"""One run of the epoch-batched inverse-gap-weighting policy.

The policy plays uniformly in the first epoch, then refreshes its
regression estimate once per doubling epoch. Cumulative regret at dyadic
checkpoints should bend away from the diagonal; the fitted log-log slope
quantifies how sublinear the run was.
"""

import math

from cdfreg import (
    build_cdf_grid,
    build_uniform_grid,
    make_catalog_env,
    make_functional,
    regret_slope,
    run_episode,
)


def main():
    omega = build_uniform_grid(32)
    s = build_cdf_grid(64)
    env = make_catalog_env("finite-rank-r", omega, s, rank=8,
                           theta_star="uniform")
    fn = make_functional("mean")
    T = 2**11
    trace = run_episode(env, fn, T, delta=0.1, gamma=0.1, M=2.0, seed=0,
                        exploration_scale=1e8, s0=2.0)
    print("horizon %d, oracle calls %d (cap %d)"
          % (T, trace.summary["oracle_calls"], math.ceil(math.log2(T)) + 1))
    print("round   cum regret")
    for r, v in trace.summary["checkpoints"]:
        print("%-7d %.3f" % (r, v))
    slope = regret_slope(trace)
    print("log-log regret slope: %s"
          % ("%.3f" % slope if slope is not None else "undefined (no regret)"))


if __name__ == "__main__":
    main()
