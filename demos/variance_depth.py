"""How estimation variance shrinks as layers are added.

Monte Carlo study of the noise-only component of a solved network's
output. Each trial draws a random design matrix and pure-noise targets,
runs the projection chain H -> f(H H^+) to the requested depth, and
measures the squared output a probe point picks up from the noise.
Depth 1 (plain least squares in input space) is not comparable to the
deeper levels, which live in sample space; from depth 2 on, the mean
squared output should only decrease.

Run: python demos/variance_depth.py [trials]

Once a depth keeps full rank its projector is exactly I, so every later
depth is the fixed point f(I) and shares its mean bit for bit: the plateau
(depth 4 on, at these settings) holds by equality at any trial count.
"""
import sys

import pinvnet as pn


def main():
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    cfg = pn.VarianceConfig(m=100, d=10, input_range=(-5.0, 5.0),
                            noise_scale=1.0, trials=trials, max_depth=8,
                            activation=pn.ActivationKind.exp_scaled(1e-4),
                            seed=7)
    report = pn.mc_output_variance(cfg)
    print(f"{trials} trials, {cfg.m} samples, {cfg.d} input dims")
    print(f"{'depth':>6} {'mean sq output':>15} {'std':>12}")
    for k, (mean, std) in enumerate(zip(report.per_depth_mean,
                                        report.per_depth_std), start=1):
        print(f"{k:>6} {mean:>15.4e} {std:>12.4e}")

    tail = report.per_depth_mean[1:]
    monotone = all(a >= b for a, b in zip(tail, tail[1:]))
    print()
    print(f"non-increasing from depth 2: {monotone}")
    print("The depth-2 spike comes from inverting f of a rank-d projection,")
    print("whose smallest kept eigenvalues sit near the rank cutoff; the")
    print("next layers average the noise down to the fixed point f(I). The")
    print("same trials feed every depth, so the trend is not Monte Carlo luck.")


if __name__ == "__main__":
    main()
