"""
Stabilizing a plant sampled at random intervals
===============================================

An unstable continuous-time plant is sampled with intervals
h = 0.01 + Exp(20); between samples the input is held.  At the sampling
instants the closed loop is a discrete-time system with i.i.d. random
coefficients, so a static gain can be synthesized from the second-moment
data: bisection over the decay rate with an LMI feasibility solve at
each rate, then independent verification of the returned gain.

The demo uses 10^5 Monte-Carlo samples to stay quick; repro-example2
runs the full 10^6.
"""

import numpy as np

from stochlyap import second_moment_mc, synthesize_min_lambda, verify_gain
from stochlyap.demo_models import example2_model
from stochlyap.sampled import intersample_trajectory
from stochlyap.dist import substream

model = example2_model()
print("plant eigenvalues:", np.linalg.eigvals(model.plant.A_c))
print("mean sampling interval:", model.offset + 1.0 / 20.0)

data = second_moment_mc(model, samples=100_000, seed=7)
print(f"\nmoment data: {data.g2.shape} Gram matrix, "
      f"max entry stderr {data.method.max_entry_stderr:.2e}")

result = synthesize_min_lambda(model, data, lambda_tol=1e-3)
print(f"\nachieved decay rate lambda = {result.lam:.4f}")
print(f"gain F = {np.round(result.F, 4)}")
print(f"independent closed-loop verification: "
      f"lambda_min = {result.closed_loop_report.lambda_min:.4f}")
print("bisection trace (rate, feasible):",
      [(round(l, 4), f) for l, f, _ in result.trace])

rep0 = verify_gain(data, np.zeros((1, 3)))
print(f"\nwithout feedback the sampled system is unstable: "
      f"lambda_min = {rep0.lambda_min:.3f}")

# one continuous-time sample path under the synthesized gain
rng = substream(8, 0)
hs = model.interval(model.dist.sample_block(rng, 200))
instants = np.concatenate([[0.0], np.cumsum(hs)])
instants = instants[instants <= 10.0]
t, x, u = intersample_trajectory(model.plant, result.F, instants,
                                 [1.0, 0.0, 0.0], dt_plot=0.01)
print(f"\none sample path: ||x_c(0)|| = {np.linalg.norm(x[0]):.3f}, "
      f"||x_c({t[-1]:.2f})|| = {np.linalg.norm(x[-1]):.2e}")

np.savetxt("demo_intersample_path.csv",
           np.column_stack([t, x, u]), delimiter=",",
           header="t,x1,x2,x3,u", comments="")
print("wrote demo_intersample_path.csv (plot t vs x1..x3 to see the response)")
