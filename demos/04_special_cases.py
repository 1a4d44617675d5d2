"""
Classical special cases as one moment operator
==============================================

Systems with state-multiplicative noise and randomly switched systems
have their own textbook LMI conditions ``P - sum_i w_i M_i^T P M_i > 0``.
Both are special cases of the general second-moment machinery: the
textbook operator ``sum_i w_i kron(M_i, M_i)^T`` (row-vectorization
coordinates) equals the general moment operator built from ``G2``.
"""

import numpy as np

from stochlyap import (
    AffineForm,
    Discrete,
    DistributionSpec,
    Normal,
    SwitchedForm,
    build_operator,
    lyapunov_certificate,
    second_moment_analytic,
)
from stochlyap.analysis import spectral_radius


def textbook_operator(pairs):
    """Matrix of ``P -> sum_i w_i M_i^T P M_i`` from its ``(w_i, M_i)`` pairs."""
    return sum(w * np.kron(M, M).T for w, M in pairs)


rng = np.random.default_rng(0)

# multiplicative noise: A(xi) = A0 + A1 xi, xi ~ N(0, 0.3^2), so the
# pairs are (1, A0) and (E[xi^2], A1)
A0 = np.array([[0.6, 0.2], [-0.1, 0.5]])
A1 = rng.normal(size=(2, 2)) * 0.5
noise_model = AffineForm((A0, A1), DistributionSpec((Normal(0.0, 0.3),)))

pairs = [(1.0, A0), (0.3**2, A1)]
print("multiplicative-noise pairs (weight, matrix):")
for w, M in pairs:
    print(f"  weight {w:.4f}")
M_general = build_operator(second_moment_analytic(noise_model))
print("max |special - general| =",
      np.abs(textbook_operator(pairs) - M_general.matrix).max())
print("lambda_min =", np.sqrt(spectral_radius(M_general, 1e-9)))

# switched system: modes drawn i.i.d. with probabilities p, so the pairs
# are (p_i, A_i)
probs = (0.2, 0.5, 0.3)
modes = tuple(rng.normal(size=(2, 2)) * 0.55 for _ in range(3))
switched = SwitchedForm(
    modes, DistributionSpec((Discrete((1.0, 2.0, 3.0), probs),))
)
M_general = build_operator(second_moment_analytic(switched))
print("\nswitched system: max |special - general| =",
      np.abs(textbook_operator(zip(probs, modes)) - M_general.matrix).max())
print("lambda_min =", np.sqrt(spectral_radius(M_general, 1e-9)))

# the textbook condition P - sum_i p_i A_i' P A_i > 0 holds at the
# certificate produced by the general path
data = second_moment_analytic(switched)
op = build_operator(data)
lam = np.sqrt(spectral_radius(op, 1e-9))
P, _ = lyapunov_certificate(op, data, min(0.99, lam * 1.05))
lhs = P - sum(p * A.T @ P @ A for p, A in zip(probs, modes))
print("textbook switched LMI margin at the certificate:",
      np.linalg.eigvalsh(lhs)[0])
