"""Subgradient descent demo over affine matrix families.

Iterates of a descent run are generic, so the spectral max is handled on
the structure-free path: eigenvalues are assumed simple, and the
subgradient at a simple active eigenvalue is assembled from its left/right
eigenvectors.  This is a
heuristic demonstration driver, not a certified minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["spectral_subgradient", "stabilize", "Trajectory"]


def spectral_subgradient(X, f):
    """Value and a subgradient of the spectral max at a (generically)
    diagonalizable matrix, via the eigenvector pair of one active eigenvalue."""
    X = np.asarray(X, dtype=complex)
    lams, V = np.linalg.eig(X)
    vals = np.array([float(f.value(lam)) for lam in lams])
    i = int(np.argmax(vals))
    g = f.grad(lams[i])
    if g is None:
        # corner of the generator (e.g. modulus at 0): push along the identity
        return vals[i], np.zeros_like(X)
    Vinv = np.linalg.inv(V)
    u = Vinv[i, :]
    v = V[:, i]
    Y = g * np.outer(np.conj(u), np.conj(v))
    return vals[i], Y


@dataclass(frozen=True)
class Trajectory:
    thetas: np.ndarray  # iterations x parameters (real)
    values: np.ndarray  # spectral max per iteration

    def monotone_envelope(self) -> np.ndarray:
        return np.minimum.accumulate(self.values)

    def rows(self):
        for k, (th, val) in enumerate(zip(self.thetas, self.values)):
            yield (k, float(val), *map(float, th))


def stabilize(A0, directions, f, theta0=None, iters: int = 200,
              step: float = 0.5, step_rule: str = "diminishing") -> Trajectory:
    """Run a subgradient method on theta -> spectral max of A0 + sum theta_k A_k.

    ``step_rule`` is ``diminishing`` (step / (k+1)) or ``const``.  Returns the
    full trajectory; the monotone envelope of the values is the quantity the
    demo tracks (plain subgradient steps are not descent steps).
    """
    A0 = np.asarray(A0, dtype=complex)
    directions = [np.asarray(D, dtype=complex) for D in directions]
    if any(D.shape != A0.shape for D in directions):
        raise ValueError("all family directions must match the base shape")
    if step_rule not in ("diminishing", "const"):
        raise ValueError("step_rule must be 'diminishing' or 'const'")
    theta = np.zeros(len(directions)) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    if theta.size != len(directions):
        raise ValueError("theta0 length must match the number of directions")

    thetas, values = [], []
    for k in range(iters):
        X = A0 + sum(t * D for t, D in zip(theta, directions))
        val, Y = spectral_subgradient(X, f)
        thetas.append(theta.copy())
        values.append(val)
        grad = np.array([float(np.real(np.trace(Y.conj().T @ D))) for D in directions])
        alpha = step / (k + 1) if step_rule == "diminishing" else step
        norm = np.linalg.norm(grad)
        if norm > 0:
            theta = theta - alpha * grad / norm
    return Trajectory(np.asarray(thetas), np.asarray(values))
