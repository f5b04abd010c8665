"""Bundled worked examples used by the CLI and the acceptance suite.

Two 3x3 spectral-radius fixtures: one with two nonderogatory active
eigenvalues (1, with a 2-block, and -1), one with a single derogatory
eigenvalue 1 (blocks 2 and 1) together with its regularizing perturbation
sequence.
"""

from __future__ import annotations

import numpy as np

from .generators import builtin
from .jordan import JordanSpec
from .specsub import (
    radius_rsd_membership,
    regularity_verdict,
    spectral_max,
)

__all__ = [
    "fixture_two_active",
    "fixture_derogatory",
    "derogatory_sequence_spec",
    "worked_example_checks",
]


def fixture_two_active() -> JordanSpec:
    """Diag(J_2(1), -1): nonderogatory active eigenvalues 1 and -1."""
    return JordanSpec([(1.0, (2,)), (-1.0, (1,))])


def fixture_derogatory() -> JordanSpec:
    """Eigenvalue 1 with Jordan blocks of sizes 2 and 1 (derogatory)."""
    return JordanSpec([(1.0, (2, 1))])


def derogatory_sequence_spec(nu: int) -> JordanSpec:
    """The derogatory fixture with its trailing 1x1 block pushed to 1 + 1/nu."""
    if nu < 1:
        raise ValueError("sequence index must be positive")
    return JordanSpec([(1.0, (2,)), (1.0 + 1.0 / nu, (1,))])


def _diag_theta(theta11: complex, theta12: complex, theta21: complex) -> np.ndarray:
    return np.array(
        [[theta11, 0, 0], [theta12, theta11, 0], [0, 0, theta21]], dtype=complex
    )


def worked_example_checks(nu_count: int = 100) -> list:
    """The bundled assertion table: (name, passed, detail) triples."""
    if nu_count < 1:
        raise ValueError(f"the perturbation sequence needs at least one member, got {nu_count}")
    radius = builtin("radius")
    A = fixture_two_active()
    B = fixture_derogatory()
    checks = []

    val = spectral_max(A.synth(), radius)
    checks.append(("two-active: spectral radius is 1", abs(val - 1.0) < 1e-12, f"value={val}"))

    rep = radius_rsd_membership(A, _diag_theta(0.5, 0.0, 0.0))
    checks.append(("two-active: Diag(1/2,1/2,0) is a regular subgradient",
                   rep.verdict, rep.details))

    rep = radius_rsd_membership(A, np.eye(3, dtype=complex))
    checks.append(("two-active: Diag(1,1,1) is rejected (trailing ray sign)",
                   not rep.verdict, [v.condition for v in rep.failed]))

    rep = radius_rsd_membership(A, _diag_theta(0.5, -1.0, 0.0))
    checks.append(("two-active: subdiagonal -1 under diagonal 1/2 is rejected",
                   not rep.verdict, [v.condition for v in rep.failed]))

    rep = radius_rsd_membership(A, _diag_theta(0.25, -0.25, -0.5))
    checks.append(("two-active: boundary subdiagonal -theta11 is accepted",
                   rep.verdict, rep.details))

    checks.append(("two-active: verdict is regular",
                   regularity_verdict(A, radius) == "regular", None))

    third = np.zeros((3, 3), dtype=complex)
    third[1, 0] = 1.0
    for name, theta, expect in [
        ("derogatory: (1/3)I is a regular subgradient", 0.0, True),
        ("derogatory: (1/3)I + 2 E21 is a regular subgradient", 2.0, True),
        ("derogatory: subdiagonal below -1/3 is rejected", -1.0 / 3 - 1e-3, False),
    ]:
        Y = np.eye(3, dtype=complex) / 3 + theta * third
        rep = radius_rsd_membership(B, Y)
        checks.append((name, rep.verdict == expect, [v.condition for v in rep.failed]))

    M = np.diag([0.0, 0.0, 1.0]).astype(complex)
    rep = radius_rsd_membership(B, M)
    checks.append(("derogatory: Diag(0,0,1) fails the equal-diagonal structure",
                   (not rep.verdict)
                   and any(v.condition == "equal_diagonals" for v in rep.failed),
                   [v.condition for v in rep.failed]))

    seq_ok = all(
        radius_rsd_membership(derogatory_sequence_spec(nu), M).verdict
        for nu in range(1, nu_count + 1)
    )
    checks.append((f"derogatory: Diag(0,0,1) accepted along the sequence (nu=1..{nu_count})",
                   seq_ok, None))

    checks.append(("derogatory: verdict is not regular",
                   regularity_verdict(B, radius) == "not_regular", None))

    return checks
