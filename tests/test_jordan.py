import cmath
import json
import math
import re

import numpy as np
import pytest

from specmax.cli import main
from specmax.cpoly import Poly, RootCluster, elementary, lex_key, roots
from specmax.generators import builtin
from specmax.jordan import (
    DerogatoryEigenvalue,
    JordanSpec,
    R_matrix,
    declared_active,
    matrix_from_json,
    matrix_to_json,
    nilpotent,
    spec_from_json,
    spec_to_json,
)
from specmax.polysub import subderivative_f
from specmax.specsub import subderivative

from charpoly_lemmas import (
    char_poly,
    char_poly_deriv_action,
    det_expansion_residual,
    factor_coords,
    taylor_coeff,
)

ABSC = builtin("abscissa")
RAD = builtin("radius")

A_SPEC = JordanSpec([(1.0, (2,)), (-1.0, (1,))])
A_MATRIX = np.array([[1, 1, 0], [0, 1, 0], [0, 0, -1]], dtype=complex)


def random_P(rng, n, scale=0.3):
    return np.eye(n) + scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_spec(rng, n_max=6, derogatory_ok=True):
    while True:
        n = int(rng.integers(2, n_max + 1))
        parts = []
        left = n
        while left > 0:
            k = int(rng.integers(1, left + 1))
            parts.append(k)
            left -= k
        m = int(rng.integers(1, len(parts) + 1))
        groups = np.array_split(np.array(parts), m)
        groups = [g for g in groups if g.size]
        lams = []
        while len(lams) < len(groups):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(z - w) > 0.5 for w in lams):
                lams.append(z)
        eigs = [(lam, tuple(int(b) for b in g)) for lam, g in zip(lams, groups)]
        if not derogatory_ok and any(len(b) > 1 for _, b in eigs):
            continue
        return JordanSpec(eigs, P=random_P(rng, n))


def random_direction(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# -- reference copies of the derivative formulas as they were written before
# they read Taylor coordinates: nilpotent-bracket powers and a cofactor loop


def _reference_gj_deriv(spec, j, Z):
    """sum_l -tr(N^(l-1) V_jj) (lambda - lambda_j)^(n_j - l), with N the
    block diagonal of the sub-block nilpotents and its powers formed."""
    V = spec.P @ np.asarray(Z, dtype=complex) @ spec.Pinv
    lam, n_j = spec.eig_value(j), spec.n_j(j)
    Vjj = V[spec.eig_slice(j), spec.eig_slice(j)]
    Nb = np.zeros((n_j, n_j), dtype=complex)
    pos = 0
    for b in spec.block_sizes(j):
        Nb[pos: pos + b, pos: pos + b] = nilpotent(b)
        pos += b
    out = Poly((0j,) * n_j)
    power = np.eye(n_j, dtype=complex)
    for ell in range(1, spec.m_j(j) + 1):
        out = out + (-np.trace(power @ Vjj)) * elementary(n_j - ell, lam).padded(n_j - 1)
        power = power @ Nb
    return out


def _reference_char_poly_deriv_action(spec, Z):
    """sum_j r_j * g_j'(X) Z, r_j the product of the other
    eigenvalues' monic factors."""
    out = Poly((0j,) * max(spec.n, 1))
    for j in range(spec.num_eigs):
        r_j = Poly.one()
        for k in range(spec.num_eigs):
            if k != j:
                r_j = r_j * elementary(spec.n_j(k), spec.eig_value(k))
        out = out + (r_j * _reference_gj_deriv(spec, j, Z)).padded(out.degree_bound)
    return out


class TestSynth:
    def test_single_nilpotent_block(self):
        spec = JordanSpec([(0.0, (2,))])
        assert np.array_equal(spec.synth(), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_two_active_fixture_matrix(self):
        assert np.array_equal(A_SPEC.synth(), A_MATRIX)

    def test_repeated_eigenvalue_must_be_one_entry(self):
        with pytest.raises(ValueError):
            JordanSpec([(1.0, (2,)), (1.0, (1,))])
        JordanSpec([(1.0, (2, 1))])  # the declared-derogatory form is fine

    def test_similarity_conjugates(self):
        rng = np.random.default_rng(0)
        P = random_P(rng, 3)
        spec = JordanSpec([(2.0, (2,)), (-1.0, (1,))], P=P)
        X = spec.synth()
        assert np.allclose(P @ X @ np.linalg.inv(P), spec.jordan_matrix(), atol=1e-10)

    def test_ill_conditioned_similarity_rejected(self):
        P = np.diag([1.0, 1e-12])
        with pytest.raises(ValueError):
            JordanSpec([(0.0, (2,))], P=P)


class TestDeclarationChecks:
    def test_integral_block_sizes_only(self):
        assert JordanSpec([(0.0, (2.0, 1))]).block_sizes(0) == (2, 1)
        for blocks in [(1.7,), (2, 0.5), (float("inf"),), (float("nan"),), ("2",), ()]:
            with pytest.raises(ValueError, match="block sizes must be positive integers"):
                JordanSpec([(0.0, blocks)])

    def test_non_finite_eigenvalue_rejected(self):
        for lam in [complex(np.nan, 0), complex(0, np.inf)]:
            with pytest.raises(ValueError, match="eigenvalue must be finite"):
                JordanSpec([(lam, (1,)), (1.0, (1,))])

    def test_non_finite_moved_eigenvalue_rejected(self):
        spec = JordanSpec([(1.0, (2,)), (-1.0, (1,))])
        for lam in [np.inf, np.nan, complex(0, -np.inf), complex(np.nan, 1.0)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"eigenvalue must be finite, got {complex(lam)}")):
                spec.with_eigenvalue(1, lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_similarity_rejected(self, bad):
        P = np.eye(2)
        P[0, 1] = bad
        with pytest.raises(ValueError, match="similarity"):
            JordanSpec([(0.0, (2,))], P=P)

    def test_non_finite_rest_block_rejected(self):
        with pytest.raises(ValueError, match="rest block B"):
            JordanSpec([(0.0, (2,))], B=np.array([[np.inf]]))


def test_with_eigenvalue_shares_everything_but_the_moved_eigenvalue():
    spec = JordanSpec([(1.0, (2, 1)), (-0.5j, (1,))], P=random_P(np.random.default_rng(3), 6),
                      B=np.array([[0.1, 0.2], [0.0, -0.2]]))
    before = dict(vars(spec))
    moved = spec.with_eigenvalue(1, 0.4 + 0.25j)
    assert type(moved) is JordanSpec
    assert vars(spec).keys() == before.keys()
    assert all(vars(spec)[k] is v for k, v in before.items())  # spec itself untouched
    assert moved.eigs == ((1.0, (2, 1)), (0.4 + 0.25j, (1,)))
    assert vars(moved).keys() == vars(spec).keys()
    assert all(vars(moved)[k] is v for k, v in vars(spec).items() if k != "eigs")
    assert np.array_equal(moved.synth(), JordanSpec(moved.eigs, P=spec.P, B=spec.B).synth())
    with pytest.raises(ValueError, match="distinct"):
        spec.with_eigenvalue(1, 1.0)


@pytest.mark.parametrize("eigs,pair", [
    ([(1.0, (1,)), (3.0, (2,)), (3 + 1e-9, (1,))], "(1+0j) vs (1.000000001+0j)"),
    ([(3.0, (2,)), (3 + 1e-9, (1,)), (1.0, (1,))], "(3+0j) vs (3.000000001+0j)"),
])
def test_separation_names_the_first_pair_in_declaration_order(eigs, pair):
    # each eigenvalue against the later ones, then against the rest block
    with pytest.raises(ValueError, match=re.escape(f"rest block): {pair}")):
        JordanSpec(eigs, B=[[1 + 1e-9]])
    spec = JordanSpec([(1.0, (1,)), (3.0, (2,))], B=[[-2.0]])
    with pytest.raises(ValueError, match=re.escape("(-2+1e-09j) vs (-2+0j)")):
        spec.with_eigenvalue(0, -2 + 1e-9j)


def _reference_gate(P):
    """The similarity gate as one ``np.linalg.cond`` call: the rejection
    message, or None for an accepted P (read as complex, as the spec does)."""
    try:
        cond = np.linalg.cond(np.asarray(P, dtype=complex))
    except np.linalg.LinAlgError as exc:
        return f"similarity P must be finite: {exc}"
    if not np.isfinite(cond) or cond > JordanSpec.MAX_CONDITION:
        return f"similarity condition number {cond:.2e} exceeds bound"
    return None


def _gate(P):
    try:
        JordanSpec([(0.0, (P.shape[0],))], P=P)
    except ValueError as exc:
        return str(exc)
    return None


def _with_condition(rng, n, cond):
    """Q1 diag(s) Q2 at a random scale, with unitary Q1, Q2 and singular
    values s spanning a ratio of ``cond``."""
    def unitary():
        return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    s = np.concatenate(([1.0, 1.0 / cond], cond ** -rng.uniform(0, 1, n - 2)))
    return 10 ** rng.uniform(-3, 3) * unitary() @ np.diag(rng.permutation(s)) @ unitary()


class TestConditionGate:
    """The Frobenius shortcut accepts without an SVD, but the gate is still
    cond_2(P) <= MAX_CONDITION with the messages of ``np.linalg.cond``."""

    def test_same_decision_and_message_as_the_svd(self):
        rng = np.random.default_rng(1402)
        bound = JordanSpec.MAX_CONDITION
        decisions = set()
        for i in range(400):
            n = int(rng.integers(2, 7))
            if i % 2:  # within 1e-9 .. 1e-1 relative of the bound, both sides
                cond = bound * (1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-9, -1))
            else:
                cond = 10 ** rng.uniform(6, 9)
            P = _with_condition(rng, n, cond)
            assert _gate(P) == _reference_gate(P)
            decisions.add(_gate(P) is None)
        assert decisions == {True, False}
        nan, inf = np.eye(3), np.eye(3)
        nan[0, 2], inf[1, 0] = np.nan, np.inf
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        for P in (nan, inf, singular, np.diag([1.0, 1e-12])):
            assert _gate(P) == _reference_gate(P) is not None

    def test_well_conditioned_similarity_needs_no_svd(self, monkeypatch):
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda P, *a: calls.append(P) or cond(P, *a))
        rng = np.random.default_rng(1403)
        for n in range(2, 9):
            for c in (1.0, 1e3, 1e6):
                JordanSpec([(0.0, (n,))], P=_with_condition(rng, n, c))
            JordanSpec([(0.0, (n,))], P=random_P(rng, n))
        assert calls == []
        with pytest.raises(ValueError, match="exceeds bound"):
            JordanSpec([(0.0, (2,))], P=np.diag([1.0, 1e-9]))
        assert len(calls) == 1


    def test_similarity_past_the_shortcut_is_inverted_once(self, monkeypatch):
        # diag(1, 8e7) fails the Frobenius shortcut and passes the SVD gate
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda P: calls.append(P) or inv(P))
        spec = JordanSpec([(0.0, (1,)), (1.0, (1,))], P=np.diag([1.0, 8e7]))
        assert len(calls) == 1
        assert np.array_equal(spec.Pinv, np.diag([1.0, 1 / 8e7]))


class TestCharPoly:
    def test_zero_matrix(self):
        assert np.allclose(char_poly(np.zeros((3, 3))).array(), [0, 0, 0, 1])

    def test_two_active_fixture(self):
        # (lambda-1)^2 (lambda+1) = lambda^3 - lambda^2 - lambda + 1
        assert np.allclose(char_poly(A_MATRIX).array(), [1, -1, -1, 1])

    def test_companion_roundtrip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            p = char_poly(X)
            got = np.sort_complex(np.roots(p.array()[::-1]))
            expect = np.sort_complex(np.linalg.eigvals(X))
            assert np.allclose(got, expect, atol=1e-6)

    def test_matches_declared_factors(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            spec = random_spec(rng)
            p = char_poly(spec.synth())
            expect = Poly.one()
            for j in range(spec.num_eigs):
                expect = expect * elementary(spec.n_j(j), spec.eig_value(j))
            assert np.allclose(p.array(), expect.array(),
                               atol=1e-8 * np.linalg.norm(expect.array()))

    def test_rest_block_contributes_its_factor(self):
        B = np.array([[3.0, 1.0], [0.0, 4.0]], dtype=complex)
        spec = JordanSpec([(0.0, (2,))], B=B)
        p = char_poly(spec.synth())
        expect = elementary(2, 0) * char_poly(B)
        assert np.allclose(p.array(), expect.array(), atol=1e-8)


class TestCharPolyDerivAction:
    def test_zero_direction(self):
        spec = JordanSpec([(0.0, (2,))])
        assert np.linalg.norm(char_poly_deriv_action(spec, np.zeros((2, 2))).array()) < 1e-15

    def test_identity_direction_on_a_nilpotent_block(self):
        spec = JordanSpec([(0.0, (2,))])
        got = char_poly_deriv_action(spec, np.eye(2))
        assert np.allclose(got.array(), [0, -2])

    def test_derogatory_pair_with_offdiagonal_direction(self):
        spec = JordanSpec([(0.0, (1, 1))])
        Z = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.linalg.norm(char_poly_deriv_action(spec, Z).array()) < 1e-15

    def test_richardson_fd_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec = random_spec(rng)
            X = spec.synth()
            Z = rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
            got = char_poly_deriv_action(spec, Z).array()
            t = 1e-4
            base = char_poly(X).array()
            q1 = (char_poly(X + t * Z).array() - base) / t
            q2 = (char_poly(X + 2 * t * Z).array() - base) / (2 * t)
            fd = 2 * q1 - q2  # second-order extrapolation to t = 0
            assert abs(fd[-1]) <= 1e-8  # both paths stay monic
            assert np.linalg.norm(got - fd[: len(got)]) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_rest_block_attaining_the_max_rejected(self):
        # a rest block below the max is accepted; B = [5] attains it
        spec = JordanSpec([(0.0, (2,))], B=np.array([[5.0]]))
        with pytest.raises(ValueError, match="rest block attains the max"):
            subderivative(spec, ABSC, np.zeros((3, 3)))

    def test_matches_the_cofactor_reference(self):
        rng = np.random.default_rng(15)
        derogatory = 0
        for _ in range(200):
            spec = random_spec(rng)
            Z = random_direction(rng, spec.n)
            got = char_poly_deriv_action(spec, Z)
            ref = _reference_char_poly_deriv_action(spec, Z)
            assert got.degree_bound == ref.degree_bound == spec.n - 1
            assert (np.linalg.norm(got.array() - ref.array())
                    <= 1e-12 * max(1.0, np.linalg.norm(ref.array())))
            derogatory += any(spec.q_j(j) > 1 for j in range(spec.num_eigs))
        assert derogatory >= 40

    @pytest.mark.parametrize("name", ["abscissa", "radius2", "radius"])
    def test_cli_subderivative_matches_the_reference(self, capsys, tmp_path, name):
        # half of the directions keep V = P Z P^{-1} upper triangular, so the
        # factor coordinates past the first vanish and the value is finite;
        # a derogatory active eigenvalue is refused with exit 2
        rng = np.random.default_rng(16 + len(name))
        f = builtin(name)
        spec_path, z_path = tmp_path / "spec.json", tmp_path / "Z.json"
        finite = refused = 0
        for k in range(60):
            spec = random_spec(rng)
            V = random_direction(rng, spec.n)
            Z = spec.Pinv @ (np.triu(V) if k % 2 else V) @ spec.P
            spec_path.write_text(json.dumps(spec_to_json(spec)))
            z_path.write_text(json.dumps(matrix_to_json(Z)))
            code = main(["subderivative", "matrix", str(spec_path), str(z_path), "--f", name])
            out = capsys.readouterr()
            _, active = declared_active(spec, f)
            if not all(spec.nonderogatory(j) for j in active):
                assert code == 2 and out.out == "" and "Jordan blocks" in out.err
                refused += 1
                continue
            got = json.loads(out.out)["value"]
            cluster = RootCluster.sorted((spec.eig_value(j), spec.n_j(j))
                                         for j in range(spec.num_eigs))
            ref = subderivative_f(cluster, f, _reference_char_poly_deriv_action(spec, Z))
            assert code == 0
            if math.isinf(ref):
                assert got == "inf"
            else:
                finite += 1
                assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))
        assert finite >= 20 and refused > 0


class TestGjDeriv:
    def test_adjoint_identity(self):
        # on a single Jordan block the Taylor coordinates of g_j'(X) Z are
        # -R_j^* vec Z
        rng = np.random.default_rng(4)
        for _ in range(200):
            spec = random_spec(rng, derogatory_ok=False)
            j = int(rng.integers(spec.num_eigs))
            Z = random_direction(rng, spec.n)
            mu = factor_coords(spec, j, Z)
            expect = -R_matrix(spec, [j]).conj().T @ Z.ravel()
            assert np.linalg.norm(mu - expect) <= 1e-12 * max(1.0, np.linalg.norm(expect))

    def test_adjoint_is_injective(self):
        # Z -> the coordinates of g_j'(X) Z is onto, so R_j has independent columns
        rng = np.random.default_rng(5)
        spec = JordanSpec([(0.5 + 0.5j, (3,))], P=random_P(rng, 3))
        rows = [factor_coords(spec, 0, E.reshape(3, 3)) for E in np.eye(9)]
        s = np.linalg.svd(np.stack(rows, axis=1), compute_uv=False)
        assert s.min() > 1e-8

    def test_matches_the_nilpotent_power_reference(self):
        rng = np.random.default_rng(17)
        derogatory = 0
        for _ in range(200):
            spec = random_spec(rng)
            Z = random_direction(rng, spec.n)
            for j in range(spec.num_eigs):
                lam, n_j = spec.eig_value(j), spec.n_j(j)
                ref = _reference_gj_deriv(spec, j, Z)
                assert ref.degree_bound == n_j - 1
                ref = np.array([taylor_coeff(ref, n_j - s, lam) for s in range(1, n_j + 1)])
                got = factor_coords(spec, j, Z)
                assert np.linalg.norm(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))
                derogatory += spec.q_j(j) > 1
        assert derogatory >= 40

    def test_derogatory_coordinates_stop_at_the_largest_block(self):
        # eigenvalue 0 with blocks (2, 1): mu_3 = 0, mu_1 sums both diagonals
        spec = JordanSpec([(0.0, (2, 1))])
        Z = np.arange(9, dtype=complex).reshape(3, 3)
        assert np.allclose(factor_coords(spec, 0, Z), [-(0 + 4 + 8), -3, 0])


class TestDetExpansion:
    def test_zero_shift(self):
        assert det_expansion_residual(3, np.zeros(3), [1.0, 1j]) == 0.0

    def test_quadratic_case_matches_hand_expansion(self):
        # det = (xi - lam0)^2 - lam1; linear part xi^2 - 2 lam0 xi - lam1
        lam = np.array([0.01, 0.02], dtype=complex)
        grid = [0.7, -0.3 + 0.4j]
        got = det_expansion_residual(2, lam, grid)
        expect = max(abs((xi - lam[0]) ** 2 - lam[1]
                         - (xi ** 2 - 2 * lam[0] * xi - lam[1])) for xi in grid)
        assert got == pytest.approx(expect / np.linalg.norm(lam))

    def test_first_order_vanishing_across_scales(self):
        rng = np.random.default_rng(6)
        grid = [np.exp(2j * np.pi * k / 8) for k in range(8)]
        for n in range(2, 7):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u /= np.linalg.norm(u)
            r_big = det_expansion_residual(n, 1e-2 * u, grid)
            r_small = det_expansion_residual(n, 1e-3 * u, grid)
            assert r_small <= r_big / 8

    def test_agrees_with_dense_determinant(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 5):
            lam = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            J = nilpotent(n)
            shift = sum(lam[s] * np.linalg.matrix_power(J.conj().T, s) for s in range(n))
            for xi in (0.3, -0.2 + 0.5j):
                M = xi * np.eye(n) - J - shift
                dense = np.linalg.det(M)
                linear = xi ** n - sum((n - s) * lam[s] * xi ** (n - s - 1) for s in range(n))
                resid = det_expansion_residual(n, lam, [xi]) * np.linalg.norm(lam)
                assert abs(dense - linear) == pytest.approx(resid, rel=1e-9, abs=1e-12)


class TestLambdaGrad:
    """The columns of R: the gradient of the s-th local eigenvalue
    coefficient map is column s over n_j - s."""

    def test_block_identity_coefficient(self):
        spec = JordanSpec([(0.0, (2,))])
        assert np.allclose(R_matrix(spec)[:, 0].reshape(2, 2) / 2, 0.5 * np.eye(2))

    def test_nilpotent_coefficient(self):
        spec = JordanSpec([(0.0, (2,))])
        assert np.allclose(R_matrix(spec)[:, 1].reshape(2, 2), nilpotent(2).conj().T)

    def test_derogatory_rejected(self):
        # only the listed eigenvalues need a single Jordan block
        spec = JordanSpec([(0.0, (1, 1)), (1.0, (2,))])
        assert R_matrix(spec, [1]).shape == (16, 2)
        with pytest.raises(DerogatoryEigenvalue):
            R_matrix(spec, [1, 0])

    def test_fd_against_active_factor_coefficients(self):
        # the degree-(n_j - s - 1) Taylor coefficient of the local monic
        # factor moves at rate -<R column s, Z> = mu_j,s+1 along X + tZ
        rng = np.random.default_rng(8)
        for _ in range(10):
            lam0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            spec = JordanSpec([(lam0, (2,)), (lam0 + 2.5, (1,))], P=random_P(rng, 3, 0.2))
            X = spec.synth()
            Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

            def factor_coeff(t, s):
                rts = np.roots(char_poly(X + t * Z).array()[::-1])
                near = sorted(rts, key=lambda r: abs(r - lam0))[:2]
                factor = Poly((-near[0], 1 + 0j)) * Poly((-near[1], 1 + 0j))
                base = elementary(2, lam0)
                return taylor_coeff(factor + (-1) * base, 2 - s - 1, lam0)

            for s in (0, 1):
                t = 1e-5
                d1 = factor_coeff(t, s) / t
                d2 = factor_coeff(2 * t, s) / (2 * t)
                fd = 2 * d1 - d2
                expect = -np.vdot(R_matrix(spec)[:, s], Z.ravel())
                assert abs(fd - expect) <= 1e-5 * max(1.0, abs(expect))
                assert abs(factor_coords(spec, 0, Z)[s] - expect) <= 1e-12 * max(1.0, abs(expect))


# -- the active factor as a re-laid-out spec ---------------------------------------


def _reference_active_factor(spec, f):
    """``(cluster, active_spec)``: the lex-ordered root cluster of the active
    eigenvalues and a fresh spec declaring exactly them, everything else
    folded into its rest block.  This is how the chain route built its map
    before ``R_matrix`` took a list of eigenvalues; it is kept as the
    reference that the permutation cancels."""
    _, active = declared_active(spec, f)
    inactive = [j for j in range(spec.num_eigs) if j not in active]
    cluster = RootCluster.sorted((spec.eig_value(j), spec.n_j(j)) for j in active)
    active_sorted = sorted(active, key=lambda j: lex_key(spec.eig_value(j)))
    perm = list(range(spec.n0))
    for j in inactive:
        perm.extend(range(spec.eig_slice(j).start, spec.eig_slice(j).stop))
    n0_new = len(perm)
    for j in active_sorted:
        perm.extend(range(spec.eig_slice(j).start, spec.eig_slice(j).stop))
    Pi = np.eye(spec.n)[perm, :]
    J_new = Pi @ spec.jordan_matrix() @ Pi.T
    active_spec = JordanSpec(
        [(spec.eig_value(j), spec.block_sizes(j)) for j in active_sorted],
        P=Pi @ spec.P,
        B=J_new[:n0_new, :n0_new],
    )
    return cluster, active_spec


def _reference_R_matrix(spec):
    """Columns vec(P^* (N_j^s)^* P^{-*}) over all declared eigenvalues, each
    formed as the full triple product with the embedded nilpotent power."""
    cols = []
    for j in range(spec.num_eigs):
        if not spec.nonderogatory(j):
            raise DerogatoryEigenvalue(f"eigenvalue {spec.eig_value(j)} is derogatory")
        for s in range(spec.n_j(j)):
            E = spec.embed_block(j, np.linalg.matrix_power(nilpotent(spec.n_j(j)), s))
            cols.append((spec.Pstar @ E.conj().T @ spec.Pinvstar).ravel())
    return np.stack(cols, axis=1)


def _stacked_R_matrix(spec, eigs):
    """R_matrix as it was written before its columns went into one array:
    one raveled product per column, then np.stack; it must reproduce these
    bytes."""
    cols = []
    for j in eigs:
        sl = spec.eig_slice(j)
        cols += [(spec.Pstar[:, sl.start + s: sl.stop] @ spec.Pinvstar[sl.start: sl.stop - s])
                 .ravel() for s in range(spec.n_j(j))]
    return np.stack(cols, axis=1)


def spec_with_rest(rng, f):
    """One to three active single-block eigenvalues of f (equal real parts
    for the abscissa, equal moduli for the radius), up to two inactive ones
    and a rest block of up to 2x2 well below the max."""
    k_act = int(rng.integers(1, 4))
    phi = rng.uniform(0, 2 * math.pi)
    if f is ABSC:
        lams = [1.0 + 1j * (1.2 * k + rng.uniform(-0.5, 0.5)) for k in range(k_act)]
        lams += [-1.0 + 1j * (1.2 * k + rng.uniform(-0.5, 0.5))
                 for k in range(int(rng.integers(0, 3)))]
    else:
        lams = [1.5 * cmath.exp(1j * (phi + 2 * math.pi * k / k_act)) for k in range(k_act)]
        lams += [0.9 * cmath.exp(1j * (phi + 2 * math.pi * (k + 0.5) / 2))
                 for k in range(int(rng.integers(0, 3)))]
    lams = [lams[k] for k in rng.permutation(len(lams))]  # declared order is not lex order
    sizes = [(int(rng.integers(1, 4)),) for _ in lams]
    n0 = int(rng.integers(0, 3))
    B = 0.15 * (rng.standard_normal((n0, n0)) + 1j * rng.standard_normal((n0, n0))) if n0 else None
    n = n0 + sum(s for s, in sizes)
    return JordanSpec(list(zip(lams, sizes)), P=random_P(rng, n, 0.2), B=B)


class TestActiveFactor:
    """The reference re-laid-out spec describes the same matrix."""

    def test_modulus_keeps_both_eigenvalues(self):
        cluster, aspec = _reference_active_factor(A_SPEC, RAD)
        assert cluster.roots == (-1 + 0j, 1 + 0j) and cluster.mults == (1, 2)
        assert aspec.n0 == 0 and aspec.num_eigs == 2
        assert np.allclose(aspec.synth(), A_MATRIX)

    def test_abscissa_drops_the_negative_eigenvalue(self):
        cluster, aspec = _reference_active_factor(A_SPEC, ABSC)
        assert cluster.roots == (1 + 0j,) and cluster.mults == (2,)
        assert aspec.num_eigs == 1 and aspec.n0 == 1
        assert np.allclose(aspec.synth(), A_MATRIX)
        assert np.allclose(aspec.B, [[-1.0]])

    def test_rest_block_cannot_be_active(self):
        spec = JordanSpec([(0.0, (2,))], B=np.array([[2.0]]))
        with pytest.raises(ValueError):
            _reference_active_factor(spec, ABSC)

    def test_reordered_similarity_is_consistent(self):
        rng = np.random.default_rng(9)
        spec = JordanSpec([(1.0, (2,)), (2.0, (1,)), (-3.0, (2,))], P=random_P(rng, 5, 0.2))
        cluster, aspec = _reference_active_factor(spec, ABSC)
        assert cluster.roots == (2 + 0j,)
        assert np.allclose(aspec.synth(), spec.synth(), atol=1e-9)


class TestRMap:
    def test_zero(self):
        M = R_matrix(A_SPEC)
        assert M.shape == (A_SPEC.n ** 2, A_SPEC.n - A_SPEC.n0)
        assert np.allclose(M @ np.zeros(A_SPEC.n - A_SPEC.n0), 0)

    def test_single_block_formula(self):
        spec = JordanSpec([(0.0, (2,))])
        v10, v11 = 0.3 - 0.2j, 1.5j
        Y = -(R_matrix(spec) @ [v10, v11]).reshape(2, 2)
        expect = -(v10 * np.eye(2) + v11 * nilpotent(2).conj().T)
        assert np.allclose(Y, expect)

    def test_injective_on_random_specs(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            spec = random_spec(rng, derogatory_ok=False)
            M = R_matrix(spec)
            ref = _reference_R_matrix(spec)
            assert np.linalg.norm(M - ref) <= 1e-12 * np.linalg.norm(ref)
            s = np.linalg.svd(M, compute_uv=False)
            assert s.min() > 1e-10
            v = rng.standard_normal(spec.n - spec.n0) * (1 + 0j)
            if np.linalg.norm(v) > 0:
                assert np.linalg.norm(M @ v) > 1e-12

    def test_derogatory_rejected(self):
        spec = JordanSpec([(0.0, (1, 1))])
        with pytest.raises(DerogatoryEigenvalue):
            R_matrix(spec)

    def test_bytes_match_the_stacked_columns(self):
        rng = np.random.default_rng(34)
        rests = 0
        for _ in range(40):
            spec = random_spec(rng, derogatory_ok=False) if rng.uniform() < 0.5 else \
                spec_with_rest(rng, ABSC)
            for k in range(1, spec.num_eigs + 1):
                eigs = [int(j) for j in rng.permutation(spec.num_eigs)[:k]]
                M = R_matrix(spec, eigs)
                ref = _stacked_R_matrix(spec, eigs)
                assert M.shape == ref.shape and M.flags.c_contiguous
                assert M.tobytes() == ref.tobytes(), (spec, eigs)
            assert R_matrix(spec).tobytes() == \
                _stacked_R_matrix(spec, range(spec.num_eigs)).tobytes()
            rests += spec.n0 > 0
        assert rests >= 5

    @pytest.mark.parametrize("f", [ABSC, RAD])
    def test_active_columns_match_the_re_laid_out_spec(self, f):
        # R on the parent spec, restricted to the active eigenvalues in lex
        # order, against R of the re-laid-out spec: P -> Pi P cancels
        rng = np.random.default_rng(13 if f is ABSC else 14)
        inactive = rests = 0
        for _ in range(30):
            spec = spec_with_rest(rng, f)
            _, active = declared_active(spec, f)
            order = sorted(active, key=lambda j: lex_key(spec.eig_value(j)))
            _, aspec = _reference_active_factor(spec, f)
            M = _reference_R_matrix(aspec)
            assert np.linalg.norm(R_matrix(spec, order) - M) <= 1e-12 * np.linalg.norm(M)
            inactive += len(active) < spec.num_eigs
            rests += spec.n0 > 0
        assert inactive >= 10 and rests >= 10


def test_spec_json_roundtrip():
    rng = np.random.default_rng(11)
    spec = JordanSpec([(1 + 2j, (2, 1)), (-0.5j, (1,))], P=random_P(rng, 4, 0.2),
                      B=None)
    back = spec_from_json(spec_to_json(spec))
    assert back.eigs == spec.eigs
    assert np.allclose(back.P, spec.P)

    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(matrix_from_json(matrix_to_json(M)), M)
    with pytest.raises(ValueError):
        matrix_from_json([[1, 2], [3]])

    # a rest block travels as "B"
    B = np.array([[-1.0, 0.5], [0.0, -2.0j]])
    spec = JordanSpec([(1.0, (2,))], P=random_P(rng, 4, 0.2), B=B)
    data = spec_to_json(spec)
    back = spec_from_json(data)
    assert "B" in data and np.array_equal(back.B, B)
    assert back.eigs == spec.eigs and back.n0 == 2
    assert np.allclose(back.P, spec.P)
