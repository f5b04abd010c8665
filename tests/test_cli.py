import json
import math
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import specmax
from specmax.cli import main
from specmax.fixtures import fixture_derogatory, fixture_two_active
from specmax.generators import builtin
from specmax.jordan import JordanSpec, matrix_to_json, spec_to_json
from specmax.oracles import fd_phi_quotient


@pytest.fixture
def paths(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


A = np.array([[1, 1, 0], [0, 1, 0], [0, 0, -1]], dtype=complex)


class TestEval:
    def test_two_active_fixture(self, capsys, paths):
        mpath = paths("A.json", matrix_to_json(A))
        code, out = run(capsys, ["eval", mpath, "--f", "radius"])
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(1.0)
        assert len(payload["active"]) == 2

    def test_zero_matrix(self, capsys, paths):
        mpath = paths("Z.json", matrix_to_json(np.zeros((3, 3))))
        code, out = run(capsys, ["eval", mpath, "--f", "radius"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.0)

    @pytest.mark.filterwarnings("error")
    def test_diagonal_abscissa(self, capsys, paths):
        mpath = paths("D.json", matrix_to_json(np.diag([2.0, 1j])))
        code, out = run(capsys, ["eval", mpath, "--f", "abscissa"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.0)
        # eigenvalues whose difference overflows are far apart, not a warning
        mpath = paths("H.json", matrix_to_json(np.array([[1e308, 1e308], [1e308, 1.0]])))
        code = main(["eval", mpath, "--f", "abscissa"])
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        assert json.loads(out.out)["multiplicities"] == [1, 1]

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["eval", str(bad), "--f", "radius"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith(f"error: cannot read {bad}: ")
        assert out.err.count("\n") == 1 and "Traceback" not in out.err

    def test_unknown_generator_exits_2(self, capsys, paths):
        mpath = paths("A.json", matrix_to_json(A))
        code = main(["eval", mpath, "--f", "nope"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert re.fullmatch(r"error: unknown generator 'nope'; choose from \[.*\]\n", out.err)

    def test_non_square_matrix_exits_2(self, capsys, paths):
        mpath = paths("R.json", matrix_to_json(np.ones((2, 3))))
        code = main(["eval", mpath, "--f", "abscissa"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "square" in out.err

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_matrix_exits_2(self, capsys, paths, entry):
        M = np.eye(3, dtype=complex)
        M[1, 2] = entry
        code = main(["eval", paths("M.json", matrix_to_json(M)), "--f", "abscissa"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "matrix must be finite" in out.err


class TestMembership:
    def test_derogatory_member_exit_zero(self, capsys, paths):
        spath = paths("B.json", spec_to_json(fixture_derogatory()))
        ypath = paths("Y.json", matrix_to_json(np.eye(3) / 3))
        code, out = run(capsys, ["membership", spath, ypath, "--f", "radius"])
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_derogatory_nonmember_reports_equal_diagonals(self, capsys, paths):
        spath = paths("B.json", spec_to_json(fixture_derogatory()))
        ypath = paths("M.json", matrix_to_json(np.diag([0.0, 0.0, 1.0])))
        code, out = run(capsys, ["membership", spath, ypath, "--f", "radius"])
        assert code == 1
        conds = [v["condition"] for v in json.loads(out)["failed_conditions"]]
        assert "equal_diagonals" in conds

    def test_two_active_identity_rejected(self, capsys, paths):
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        ypath = paths("I.json", matrix_to_json(np.eye(3)))
        code, _ = run(capsys, ["membership", spath, ypath, "--f", "radius"])
        assert code == 1

    def test_chain_route(self, capsys, paths):
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        ypath = paths("Y.json", matrix_to_json(np.diag([0.25, 0.25, -0.5])))
        code, out = run(capsys, ["membership", spath, ypath, "--f", "radius2",
                                 "--set", "chain"])
        assert code == 0 and json.loads(out)["verdict"] is True

    def test_limiting_structure_route(self, capsys, paths):
        spath = paths("B.json", spec_to_json(fixture_derogatory()))
        ypath = paths("M.json", matrix_to_json(np.diag([0.0, 0.0, 1.0])))
        code, out = run(capsys, ["membership", spath, ypath, "--f", "radius",
                                 "--set", "limiting-structure"])
        assert code == 0
        assert json.loads(out) == {"details": {}, "failed_conditions": [], "verdict": True}

    def test_limiting_structure_failure(self, capsys, paths):
        # W[2, 1] couples the 1x1 block to the 2x2 block's top row, which a
        # rectangular lower-triangular Toeplitz pattern keeps zero
        Y = np.diag([0.0, 0.0, 1.0])
        Y[2, 1] = 0.5
        spath = paths("B.json", spec_to_json(fixture_derogatory()))
        code, out = run(capsys, ["membership", spath, paths("M.json", matrix_to_json(Y)),
                                 "--f", "radius", "--set", "limiting-structure"])
        assert code == 1
        assert json.loads(out) == {"details": {}, "verdict": False, "failed_conditions": [
            {"condition": "toeplitz", "residual": 0.5, "where": "eig0[1,0]"}]}

    def test_recession_route(self, capsys, paths):
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        ypath = paths("Z.json", matrix_to_json(np.zeros((3, 3))))
        code, _ = run(capsys, ["membership", spath, ypath, "--f", "radius",
                               "--set", "recession"])
        assert code == 0


    @pytest.mark.parametrize("kind", ["recession", "limiting-structure", "rsd", "chain"])
    def test_nan_candidate_exits_2(self, capsys, paths, kind):
        # json reads a NaN literal, so the candidate file may carry one
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        ypath = paths("N.json", matrix_to_json(np.full((3, 3), np.nan)))
        code = main(["membership", spath, ypath, "--f", "abscissa", "--set", kind])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "candidate must be finite" in out.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f,lam", [("abscissa", 1.0), ("radius2", 1.0), ("radius", 0.0)])
    def test_finite_candidate_whose_norm_overflows_is_judged(self, capsys, paths, f, lam):
        # numpy's Frobenius norm of [[1e160]] overflows; the candidate is finite
        spath = paths("S.json", {"eigs": [{"lambda": [lam, 0.0], "blocks": [1]}]})
        code = main(["membership", spath, paths("Y.json", [[[1e160, 0.0]]]), "--f", f])
        out = capsys.readouterr()
        assert code == 1 and out.err == ""
        assert json.loads(out.out)["verdict"] is False
        code = main(["membership", spath, paths("I.json", [[[math.inf, 0.0]]]), "--f", f])
        out = capsys.readouterr()
        assert code == 2 and "candidate must be finite" in out.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["rsd", "recession", "limiting-structure", "chain"])
    def test_candidate_whose_W_overflows_exits_2(self, capsys, paths, kind):
        # |Y| is finite, but W = P^-* Y P^* would read 4e308 below the diagonal
        spec = JordanSpec([(1.0, (2,)), (-1.0, (1,))], P=np.diag([2.0, 0.5, 1.0]))
        Y = np.diag([0.5, 0.5, 0.0]).astype(complex)
        Y[1, 0] = 1e308
        spath, ypath = paths("S.json", spec_to_json(spec)), paths("Y.json", matrix_to_json(Y))
        code = main(["membership", spath, ypath, "--f", "abscissa", "--set", kind])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "the candidate overflows in" in out.err

    def test_wrong_size_candidate_exits_2(self, capsys, paths):
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        ypath = paths("Y.json", matrix_to_json(np.eye(2)))
        code = main(["membership", spath, ypath, "--f", "abscissa", "--set", "chain"])
        assert code == 2
        assert "candidate must be 3x3" in capsys.readouterr().err


class TestSubderivative:
    def test_poly_variant(self, capsys, paths):
        ppath = paths("p.json", [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])  # lambda^2
        vpath = paths("v.json", [[0.0, 0.0], [1.0, 0.0]])              # lambda
        code, out = run(capsys, ["subderivative", "poly", ppath, vpath,
                                 "--f", "abscissa"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-0.5)

    def test_poly_variant_divergent(self, capsys, paths):
        ppath = paths("p.json", [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        vpath = paths("v.json", [[-1.0, 0.0]])
        code, out = run(capsys, ["subderivative", "poly", ppath, vpath,
                                 "--f", "abscissa"])
        assert code == 0
        assert json.loads(out)["value"] == "inf"

    def test_poly_variant_reads_a_direction_with_trailing_zeros(self, capsys, paths):
        ppath = paths("p.json", [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        answers = []
        for v in ([[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]):
            vpath = paths("v.json", v)
            answers.append(run(capsys, ["subderivative", "poly", ppath, vpath,
                                        "--f", "abscissa"]))
        assert answers[0] == answers[1]
        code, out = answers[0]
        assert code == 0 and json.loads(out)["value"] == pytest.approx(0.0)

    def test_poly_variant_refuses_a_true_degree_3_direction(self, capsys, paths):
        ppath = paths("p.json", [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        vpath = paths("v.json", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        code = main(["subderivative", "poly", ppath, vpath, "--f", "abscissa"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err == "error: degree of v exceeds 2\n"

    @pytest.mark.filterwarnings("error")
    def test_poly_whose_monic_coefficients_overflow_exits_2(self, capsys, paths):
        # 1e100 + 1e-250 lambda is finite, but its monic form 1e350 + lambda is not
        ppath = paths("p.json", [[1e100, 0.0], [1e-250, 0.0]])
        vpath = paths("v.json", [[1.0, 0.0]])
        code = main(["subderivative", "poly", ppath, vpath, "--f", "abscissa"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: the monic coefficients of p overflow: powers [0]")

    def test_matrix_variant(self, capsys, paths):
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        zpath = paths("Z.json", matrix_to_json(np.eye(3)))
        code, out = run(capsys, ["subderivative", "matrix", spath, zpath,
                                 "--f", "abscissa"])
        assert code == 0
        # shifting by the identity moves every eigenvalue at unit speed
        assert json.loads(out)["value"] == pytest.approx(1.0)

    def test_derogatory_eigenvalue_in_the_matrix_variant(self, capsys, paths):
        # X = 0 with blocks (1, 1): phi(tZ) = t max Re lambda(Z), so the
        # subderivative is 1, which the factor coordinates cannot reach
        spath = paths("S.json", {"eigs": [{"lambda": [0, 0], "blocks": [1, 1]}]})
        Z = np.diag([1.0, -1.0])
        zpath = paths("Z.json", matrix_to_json(Z))
        fd = fd_phi_quotient(JordanSpec([(0.0, (1, 1))]), builtin("abscissa"), Z)
        assert np.allclose(fd.quotients, 1.0)
        code = main(["subderivative", "matrix", spath, zpath, "--f", "abscissa"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "eigenvalue 0j has 2 Jordan blocks" in out.err

    def test_derogatory_eigenvalue_beside_an_inactive_one_exits_2(self, capsys, paths):
        # lambda = 1 with blocks (1, 1) and -1 with (1), V = P Z P^{-1} =
        # [[1, .5], [0, -1]] + [0]: phi(X + tZ) = 1 + t, so the subderivative is 1
        spec = JordanSpec([(1.0, (1, 1)), (-1.0, (1,))],
                          P=np.eye(3) + 0.25 * np.random.default_rng(10).standard_normal((3, 3)))
        V = np.zeros((3, 3), dtype=complex)
        V[:2, :2] = [[1.0, 0.5], [0.0, -1.0]]
        Z = spec.Pinv @ V @ spec.P
        fd = fd_phi_quotient(spec, builtin("abscissa"), Z)
        assert np.allclose(fd.quotients, 1.0)
        spath, zpath = paths("S.json", spec_to_json(spec)), paths("Z.json", matrix_to_json(Z))
        code = main(["subderivative", "matrix", spath, zpath, "--f", "abscissa"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "eigenvalue (1+0j) has 2 Jordan blocks" in out.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", [1.0, 1e150, 1e160])
    def test_matrix_variant_off_the_ray_is_inf_at_any_size(self, capsys, paths, size):
        # J_2(1) under radius2: a second coordinate off the ray through
        # g^2 = 1 gives inf, also where numpy's norm of the block overflows
        spath = paths("S.json", spec_to_json(JordanSpec([(1.0, (2,))])))
        Z = np.zeros((2, 2), dtype=complex)
        Z[1, 0] = size * 1j
        zpath = paths("Z.json", matrix_to_json(Z))
        code, out = run(capsys, ["subderivative", "matrix", spath, zpath, "--f", "radius2"])
        assert code == 0 and json.loads(out)["value"] == "inf"

    def test_matrix_variant_at_a_zero_radius(self, capsys, paths):
        # J_2(0): (1 + t) J_2(0) keeps the spectrum at 0, so the value is 0
        spath = paths("S.json", {"eigs": [{"lambda": [0, 0], "blocks": [2]}]})
        zpath = paths("Z.json", matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])))
        code, out = run(capsys, ["subderivative", "matrix", spath, zpath, "--f", "radius"])
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_matrix_variant_with_a_nan_direction_exits_2(self, capsys, paths):
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        Z = np.eye(3)
        Z[1, 0] = np.nan
        zpath = paths("Z.json", matrix_to_json(Z))
        code = main(["subderivative", "matrix", spath, zpath, "--f", "abscissa"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "direction must be finite" in out.err

    def test_matrix_variant_with_a_rest_block_below_the_max_exits_0(self, capsys, paths):
        # J_2(1) + [-1] along Z = I: the active J_2 block moves by t
        spec = {"eigs": [{"lambda": [1.0, 0.0], "blocks": [2]}], "B": [[[-1.0, 0.0]]]}
        spath = paths("S.json", spec)
        zpath = paths("Z.json", matrix_to_json(np.eye(3)))
        code = main(["subderivative", "matrix", spath, zpath, "--f", "abscissa", "--json"])
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        assert json.loads(out.out) == {"value": 1.0, "kind": "matrix"}


HUGE = 10 ** 400  # a JSON integer that no float holds
ONE_EIG = {"eigs": [{"lambda": [1.0, 0.0], "blocks": [1]}]}


class TestMalformedNumbers:
    """A JSON integer too large for a float is malformed input: exit 2 with
    the reader's message, never a traceback."""

    @pytest.mark.parametrize("command,files,reader", [
        (["eval"], [[[[HUGE, 0]]]], "matrix"),
        (["membership"], [{"eigs": [{"lambda": [HUGE, 0], "blocks": [1]}]}, [[[1.0, 0.0]]]],
         "spec"),
        (["membership"], [ONE_EIG, [[[HUGE, 0]]]], "matrix"),
        (["subderivative", "poly"], [[[HUGE, 0]], [[1.0, 0.0]]], "polynomial"),
    ], ids=["eval-matrix", "membership-spec", "membership-candidate", "subderivative-poly"])
    def test_integer_too_large_for_a_float_exits_2(self, capsys, paths, command, files, reader):
        argv = command + [paths(f"{k}.json", data) for k, data in enumerate(files)]
        code = main(argv + ["--f", "abscissa"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err == f"error: malformed {reader} JSON: int too large to convert to float\n"


class TestDomainErrors:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb,f", [
        (["membership"], "radius2"), (["verify"], "radius2"),
        (["subderivative", "matrix"], "radius2"), (["verify"], "radius"),
    ], ids=["verb0-radius2", "verb1-radius2", "verb2-radius2", "verb1-radius"])
    def test_modulus_past_the_square_range_exits_3(self, capsys, paths, verb, f):
        # radius2's |lambda|^2 / 2 overflows to inf, outside its domain; the
        # radius's calculus runs on |z|^2 / (2 rho), but the suite of verify
        # needs |X|, which numpy's norm squares into an overflow
        spath = paths("S.json", {"eigs": [{"lambda": [1e155, 0.0], "blocks": [1]}]})
        ypath = paths("Y.json", matrix_to_json(np.eye(1)))
        argv = verb + [spath] + ([] if verb == ["verify"] else [ypath]) + ["--f", f]
        code = main(argv)
        out = capsys.readouterr()
        assert code == 3 and out.out == ""
        assert out.err.startswith("domain error")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb", [["membership"], ["subderivative", "matrix"]],
                             ids=["membership", "subderivative"])
    def test_radius_calculus_runs_past_the_square_range(self, capsys, paths, verb):
        spath = paths("S.json", {"eigs": [{"lambda": [1e155, 0.0], "blocks": [1]}]})
        ypath = paths("Y.json", matrix_to_json(np.eye(1)))
        code = main(verb + [spath, ypath, "--f", "radius"])
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        payload = json.loads(out.out)
        if verb == ["membership"]:
            assert payload["verdict"] is True
        else:
            assert payload["value"] == 1.0

    @pytest.mark.filterwarnings("error")
    def test_verify_refuses_a_matrix_whose_norm_overflows(self, capsys, paths):
        # |X| of J_2(1e155) reads inf, so the suite's noise term would be inf
        # and no direction could fail
        spath = paths("J.json", {"eigs": [{"lambda": [1e155, 0.0], "blocks": [2]}]})
        code = main(["verify", spath, "--f", "abscissa", "--samples", "100"])
        out = capsys.readouterr()
        assert code == 3 and out.out == ""
        assert out.err.startswith("domain error")


class TestWorkedExamples:
    def test_all_pass(self, capsys):
        code, out = run(capsys, ["paper-examples", "--nu", "10"])
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 12

    def test_json_output(self, capsys):
        code, out = run(capsys, ["paper-examples", "--nu", "5", "--json"])
        payload = json.loads(out)
        assert code == 0 and payload["all_passed"]
        assert len(payload["checks"]) == 12

    @pytest.mark.parametrize("nu_count", [0, -1])
    def test_empty_sequence_rejected(self, nu_count):
        from specmax.fixtures import worked_example_checks

        with pytest.raises(ValueError, match="at least one member"):
            worked_example_checks(nu_count=nu_count)

    def test_byte_identical_output(self, capsys):
        _, out1 = run(capsys, ["paper-examples", "--nu", "3", "--json"])
        _, out2 = run(capsys, ["paper-examples", "--nu", "3", "--json"])
        assert out1 == out2


class TestVerify:
    def test_nonderogatory_spec_passes(self, capsys, paths):
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        code, out = run(capsys, ["verify", spath, "--f", "abscissa",
                                 "--samples", "50", "--seed", "1"])
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] and payload["violations"] == 0

    def test_derogatory_spec_includes_witness(self, capsys, paths):
        spath = paths("B.json", spec_to_json(fixture_derogatory()))
        code, out = run(capsys, ["verify", spath, "--f", "radius",
                                 "--samples", "20", "--nu", "10"])
        payload = json.loads(out)
        assert code == 0
        assert payload["witness"]["ok"]

    @pytest.mark.parametrize("spec", [JordanSpec([(0.0, (1, 1)), (-1e-6, (1,))]),
                                      JordanSpec([(0.0, (2, 1))], B=np.array([[-1e-6]]))],
                             ids=["declared", "rest"])
    def test_witness_members_too_close_exit_2(self, capsys, paths, spec):
        # an eigenvalue 1e-6 away makes the witness's steps 2.5e-7 / nu,
        # which stay apart from 0 up to nu = 24
        spath = paths("S.json", spec_to_json(spec))
        argv = ["verify", spath, "--f", "abscissa", "--samples", "20"]
        assert main(argv + ["--nu", "24"]) == 0
        capsys.readouterr()
        for nu in ("25", "50"):
            assert main(argv + ["--nu", nu]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: a witness of {nu} members")
            assert "at most 24 members fit" in err and "Traceback" not in err

    def test_radius_runs_both_routes(self, capsys, paths):
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        code, out = run(capsys, ["verify", spath, "--f", "radius",
                                 "--samples", "300", "--seed", "2"])
        payload = json.loads(out)
        assert code == 0 and payload["ok"]
        assert payload["members_checked"] == 3
        assert payload["cross_route_failures"] == 0

    @pytest.mark.parametrize("f,size", [("radius", 3), ("ell1", 2), ("ell1", 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_corner_regime_specs_pass(self, capsys, paths, f, size, seed):
        # the radius and ell1 at a nilpotent J_size(0): members are drawn in
        # factor coordinates, so the corner regime is checked like the smooth one
        spath = paths("J.json", {"eigs": [{"lambda": [0.0, 0.0], "blocks": [size]}]})
        code, out = run(capsys, ["verify", spath, "--f", f, "--samples", "200",
                                 "--seed", str(seed)])
        payload = json.loads(out)
        assert code == 0 and payload["ok"]
        assert payload["cross_route_failures"] == 0 and payload["violations"] == 0

    @pytest.mark.xfail(strict=True, raises=ZeroDivisionError,
                       reason="ROADMAP item 23: rsd_sample divides by |lambda|^4, radius2's "
                       "halfplane normal squared, which underflows to 0 at lambda = 1e-100")
    def test_tiny_eigenvalue_under_radius2_passes(self, capsys, paths):
        spath = paths("T.json", {"eigs": [{"lambda": [1e-100, 0.0], "blocks": [2]}]})
        assert main(["verify", spath, "--f", "radius2", "--samples", "100"]) == 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the slack is calibrated from "
                       "the maximizing branch only, so a second branch with the larger "
                       "derivative, which takes over only below t = 1e-4, is missed")
    def test_member_with_a_late_branch_passes(self, capsys, paths):
        # radius2 at three simple eigenvalues, two of them tied active
        # (|lambda| = 2.031), cond(P) = 2.2: the member drawn with this seed
        # is reported as violating, by 1.5e-6, in suite direction 101 (a sampled one)
        spec = {"eigs": [
            {"lambda": [-1.3038826867832283, 1.5571715322059996], "blocks": [1]},
            {"lambda": [-0.5942715312781202, -1.9420954118472626], "blocks": [1]},
            {"lambda": [-0.8119814806825486, -0.9982275657522041], "blocks": [1]}],
            "P": [[[1.314427107137266, 0.0025941380756381908],
                   [-0.417066422047504, -0.05755356220135035],
                   [0.1107287285431839, 0.06101892245942131]],
                  [[-0.2039463853500378, -0.06818252509240232],
                   [1.106501133430791, 0.015093694396381944],
                   [0.21981304043604158, -0.1880308192082958]],
                  [[0.22076846421089125, 0.19676324340511106],
                   [0.08219997390269554, -0.21596505094463153],
                   [0.9640384420377573, 0.06459840459158601]]]}
        code, out = run(capsys, ["verify", paths("late.json", spec), "--f", "radius2",
                                 "--samples", "100", "--seed", "641630397"])
        payload = json.loads(out)
        assert payload["cross_route_failures"] == 0
        assert code == 0 and payload["violations"] == 0

    def test_neither_regime_exits_2(self, capsys, paths):
        # ell1 is linear near -0.3+0.1i: neither smooth curvature nor a corner
        spath = paths("J2.json", {"eigs": [{"lambda": [-0.3, 0.1], "blocks": [2]}]})
        code = main(["verify", spath, "--f", "ell1", "--samples", "20"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "neither supported regime" in captured.err

    @pytest.mark.parametrize("eig,message", [
        ({"lambda": [0.0, 0.0], "blocks": [1.7]}, "block sizes must be positive integers"),
        ({"lambda": [float("nan"), 0.0], "blocks": [1]}, "eigenvalue must be finite"),
    ], ids=["fractional-block", "nan-eigenvalue"])
    def test_invalid_declaration_exits_2(self, capsys, paths, eig, message):
        spath = paths("S.json", {"eigs": [eig, {"lambda": [-1.0, 0.0], "blocks": [1]}]})
        code = main(["verify", spath, "--f", "abscissa", "--samples", "10", "--json"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert message in out.err

    def test_bad_seed_type_exits_2(self, capsys, paths):
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        code, _ = run(capsys, ["verify", spath, "--f", "abscissa", "--seed", "x"])
        assert code == 2


class TestOutPath:
    @staticmethod
    def _argv(verb, paths):
        if verb == "eval":
            return ["eval", paths("A.json", matrix_to_json(A)), "--f", "radius"]
        if verb == "verify":
            return ["verify", paths("S.json", spec_to_json(fixture_two_active())),
                    "--f", "abscissa", "--samples", "20"]
        return ["paper-examples", "--nu", "3"] + (["--json"] if verb.endswith("json") else [])

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("verb", ["eval", "verify", "paper-examples", "paper-examples-json"])
    def test_unwritable_out_exits_2(self, capsys, paths, tmp_path, verb, target):
        out = tmp_path / "no" / "such" / "x.json" if target == "missing-dir" else tmp_path
        code = main(self._argv(verb, paths) + ["--out", str(out)])  # no exception escapes
        err = capsys.readouterr()
        assert code == 2 and err.out == ""
        assert f"cannot write {out}" in err.err and "Traceback" not in err.err

    @pytest.mark.parametrize("verb", ["paper-examples", "paper-examples-json"])
    def test_out_file_holds_what_stdout_shows(self, capsys, paths, tmp_path, verb):
        out = tmp_path / "x.txt"
        code, shown = run(capsys, self._argv(verb, paths) + ["--out", str(out)])
        assert code == 0 and shown.endswith("passed\n" if verb == "paper-examples" else "}\n")
        assert out.read_text() == shown


class TestCountFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["verify", "{spec}", "--f", "abscissa", "--nu", "0"], "--nu"),
        (["verify", "{spec}", "--f", "abscissa", "--nu", "-3"], "--nu"),
        (["verify", "{spec}", "--f", "abscissa", "--samples", "-5"], "--samples"),
        (["paper-examples", "--nu", "0"], "--nu"),
    ])
    def test_counts_below_the_minimum_exit_2(self, capsys, paths, argv, flag):
        spath = paths("B.json", spec_to_json(fixture_derogatory()))
        code = main([a.format(spec=spath) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {flag}: must be at least" in captured.err

    def test_zero_samples_still_runs_the_probes(self, capsys, paths):
        spath = paths("A.json", spec_to_json(fixture_two_active()))
        code, out = run(capsys, ["verify", spath, "--f", "abscissa", "--samples", "0"])
        assert code == 0 and json.loads(out)["ok"]


class TestToleranceFlags:
    @pytest.mark.parametrize("argv", [
        ["eval", "{m}", "--f", "abscissa"],
        ["membership", "{s}", "{m}", "--f", "abscissa", "--set", "chain"],
        ["subderivative", "poly", "{p}", "{p}", "--f", "abscissa"],
        ["paper-examples"],
        ["verify", "{s}", "--f", "abscissa"],
    ], ids=lambda argv: argv[0])
    def test_tol_is_not_an_option(self, capsys, paths, argv):
        files = {"m": paths("M.json", matrix_to_json(np.eye(3))),
                 "s": paths("S.json", spec_to_json(fixture_two_active())),
                 "p": paths("p.json", [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])}
        code = main([a.format(**files) for a in argv] + ["--tol", "1e-8"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "unrecognized arguments: --tol" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_cluster_tol_must_be_finite_and_nonnegative(self, capsys, paths, value):
        ppath = paths("p.json", [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])  # lambda^2 - 1
        vpath = paths("v.json", [[1.0, 0.0]])
        code = main(["subderivative", "poly", ppath, vpath, "--f", "abscissa",
                     f"--cluster-tol={value}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "argument --cluster-tol: must be at least 0.0 and finite" in captured.err

    def test_cluster_tol_declares_the_root_structure(self, capsys, paths):
        ppath = paths("p.json", [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])  # lambda^2 - 1
        vpath = paths("v.json", [[1.0, 0.0]])
        for value in ("0", "1e-6"):
            code, out = run(capsys, ["subderivative", "poly", ppath, vpath, "--f", "abscissa",
                                     "--cluster-tol", value])
            assert code == 0 and json.loads(out)["value"] == pytest.approx(-0.5)


class TestVerbs:
    def test_stabilize_is_an_invalid_choice(self, capsys, paths):
        code = main(["stabilize", paths("fam.json", {})])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "invalid choice: 'stabilize'" in captured.err


class TestParserReuse:
    def test_no_state_leaks_between_calls(self, capsys, paths, tmp_path):
        from specmax import cli

        spath = paths("A.json", spec_to_json(fixture_two_active()))
        out_file = tmp_path / "first.json"
        first = ["verify", spath, "--f", "abscissa", "--samples", "30", "--seed", "4",
                 "--json", "--out", str(out_file)]
        plain = ["verify", spath, "--f", "abscissa", "--samples", "30"]
        examples = ["paper-examples", "--nu", "3"]

        fresh = []
        for argv in (first, plain, examples):
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, argv))
        out_file.unlink()

        reused = [run(capsys, first)]
        assert run(capsys, ["verify", spath, "--f", "abscissa", "--nu", "0"])[0] == 2
        reused += [run(capsys, plain), run(capsys, examples)]
        assert reused == fresh
        assert json.loads(reused[0][1])["seed"] == 4
        assert json.loads(reused[1][1])["seed"] == 0
        assert json.loads(out_file.read_text()) == json.loads(reused[0][1])
        out_file.unlink()
        run(capsys, plain)
        assert not out_file.exists()
        assert "PASS" in reused[2][1]  # text, not --json


class TestImport:
    def test_import_loads_no_scipy(self):
        # every CLI call pays for what the package imports
        src = os.path.dirname(os.path.dirname(specmax.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, specmax; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.strip() == "[]"


    def test_every_export_resolves(self):
        # a fresh process, so a stale name in some __all__ cannot hide
        # behind a module another test imported first
        src = os.path.dirname(os.path.dirname(specmax.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import importlib, pkgutil, specmax\n"
                "for m in pkgutil.iter_modules(specmax.__path__):\n"
                "    mod = importlib.import_module('specmax.' + m.name)\n"
                "    for name in getattr(mod, '__all__', ()):\n"
                "        getattr(mod, name)\n"
                "    print(m.name, len(getattr(mod, '__all__', ())))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        counts = dict(line.split() for line in out.stdout.splitlines())
        assert {"cpoly", "polysub", "jordan", "specsub", "cli"} <= counts.keys()
        assert int(counts["jordan"]) > 0 and int(counts["cpoly"]) > 0

    def test_readme_names_resolve(self):
        # every backticked `module.name` of README.md that names a specmax
        # module, such as `jordan.R_matrix` or `specsub.STRUCT_TOL = 1e-9`,
        # resolves in a fresh process: removed code leaves no stale name
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
            spans = re.findall(r"`([^`\n]+)`", fh.read())
        modules = {m.name for m in pkgutil.iter_modules(specmax.__path__)}
        refs = sorted({m.groups() for span in spans for m in re.finditer(
            r"\b(?:specmax\.)?([a-z_]\w*)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", span)
            if m.group(1) in modules})
        assert ("jordan", "R_matrix") in refs
        src = os.path.dirname(os.path.dirname(specmax.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import importlib\n"
                f"for mod, name in {refs!r}:\n"
                "    obj = importlib.import_module('specmax.' + mod)\n"
                "    for part in name.split('.'):\n"
                "        obj = getattr(obj, part)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr


class TestScripts:
    def test_verify_random_specs_smoke(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(specmax.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "verify_random_specs.py"),
             "--specs", "4", "--members", "1", "--samples", "50"],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stdout + out.stderr
        assert "4/4 specs clean" in out.stdout


def test_xfail_reasons_name_roadmap_items(request):
    # an xfail names the open ROADMAP item that owns its defect; item numbers
    # are identifiers, never reused, so every cited number is a live heading
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "ROADMAP.md"), encoding="utf-8") as fh:
        items = set(re.findall(r"^### (\d+)\.", fh.read(), flags=re.M))
    for item in request.session.items:
        for mark in item.iter_markers("xfail"):
            reason = mark.kwargs.get("reason", "")
            cited = re.match(r"ROADMAP item (\d+)\b", reason)
            assert cited, f"{item.nodeid}: {reason!r}"
            assert cited.group(1) in items, f"{item.nodeid}: no heading '### {cited.group(1)}.'"
