import csv
import io
import json
import math

import pytest
from click.testing import CliRunner

from sliceregular import suites
from sliceregular.cli import cli
from sliceregular.laplace import exp_transform_closed_form
from sliceregular.quaternion import Quaternion, quat_from_list
from sliceregular.series import Side


@pytest.fixture
def runner():
    return CliRunner()


EXP_J = json.dumps({"kind": "exp", "b": [0, 0, 1, 0]})
PROBES_3 = json.dumps({"points": [[2, 0, 0, 0], [1, 1, 0, 0], [1, 0, 0, 2]]})
SERIES_F = json.dumps({"side": "left", "coeffs": [[1, 0, 0, 0], [0, 1, 0, 0]]})
SERIES_PAIR = json.dumps({"f": json.loads(SERIES_F), "g": json.loads(SERIES_F)})
TABLE_EXP = json.dumps({"function": "exp"})


class TestTransform:
    def test_exp_jt_against_closed_form(self, runner):
        result = runner.invoke(cli, ["transform", "--input", EXP_J,
                                     "--probes", PROBES_3])
        assert result.exit_code == 0, result.output
        records = json.loads(result.output)["records"]
        assert len(records) == 3
        for rec in records:
            s = quat_from_list(rec["s"])
            value = quat_from_list(rec["value"])
            # closed form (s^2+1)^{-1} (s+j)
            ss = s * s + Quaternion(1, 0, 0, 0)
            expected = ss.inverse() * (s + Quaternion(0, 0, 1, 0))
            assert (value - expected).norm() <= 1e-6
            assert rec["est_error"] < 1e-6

    def test_constant_one_at_two(self, runner):
        result = runner.invoke(cli, [
            "transform", "--input", json.dumps({"kind": "poly", "coeffs": [[1, 0, 0, 0]]}),
            "--probes", json.dumps({"points": [[2, 0, 0, 0]]})])
        assert result.exit_code == 0
        rec = json.loads(result.output)["records"][0]
        assert abs(rec["value"][0] - 0.5) <= 1e-8
        assert rec["value"][1:] == [0.0, 0.0, 0.0]

    def test_empty_probes(self, runner):
        result = runner.invoke(cli, ["transform", "--input", EXP_J,
                                     "--probes", json.dumps({"points": []})])
        assert result.exit_code == 0
        assert json.loads(result.output)["records"] == []

    def test_grid_canonical_order(self, runner):
        probes = json.dumps({"grid": {"re": [1, 2, 2], "units": ["j", "i"], "im": [0.5, 1.0, 2]}})
        result = runner.invoke(cli, ["transform", "--input", EXP_J, "--probes", probes])
        assert result.exit_code == 0
        records = json.loads(result.output)["records"]
        ss = [r["s"] for r in records]
        assert ss == [
            [1.0, 0.0, 0.5, 0.0], [1.0, 0.0, 1.0, 0.0],
            [1.0, 0.5, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
            [2.0, 0.0, 0.5, 0.0], [2.0, 0.0, 1.0, 0.0],
            [2.0, 0.5, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
        ]

    def test_domain_violation_listed_per_probe(self, runner):
        spec = json.dumps({"kind": "exp", "b": [1, 0, 0, 0]})  # order 1
        probes = json.dumps({"points": [[2, 0, 0, 0], [0.5, 0, 0, 0]]})
        result = runner.invoke(cli, ["transform", "--input", spec, "--probes", probes])
        assert result.exit_code == 1
        records = json.loads(result.output)["records"]
        assert "value" in records[0]
        assert "error" in records[1]

    def test_right_side(self, runner):
        spec = json.dumps({"kind": "exp", "b": [0, 0, 1, 0], "side": "right"})
        result = runner.invoke(cli, ["transform", "--input", spec,
                                     "--probes", json.dumps({"points": [[1, 2, 0, 0]]})])
        assert result.exit_code == 0
        value = quat_from_list(json.loads(result.output)["records"][0]["value"])
        assert (value - Quaternion(0.3, -0.4, -0.1, 0.2)).norm() <= 1e-6

    def test_right_scale_against_closed_form(self, runner):
        # the left transform of f(t) c is F(s) c
        b, factor = Quaternion(0.2, 0, 1, 0), Quaternion(1, 0.5, 0, -1)
        spec = json.dumps({"kind": "scale", "factor": factor.to_list(), "where": "right",
                           "inner": {"kind": "exp", "b": b.to_list()}})
        result = runner.invoke(cli, ["transform", "--input", spec, "--probes", PROBES_3])
        assert result.exit_code == 0, result.output
        closed = exp_transform_closed_form(b, Side.LEFT)
        for rec in json.loads(result.output)["records"]:
            expected = closed(quat_from_list(rec["s"])) * factor
            assert (quat_from_list(rec["value"]) - expected).norm() <= rec["est_error"]

    @pytest.mark.parametrize("command", ["transform", "regprod", "eval", "table"])
    def test_malformed_spec_exit_2(self, runner, command):
        result = runner.invoke(cli, [command, "--input", '{"kind": "exp"',
                                     "--probes", PROBES_3])
        assert result.exit_code == 2
        assert "line" in result.output  # diagnostics carry a position

    @pytest.mark.parametrize("at", [1e4, 1e6])
    def test_breakpoint_past_the_truncation_point_keeps_the_value(self, runner, at):
        spec = json.dumps({"kind": "exp", "b": [0, 1, 0, 0], "breakpoints": [at]})
        result = runner.invoke(cli, ["transform", "--input", spec,
                                     "--probes", json.dumps({"points": [[1, 0.5, 0, 0]]})])
        assert result.exit_code == 0, result.output
        rec = json.loads(result.output)["records"][0]
        # 1 / (s - i) at s = 1 + 0.5i
        assert (quat_from_list(rec["value"]) - Quaternion(0.8, 0.4, 0, 0)).norm() <= rec["est_error"]

    def test_declared_window_far_past_the_decay(self, runner):
        spec = json.dumps({"kind": "exp", "b": [0, 1, 0, 0],
                           "exp_order": {"a": 0, "K": 1, "T": 1e6}})
        result = runner.invoke(cli, ["transform", "--input", spec,
                                     "--probes", json.dumps({"points": [[1, 0.5, 0, 0]]})])
        assert result.exit_code == 0, result.output
        rec = json.loads(result.output)["records"][0]
        # 1 / (s - i) at s = 1 + 0.5i
        assert 0.0 < rec["est_error"] <= 1e-10
        assert (quat_from_list(rec["value"]) - Quaternion(0.8, 0.4, 0, 0)).norm() <= rec["est_error"]

    @pytest.mark.parametrize("spec", [
        {"kind": "exp", "b": [0, 1, 0, 0], "breakpoints": ["a"]},
        {"kind": "exp", "b": [0, 1, 0, 0], "breakpoints": 5},
        {"kind": "exp", "b": [0, 1, 0, 0], "breakpoints": [-1.0]},
        {"kind": "exp", "b": [0, 1, 0, 0], "breakpoints": [float("nan")]},
        {"kind": "heaviside_shift", "shift": "nan", "inner": {"kind": "exp", "b": [0, 1, 0, 0]}},
        {"kind": "heaviside_shift", "shift": "inf", "inner": {"kind": "exp", "b": [0, 1, 0, 0]}},
        {"kind": "exp", "b": [0, 1, 0, 0], "exp_order": {"a": "nan", "K": 1}},
        {"kind": "exp", "b": [0, 1, 0, 0], "exp_order": {"a": "inf", "K": 1}},
        {"kind": "exp", "b": [0, 1, 0, 0], "exp_order": {"a": 0, "K": "inf"}},
        {"kind": "exp", "b": [0, 1, 0, 0], "exp_order": {"a": 0, "K": "nan"}},
        {"kind": "exp", "b": [0, 1, 0, 0], "exp_order": {"a": 0, "K": 1, "T": "nan"}},
        {"kind": "exp", "b": [0, 1, 0, 0], "exp_order": {"a": 0, "K": 1, "T": "inf"}},
    ])
    def test_malformed_time_metadata_exit_2(self, runner, spec):
        result = runner.invoke(cli, ["transform", "--input", json.dumps(spec),
                                     "--probes", PROBES_3])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("probes", [
        {"points": 5},
        {"points": [1, 2]},
        {"points": [[1, 0, 0, "x"]]},
        {"grid": None},
        {"grid": {"re": [1, 2, 2], "units": 5, "im": [0, 1, 2]}},
        {"grid": {"re": [1, 2, 2], "units": [[0, "a", 0, 0]], "im": [0, 1, 2]}},
        {"grid": {"re": [1, 2, 2.7], "units": ["i"], "im": [0, 1, 2]}},
        {"grid": {"re": [1, 2, True], "units": ["i"], "im": [0, 1, 2]}},
        {"points": [[2, 0, 0, True]]},
        {"points": [["2", 0, 0, 0]]},
        {"grid": {"re": ["1", 2, 2], "units": ["i"], "im": [0, 1, 2]}},
        {"grid": {"re": [1, 2, 2], "units": ["i"], "im": [0, True, 2]}},
        5,
        None,
        "grid points",
    ], ids=["points-not-a-list", "point-not-a-list", "point-entry", "grid-null",
            "units-not-a-list", "grid-unit-entry", "grid-count-float", "grid-count-bool",
            "point-entry-bool", "point-entry-string", "grid-start-string", "grid-stop-bool",
            "file-number", "file-null", "file-string"])
    def test_malformed_probes_exit_2(self, runner, probes, tmp_path):
        text = json.dumps(probes)
        if not isinstance(probes, (dict, list)):
            # an inline value that is neither an object nor a list is a path
            path = tmp_path / "probes.json"
            path.write_text(text)
            text = str(path)
        result = runner.invoke(cli, ["transform", "--input", EXP_J, "--probes", text])
        assert result.exit_code == 2, result.output

    # float() takes JSON booleans and numeric strings; a quaternion component does not
    @pytest.mark.parametrize("command, spec", [
        ("eval", {"side": "left", "coeffs": [[True, "1", 0, 0]]}),
        ("eval", {"side": "left", "coeffs": [[1, 0, 0, 0], [0, 0, False, 0]]}),
        ("transform", {"kind": "exp", "b": [0, "1", 0, 0]}),
        ("table", {"function": "cauchy_kernel", "s": [1, 0, True, 0]}),
    ], ids=["eval-bool-and-string", "eval-bool", "transform-string", "table-bool"])
    def test_booleans_and_strings_are_not_components(self, runner, command, spec):
        result = runner.invoke(cli, [command, "--input", json.dumps(spec), "--probes", PROBES_3])
        assert result.exit_code == 2, result.output

    # every JSON number of a spec is a float: no boolean, numeric string or
    # integer past the float range
    @pytest.mark.parametrize("command, spec", [
        ("transform", {"kind": "heaviside_shift", "shift": True,
                       "inner": {"kind": "exp", "b": [0, 1, 0, 0]}}),
        ("transform", {"kind": "exp", "b": [0, 1, 0, 0], "exp_order": {"a": "0", "K": 1}}),
        ("transform", {"kind": "exp", "b": [0, 1, 0, 0], "exp_order": {"a": 0, "K": True}}),
        ("transform", {"kind": "exp", "b": [0, 1, 0, 0],
                       "exp_order": {"a": 0, "K": 1, "T": 10**400}}),
        ("transform", {"kind": "exp", "b": [0, 1, 0, 0], "breakpoints": [10**400]}),
        ("eval", {"side": "left", "coeffs": [[10**400, 0, 0, 0]]}),
        # a JSON NaN or Infinity is a float, which the range checks reject
        ("transform", {"kind": "heaviside_shift", "shift": float("inf"),
                       "inner": {"kind": "exp", "b": [0, 1, 0, 0]}}),
        ("transform", {"kind": "exp", "b": [0, 1, 0, 0], "exp_order": {"a": float("nan"), "K": 1}}),
    ], ids=["shift-bool", "exp-order-string", "exp-order-bool", "exp-order-huge-int",
            "breakpoint-huge-int", "eval-huge-int", "shift-infinity", "exp-order-nan"])
    def test_every_json_number_is_a_float(self, runner, command, spec):
        result = runner.invoke(cli, [command, "--input", json.dumps(spec), "--probes", PROBES_3])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("spec, operation", [
        ({"kind": "scale", "factor": [1e200, 0, 0, 0],
          "inner": {"kind": "scale", "factor": [1e200, 0, 0, 0],
                    "inner": {"kind": "poly", "coeffs": [[1, 0, 0, 0]]}}}, "a left scaling"),
        ({"kind": "poly", "coeffs": [[1, 0, 0, 0]] * 130}, "a polynomial"),
    ], ids=["scale", "poly"])
    def test_overflowing_derived_certificate_exit_1(self, runner, spec, operation):
        # a certificate the library derives is no malformed input: exit 1, naming the operation
        result = runner.invoke(cli, ["transform", "--input", json.dumps(spec),
                                     "--probes", PROBES_3])
        assert result.exit_code == 1, result.output
        assert f"growth certificate of {operation} overflows" in result.output

    def test_unknown_kind_exit_2(self, runner):
        result = runner.invoke(cli, ["transform", "--input",
                                     json.dumps({"kind": "wavelet"}),
                                     "--probes", PROBES_3])
        assert result.exit_code == 2


class TestRegprod:
    def test_sphere_polynomial(self, runner):
        spec = json.dumps({
            "f": {"side": "left", "coeffs": [[0, -1, 0, 0], [1, 0, 0, 0]]},
            "g": {"side": "left", "coeffs": [[0, 1, 0, 0], [1, 0, 0, 0]]},
        })
        result = runner.invoke(cli, ["regprod", "--input", spec])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["coeffs"] == [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]

    def test_unit_series(self, runner):
        spec = json.dumps({
            "f": {"side": "left", "coeffs": [[0, 1, 2, 3], [4, 0, 0, 0]]},
            "g": {"side": "left", "coeffs": [[1, 0, 0, 0]]},
        })
        result = runner.invoke(cli, ["regprod", "--input", spec])
        data = json.loads(result.output)
        assert data["coeffs"] == [[0, 1, 2, 3], [4, 0, 0, 0]]

    def test_constants(self, runner):
        spec = json.dumps({
            "f": {"side": "left", "coeffs": [[0, 1, 0, 0]]},
            "g": {"side": "left", "coeffs": [[0, 0, 1, 0]]},
        })
        result = runner.invoke(cli, ["regprod", "--input", spec])
        assert json.loads(result.output)["coeffs"] == [[0, 0, 0, 1]]

    def test_side_mismatch_exit_2(self, runner):
        spec = json.dumps({
            "f": {"side": "left", "coeffs": [[1, 0, 0, 0]]},
            "g": {"side": "right", "coeffs": [[1, 0, 0, 0]]},
        })
        result = runner.invoke(cli, ["regprod", "--input", spec])
        assert result.exit_code == 2

    def test_evaluation_table(self, runner):
        spec = json.dumps({
            "f": {"side": "left", "coeffs": [[0, -1, 0, 0], [1, 0, 0, 0]]},
            "g": {"side": "left", "coeffs": [[0, 1, 0, 0], [1, 0, 0, 0]]},
        })
        probes = json.dumps({"points": [[0, 0, 1, 0]]})  # q = j
        result = runner.invoke(cli, ["regprod", "--input", spec, "--probes", probes])
        rec = json.loads(result.output)["records"][0]
        assert rec["value"] == [0.0, 0.0, 0.0, 0.0]  # (q-i)*(q+i) = q^2+1 vanishes at j


class TestEvalAndTable:
    def test_eval_series(self, runner):
        spec = json.dumps({"side": "left", "coeffs": [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]})
        probes = json.dumps({"points": [[0, 0, 1, 0], [2, 0, 0, 0]]})
        result = runner.invoke(cli, ["eval", "--input", spec, "--probes", probes])
        records = json.loads(result.output)["records"]
        assert records[0]["value"] == [0.0, 0.0, 0.0, 0.0]
        assert records[1]["value"] == [5.0, 0.0, 0.0, 0.0]
        assert records[0]["terms_used"] == 3

    def test_table_exp(self, runner):
        probes = json.dumps({"points": [[0, 0, math.pi, 0]]})
        result = runner.invoke(cli, ["table", "--input", json.dumps({"function": "exp"}),
                                     "--probes", probes])
        value = json.loads(result.output)["records"][0]["value"]
        assert abs(value[0] + 1.0) < 1e-12  # e^{j pi} = -1

    def test_table_exp_overflow_is_an_error_record(self, runner):
        # e^710 is past the float range: a typed error for that probe, not a traceback
        probes = json.dumps({"points": [[710, 0, 0, 0], [1, 0, 0, 0]]})
        result = runner.invoke(cli, ["table", "--input", TABLE_EXP, "--probes", probes])
        assert result.exit_code == 1
        overflow, fine = json.loads(result.stdout)["records"]
        assert "exp overflows" in overflow["error"]
        assert "achieved error bound inf" in overflow["error"]
        assert fine["value"] == [math.e, 0.0, 0.0, 0.0]

    def test_table_kernel(self, runner):
        spec = json.dumps({"function": "cauchy_kernel", "s": [0, 1, 0, 0]})
        probes = json.dumps({"points": [[2, 0, 0, 0]]})
        result = runner.invoke(cli, ["table", "--input", spec, "--probes", probes])
        value = json.loads(result.output)["records"][0]["value"]
        assert abs(value[0] + 0.4) < 1e-12 and abs(value[1] + 0.2) < 1e-12

    def test_table_unknown_function(self, runner):
        result = runner.invoke(cli, ["table", "--input", json.dumps({"function": "zeta"}),
                                     "--probes", PROBES_3])
        assert result.exit_code == 2


class TestVerify:
    def test_algebra_suite_passes(self, runner):
        result = runner.invoke(cli, ["verify", "algebra", "--seed", "7"])
        assert result.exit_code == 0, result.output
        records = json.loads(result.output)["records"]
        assert all(r["passed"] for r in records)

    def test_laplace_suite_with_tolerance(self, runner):
        result = runner.invoke(cli, ["verify", "laplace", "--tol", "1e-5"])
        assert result.exit_code == 0, result.output
        records = json.loads(result.output)["records"]
        assert all(r["passed"] for r in records)

    def test_unknown_suite_exit_2(self, runner):
        result = runner.invoke(cli, ["verify", "spectral"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["verify", "algebra"],
        ["transform", "--input", EXP_J, "--probes", PROBES_3],
    ], ids=["verify", "transform"])
    def test_nonpositive_tol_exit_2(self, runner, args):
        for tol in ("0", "-1"):
            result = runner.invoke(cli, [*args, "--tol", tol])
            assert result.exit_code == 2, result.output

    # no check fails against an infinite threshold, and every one against NaN
    @pytest.mark.parametrize("args", [
        ["verify", "algebra"],
        ["verify", "regularity"],
        ["verify", "laplace"],
        ["transform", "--input", EXP_J, "--probes", PROBES_3],
    ], ids=["verify-algebra", "verify-regularity", "verify-laplace", "transform"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_2(self, runner, args, tol):
        result = runner.invoke(cli, [*args, "--tol", tol])
        assert result.exit_code == 2, result.output
        assert "positive and finite" in result.output

    def test_algebra_tol_exit_2(self, runner):
        # the algebra suite's thresholds are fixed, so a tol would go unread
        result = runner.invoke(cli, ["verify", "algebra", "--tol", "5"])
        assert result.exit_code == 2, result.output
        assert "takes no tol" in result.output

    def test_negative_seed_exit_2(self, runner):
        result = runner.invoke(cli, ["verify", "algebra", "--seed", "-1"])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("args", [
        ["transform", "--input", EXP_J, "--probes", PROBES_3, "--seed", "3"],
        ["regprod", "--input", SERIES_PAIR, "--tol", "5"],
        ["regprod", "--input", SERIES_PAIR, "--seed", "3"],
        ["eval", "--input", SERIES_F, "--probes", PROBES_3, "--tol", "5"],
        ["eval", "--input", SERIES_F, "--probes", PROBES_3, "--seed", "3"],
        ["table", "--input", TABLE_EXP, "--probes", PROBES_3, "--tol", "5"],
        ["table", "--input", TABLE_EXP, "--probes", PROBES_3, "--seed", "3"],
        ["verify", "algebra", "--input", "nonexistent"],
        ["verify", "algebra", "--probes", "nonexistent"],
    ], ids=lambda args: f"{args[0]}{args[-2]}")
    def test_unread_option_exit_2(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert "No such option" in result.output

    # `verify <suite> --seed 0 --format csv`, bit for bit; the laplace suite's
    # residuals may move within their est_error bounds, so it has no golden
    GOLDEN_VERIFY_CSV = {
        "algebra": (
            'suite,property,residual,threshold,mode,passed\n'
            'algebra,norm multiplicativity |pq|=|p||q|,3.9928503964741209e-16,9.9999999999999998e-13,le,true\n'
            'algebra,conjugation anti-automorphism,4.9960036108132044e-16,1e-14,le,true\n'
            'algebra,slice decompose/embed roundtrip,1.3322676295501878e-15,1e-14,le,true\n'
            'algebra,exp agrees with its power series,6.4354640488548389e-15,9.9999999999999998e-13,le,true\n'
            'algebra,exp transported through each slice,3.2751579226442118e-15,1e-13,le,true\n'
            'algebra,real-axis star product law,7.6308510596657089e-16,1e-10,le,true\n'
            'algebra,reflection anti-homomorphism on series,2.082963028648268e-15,1e-13,le,true\n'
            'algebra,intrinsic series are central,1.0175362097255202e-15,1e-13,le,true\n'
            'algebra,symmetrization has real coefficients,8.7639081568763011e-16,1e-14,le,true\n'
            'algebra,star reciprocal identity,9.2459464809514589e-13,1e-10,le,true\n'
            'algebra,distributivity and right scalar law,2.8435583831733384e-15,1e-13,le,true\n'
            'algebra,reflection pointwise law on series,5.4389598220420729e-16,9.9999999999999998e-13,le,true\n'
        ),
        "regularity": (
            'suite,property,residual,threshold,mode,passed\n'
            'regularity,exp is slice regular,1.3207838041776056e-10,9.9999999999999995e-07,le,true\n'
            'regularity,conjugation witness is detected,1.000000000006575,0.5,ge,true\n'
            'regularity,Cauchy kernel left regular in q,7.1863527377574195e-12,9.9999999999999995e-07,le,true\n'
            'regularity,Cauchy kernel right regular in s,7.0128449945078482e-12,9.9999999999999995e-07,le,true\n'
            'regularity,tensor and series forms agree,2.8174301870297392e-15,1e-10,le,true\n'
            'regularity,reflection anti-isomorphism pointwise,4.070144838902081e-15,1e-10,le,true\n'
            'regularity,splitting into two holomorphic parts,1.2129535865466151e-09,9.9999999999999995e-07,le,true\n'
            'regularity,identity principle regression,4.0275243467429286e-15,1e-08,le,true\n'
            'regularity,reflection swaps the regular side,3.577259469845323e-09,9.9999999999999995e-07,le,true\n'
            'regularity,slice preservation classification,0,0.5,le,true\n'
        ),
    }

    def test_csv_format(self, runner):
        result = runner.invoke(cli, ["verify", "algebra", "--format", "csv"])
        assert result.exit_code == 0
        header = result.output.splitlines()[0]
        assert header == "suite,property,residual,threshold,mode,passed"
        assert result.output == self.GOLDEN_VERIFY_CSV["algebra"]

    def test_regularity_csv_golden(self, runner):
        result = runner.invoke(cli, ["verify", "regularity", "--seed", "0", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output == self.GOLDEN_VERIFY_CSV["regularity"]

    def test_nan_residual_fails_the_check(self, runner, monkeypatch):
        # max(0.0, nan) is 0.0: a max-reduced check would pass on residuals it never computed
        monkeypatch.setattr(suites, "complex_cr_residual", lambda *args: math.nan)
        result = runner.invoke(cli, ["verify", "regularity"])
        assert result.exit_code == 1
        record, = (r for r in json.loads(result.stdout)["records"]
                   if r["property"] == "splitting into two holomorphic parts")
        assert math.isnan(record["residual"]) and not record["passed"]


class TestDeterminismAndFormats:
    def test_byte_identical_reruns(self, runner):
        args = ["transform", "--input", EXP_J, "--probes", PROBES_3]
        a = runner.invoke(cli, args).output
        b = runner.invoke(cli, args).output
        assert a == b

    def test_csv_and_json_carry_identical_values(self, runner, tmp_path):
        args = ["transform", "--input", EXP_J, "--probes", PROBES_3]
        json_out = runner.invoke(cli, args + ["--format", "json"]).output
        csv_out = runner.invoke(cli, args + ["--format", "csv"]).output
        records = json.loads(json_out)["records"]
        lines = csv_out.strip().splitlines()
        header = lines[0].split(",")
        for rec, line in zip(records, lines[1:]):
            row = dict(zip(header, line.split(",")))
            for m, suffix in enumerate("wxyz"):
                assert float(row[f"s_{suffix}"]) == rec["s"][m]
                assert float(row[f"value_{suffix}"]) == rec["value"][m]
            assert float(row["est_error"]) == rec["est_error"]

    # a probe outside the half-plane gives an error message holding a comma
    @pytest.mark.parametrize("command, spec", [
        ("transform", EXP_J),
        ("table", json.dumps({"function": "exp_transform", "b": [0.1, 0, 0, 0]})),
    ], ids=["transform", "table"])
    def test_csv_error_records_keep_the_columns(self, runner, command, spec):
        probes = json.dumps({"points": [[2, 0, 0, 0], [-1, 0, 0, 0], [1, 1, 0, 0]]})
        args = [command, "--input", spec, "--probes", probes]
        records = json.loads(runner.invoke(cli, args).output)["records"]
        result = runner.invoke(cli, args + ["--format", "csv"])
        assert result.exit_code == 1
        header, *rows = csv.reader(io.StringIO(result.output))
        assert len(rows) == 3
        assert all(len(row) == len(header) for row in rows)
        assert rows[1][header.index("error")] == records[1]["error"]
        assert "," in records[1]["error"]

    def test_out_file(self, runner, tmp_path):
        path = tmp_path / "out.json"
        result = runner.invoke(cli, ["transform", "--input", EXP_J,
                                     "--probes", PROBES_3, "--out", str(path)])
        assert result.exit_code == 0
        assert json.loads(path.read_text())["records"]

    def test_probes_from_file(self, runner, tmp_path):
        probe_file = tmp_path / "probes.json"
        probe_file.write_text(PROBES_3)
        result = runner.invoke(cli, ["transform", "--input", EXP_J,
                                     "--probes", str(probe_file)])
        assert result.exit_code == 0
        assert len(json.loads(result.output)["records"]) == 3

    def test_golden_regprod_output(self, runner):
        spec = json.dumps({
            "f": {"side": "left", "coeffs": [[0, -1, 0, 0], [1, 0, 0, 0]]},
            "g": {"side": "left", "coeffs": [[0, 1, 0, 0], [1, 0, 0, 0]]},
        })
        golden = (
            '{\n'
            '  "side": "left",\n'
            '  "coeffs": [\n'
            '    [\n      1.0,\n      0.0,\n      0.0,\n      0.0\n    ],\n'
            '    [\n      0.0,\n      0.0,\n      0.0,\n      0.0\n    ],\n'
            '    [\n      1.0,\n      0.0,\n      0.0,\n      0.0\n    ]\n'
            '  ],\n'
            '  "records": [\n'
            '    {\n      "n": 0,\n      "coeff": [\n        1.0,\n        0.0,\n        0.0,\n        0.0\n      ]\n    },\n'
            '    {\n      "n": 1,\n      "coeff": [\n        0.0,\n        0.0,\n        0.0,\n        0.0\n      ]\n    },\n'
            '    {\n      "n": 2,\n      "coeff": [\n        1.0,\n        0.0,\n        0.0,\n        0.0\n      ]\n    }\n'
            '  ]\n'
            '}\n'
        )
        result = runner.invoke(cli, ["regprod", "--input", spec])
        assert result.output == golden

    GOLDEN_EVAL = {
    ("left", "json"): (
        '{\n  "records": [\n    {\n      "q": [\n        0.3,\n        0.2,\n'
        '        -0.1,\n        0.4\n      ],\n      "value": [\n'
        '        0.05999999999999994,\n        1.115,\n        -0.22000000000000003,\n'
        '        -0.14499999999999996\n      ],\n      "terms_used": 3,\n'
        '      "trunc_bound": 0.6184658438426489\n    },\n    {\n      "q": [\n'
        '        -0.5,\n        0.1,\n        0.6,\n        0.2\n      ],\n'
        '      "value": [\n        1.77,\n        -0.9000000000000001,\n        0.575,\n'
        '        -1.2449999999999997\n      ],\n      "terms_used": 3,\n'
        '      "trunc_bound": 1.3606248564538281\n    },\n    {\n      "q": [\n'
        '        0.2,\n        -0.3,\n        0.0,\n        0.5\n      ],\n'
        '      "value": [\n        0.625,\n        1.1400000000000001,\n        0.615,\n'
        '        -0.14999999999999997\n      ],\n      "terms_used": 3,\n'
        '      "trunc_bound": 0.7833900688673555\n    }\n  ]\n}\n'
    ),
    ("left", "csv"): (
        'q_w,q_x,q_y,q_z,value_w,value_x,value_y,value_z,terms_used,trunc_bound\n'
        '0.29999999999999999,0.20000000000000001,-0.10000000000000001,0.40000000000000002,0.059999999999999942,1.115,-0.22000000000000003,-0.14499999999999996,3,0.61846584384264891\n'
        '-0.5,0.10000000000000001,0.59999999999999998,0.20000000000000001,1.77,-0.90000000000000013,0.57499999999999996,-1.2449999999999997,3,1.3606248564538281\n'
        '0.20000000000000001,-0.29999999999999999,0,0.5,0.625,1.1400000000000001,0.61499999999999999,-0.14999999999999997,3,0.78339006886735552\n'
    ),
    ("right", "json"): (
        '{\n  "records": [\n    {\n      "q": [\n        0.3,\n        0.2,\n'
        '        -0.1,\n        0.4\n      ],\n      "value": [\n'
        '        0.05999999999999994,\n        0.6050000000000001,\n        -0.44,\n'
        '        0.05499999999999999\n      ],\n      "terms_used": 3,\n'
        '      "trunc_bound": 0.6184658438426489\n    },\n    {\n      "q": [\n'
        '        -0.5,\n        0.1,\n        0.6,\n        0.2\n      ],\n'
        '      "value": [\n        1.77,\n        0.7999999999999999,\n'
        '        -0.17500000000000004,\n        0.15500000000000008\n      ],\n'
        '      "terms_used": 3,\n      "trunc_bound": 1.3606248564538281\n    },\n    {\n'
        '      "q": [\n        0.2,\n        -0.3,\n        0.0,\n        0.5\n      ],\n'
        '      "value": [\n        0.625,\n        0.14,\n        -1.0150000000000001,\n'
        '        -0.7499999999999999\n      ],\n      "terms_used": 3,\n'
        '      "trunc_bound": 0.7833900688673555\n    }\n  ]\n}\n'
    ),
    ("right", "csv"): (
        'q_w,q_x,q_y,q_z,value_w,value_x,value_y,value_z,terms_used,trunc_bound\n'
        '0.29999999999999999,0.20000000000000001,-0.10000000000000001,0.40000000000000002,0.059999999999999942,0.60500000000000009,-0.44,0.054999999999999993,3,0.61846584384264891\n'
        '-0.5,0.10000000000000001,0.59999999999999998,0.20000000000000001,1.77,0.79999999999999993,-0.17500000000000004,0.15500000000000008,3,1.3606248564538281\n'
        '0.20000000000000001,-0.29999999999999999,0,0.5,0.625,0.14000000000000001,-1.0150000000000001,-0.74999999999999989,3,0.78339006886735552\n'
    ),
    }

    @pytest.mark.parametrize("side, fmt", list(GOLDEN_EVAL))
    def test_golden_eval_output(self, runner, side, fmt):
        # off-axis probes, so that the side of the Horner products shows
        spec = json.dumps({"side": side,
                           "coeffs": [[1, 0.5, 0, 0], [0, 1, -1, 0.25], [0.5, 0, 0, 2]]})
        probes = json.dumps({"points": [[0.3, 0.2, -0.1, 0.4], [-0.5, 0.1, 0.6, 0.2],
                                        [0.2, -0.3, 0, 0.5]]})
        result = runner.invoke(cli, ["eval", "--input", spec, "--probes", probes,
                                     "--format", fmt])
        assert result.exit_code == 0
        assert result.output == self.GOLDEN_EVAL[side, fmt]

    GOLDEN_TABLE = {
    ('cauchy_kernel', 'json'): (
        '{\n  "records": [\n    {\n      "q": [\n        2.5,\n        0.5,\n'
        '        -1.0,\n        0.3\n      ],\n      "value": [\n'
        '        -0.14888810858187185,\n        -0.05543559103187617,\n'
        '        -0.26017402075309454,\n        0.07954523461282179\n      ]\n    },\n'
        '    {\n      "q": [\n        3.0,\n        0.0,\n        0.0,\n        0.0\n'
        '      ],\n      "value": [\n        -0.25,\n        0.0,\n        -0.25,\n'
        '        0.0\n      ]\n    },\n    {\n      "q": [\n        0.05,\n        0.1,\n'
        '        0.0,\n        0.0\n      ],\n'
        '      "error": "0.05+0.1i lies outside the annulus domain (2.23606797749979, inf)"\n'
        '    }\n  ]\n}\n'
    ),
    ('cauchy_kernel', 'csv'): (
        'q_w,q_x,q_y,q_z,value_w,value_x,value_y,value_z,error\n'
        '2.5,0.5,-1,0.29999999999999999,-0.14888810858187185,-0.055435591031876168,-0.26017402075309454,0.079545234612821786,\n'
        '3,0,0,0,-0.25,0,-0.25,0,\n'
        '0.050000000000000003,0.10000000000000001,0,0,,,,,"0.05+0.1i lies outside the annulus domain (2.23606797749979, inf)"\n'
    ),
    ('cauchy_kernel_right', 'json'): (
        '{\n  "records": [\n    {\n      "q": [\n        2.5,\n        0.5,\n'
        '        -1.0,\n        0.3\n      ],\n      "value": [\n'
        '        0.322285561294497,\n        0.0035697950714516733,\n'
        '        0.12282326167713435,\n        0.01996854118093282\n      ]\n    },\n'
        '    {\n      "q": [\n        3.0,\n        0.0,\n        0.0,\n        0.0\n'
        '      ],\n      "value": [\n        0.29795158286778406,\n'
        '        0.06517690875232775,\n        0.009310986964618252,\n        0.0\n'
        '      ]\n    },\n    {\n      "q": [\n        0.05,\n        0.1,\n        0.0,\n'
        '        0.0\n      ],\n'
        '      "error": "0.05+0.1i lies outside the annulus domain (0.7348469228349533, inf)"\n'
        '    }\n  ]\n}\n'
    ),
    ('cauchy_kernel_right', 'csv'): (
        'q_w,q_x,q_y,q_z,value_w,value_x,value_y,value_z,error\n'
        '2.5,0.5,-1,0.29999999999999999,0.32228556129449698,0.0035697950714516733,0.12282326167713435,0.01996854118093282,\n'
        '3,0,0,0,0.29795158286778406,0.065176908752327747,0.0093109869646182519,0,\n'
        '0.050000000000000003,0.10000000000000001,0,0,,,,,"0.05+0.1i lies outside the annulus domain (0.7348469228349533, inf)"\n'
    ),
    ('exp_transform_left', 'json'): (
        '{\n  "records": [\n    {\n      "q": [\n        2.5,\n        0.5,\n'
        '        -1.0,\n        0.3\n      ],\n      "value": [\n'
        '        0.38476579363023683,\n        0.04108705478443264,\n'
        '        0.10091468214668431,\n        0.020061046526391707\n      ]\n    },\n'
        '    {\n      "q": [\n        3.0,\n        0.0,\n        0.0,\n        0.0\n'
        '      ],\n      "value": [\n        0.3118279569892473,\n'
        '        0.04301075268817205,\n        -0.03225806451612903,\n'
        '        0.0860215053763441\n      ]\n    },\n    {\n      "q": [\n        0.05,\n'
        '        0.1,\n        0.0,\n        0.0\n      ],\n'
        '      "error": "0.05+0.1i lies outside the half-plane domain (0.1,)"\n    }\n  ]\n'
        '}\n'
    ),
    ('exp_transform_left', 'csv'): (
        'q_w,q_x,q_y,q_z,value_w,value_x,value_y,value_z,error\n'
        '2.5,0.5,-1,0.29999999999999999,0.38476579363023683,0.041087054784432642,0.10091468214668431,0.020061046526391707,\n'
        '3,0,0,0,0.31182795698924731,0.043010752688172053,-0.032258064516129031,0.086021505376344107,\n'
        '0.050000000000000003,0.10000000000000001,0,0,,,,,"0.05+0.1i lies outside the half-plane domain (0.1,)"\n'
    ),
    ('exp_transform_right', 'json'): (
        '{\n  "records": [\n    {\n      "q": [\n        2.5,\n        0.5,\n'
        '        -1.0,\n        0.3\n      ],\n      "value": [\n'
        '        0.38476579363023683,\n        -0.07430205333699003,\n'
        '        0.055409118380489474,\n        0.06069101417477997\n      ]\n    },\n'
        '    {\n      "q": [\n        3.0,\n        0.0,\n        0.0,\n        0.0\n'
        '      ],\n      "value": [\n        0.3118279569892473,\n'
        '        0.04301075268817205,\n        -0.03225806451612903,\n'
        '        0.0860215053763441\n      ]\n    },\n    {\n      "q": [\n        0.05,\n'
        '        0.1,\n        0.0,\n        0.0\n      ],\n'
        '      "error": "0.05+0.1i lies outside the half-plane domain (0.1,)"\n    }\n  ]\n'
        '}\n'
    ),
    ('exp_transform_right', 'csv'): (
        'q_w,q_x,q_y,q_z,value_w,value_x,value_y,value_z,error\n'
        '2.5,0.5,-1,0.29999999999999999,0.38476579363023683,-0.074302053336990026,0.055409118380489474,0.06069101417477997,\n'
        '3,0,0,0,0.31182795698924731,0.043010752688172053,-0.032258064516129031,0.086021505376344107,\n'
        '0.050000000000000003,0.10000000000000001,0,0,,,,,"0.05+0.1i lies outside the half-plane domain (0.1,)"\n'
    ),
    }

    TABLE_SPECS = {
        "cauchy_kernel": {"function": "cauchy_kernel", "s": [1, 0, 2, 0]},
        "cauchy_kernel_right": {"function": "cauchy_kernel_right", "q": [-0.2, 0.7, 0.1, 0]},
        "exp_transform_left": {"function": "exp_transform", "b": [0.1, 0.4, -0.3, 0.8],
                               "side": "left"},
        "exp_transform_right": {"function": "exp_transform", "b": [0.1, 0.4, -0.3, 0.8],
                                "side": "right"},
    }

    @pytest.mark.parametrize("name, fmt", list(GOLDEN_TABLE))
    def test_golden_table_output(self, runner, name, fmt):
        # an off-axis probe, a real one, and one outside every domain
        probes = json.dumps({"points": [[2.5, 0.5, -1.0, 0.3], [3, 0, 0, 0],
                                        [0.05, 0.1, 0, 0]]})
        result = runner.invoke(cli, ["table", "--input", json.dumps(self.TABLE_SPECS[name]),
                                     "--probes", probes, "--format", fmt])
        assert result.exit_code == 1  # the error record fails the command
        assert result.output == self.GOLDEN_TABLE[name, fmt]

    def test_seventeen_digit_csv(self, runner):
        result = runner.invoke(cli, ["eval", "--input",
                                     json.dumps({"side": "left", "coeffs": [[0.1, 0, 0, 0]]}),
                                     "--probes", json.dumps({"points": [[1, 0, 0, 0]]}),
                                     "--format", "csv"])
        # 0.1 must round-trip exactly through the printed representation
        row = result.output.strip().splitlines()[1]
        cell = row.split(",")[4]
        assert float(cell) == 0.1
