"""Command-line interface: JSON schema, exit codes, option plumbing."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from barneszeta import BarnesParams, laurent_at_1, zeta2
from barneszeta.cli import format_complex, main, parse_complex

from conftest import EULER, RAW_STIELTJES_1, ZETA2, ZETA_PRIME_M1

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    rec = json.loads(out.out) if out.out.strip() else None
    return code, rec, out.err


class TestComplexParsing:
    def test_forms(self):
        assert parse_complex("2.5") == 2.5
        assert parse_complex("2.5+1i") == 2.5 + 1j
        assert parse_complex("-1.5e0-2.25i") == -1.5 - 2.25j

    def test_roundtrip(self):
        for z in (2.5 + 1j, -0.5 - 3.25j, 4.0 + 0j):
            assert parse_complex(format_complex(z)) == z

    def test_bad_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--s", "2+zi", "--alpha", "1", "--v", "1", "--w", "1"])
        assert exc.value.code == 64


class TestEval:
    def test_em_value_and_schema(self, capsys):
        code, rec, _ = run_cli(capsys, ["eval", "--s", "2.2", "--alpha", "1",
                                        "--v", "1", "--w", "1"])
        assert code == 0
        assert rec["schema_version"] == "1"
        assert set(rec) >= {"command", "config", "value", "est_error",
                            "method", "wall_time_ms"}
        assert rec["method"] == "em"
        ref = zeta2(2.2, BarnesParams(1, 1, 1))
        assert abs(rec["value"]["re"] - ref.real) < 1e-12
        assert rec["value"]["im"] == 0.0

    def test_config_echoes_fixed_truncation(self, capsys):
        _, rec, _ = run_cli(capsys, ["eval", "--s", "0.5", "--alpha", "1",
                                     "--v", "1", "--w", "1"])
        assert rec["config"] == {
            "em_order": 10, "hurwitz_J": 12,
            "quad": {"cell_order": 12, "max_cells": 200000,
                     "tail_tol": 1e-13},
            "fd_step": 0.1,
        }

    def test_precision_flags_are_usage_errors(self):
        for flag in ("--M", "--em-order", "--quad-tol", "--fd-step"):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--s", "0.5", "--alpha", "1", "--v", "1",
                      "--w", "1", flag, "8"])
            assert exc.value.code == 64

    def test_beyond_reach_exits_3(self, capsys):
        # a head of about 1.7e4 rows is past the row budget of 8,192
        code, rec, err = run_cli(capsys, ["eval", "--s=0.5+1e4i",
                                          "--alpha", "0.3", "--v", "1",
                                          "--w", "1"])
        assert code == 3
        assert rec is None
        assert "exceeds 8192 terms" in err
        # no head length meets the bound of the outer level at Re s <= -19
        code, rec, err = run_cli(capsys, ["eval", "--s=-19.5",
                                          "--alpha", "0.1", "--v", "4.9",
                                          "--w", "0.1"])
        assert code == 3
        assert rec is None
        assert "no Euler-Maclaurin head length" in err

    @pytest.mark.parametrize("argv", [
        ["--s", "1000", "--alpha", "0.7", "--v", "1.3", "--w", "2.1"],
        ["--s", "700", "--alpha", "0.3", "--v", "1", "--w", "1"]])
    def test_non_finite_value_exits_3(self, capsys, argv):
        # these printed RuntimeWarnings and "re": NaN, which is not JSON,
        # and exited 0
        code, rec, err = run_cli(capsys, ["eval", *argv])
        assert code == 3
        assert rec is None
        assert err == "error: zeta2 is not a finite float64 here\n"

    def test_non_finite_value_stderr_is_one_line(self):
        # under Python's default warning filters, as a user runs it
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "barneszeta.cli", "eval", "--s", "1000",
             "--alpha", "0.7", "--v", "1.3", "--w", "2.1"],
            capture_output=True, text=True, env=env, check=False)
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == "error: zeta2 is not a finite float64 here\n"

    def test_former_cap_refusals_exit_0(self, capsys):
        # the head-length cap of 64 refused both; the values are checked
        # against mpmath in test_hurwitz
        for argv in (["--s=0.5+1000i", "--alpha", "0.3", "--v", "1", "--w", "1"],
                     ["--s=0.5+160i", "--alpha", "0.1", "--v", "4.9",
                      "--w", "0.1"]):
            code, rec, _ = run_cli(capsys, ["eval", *argv])
            assert code == 0
            assert all(math.isfinite(x) for x in rec["value"].values())

    def test_dominated_methods_are_usage_errors(self):
        # Euler-Maclaurin beats the direct sum and the integral
        # representation on both speed and accuracy; neither is served,
        # and with one route left eval takes no --method at all
        for method in ("direct", "integral", "auto", "em"):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--method", method, "--s", "2.5", "--alpha",
                      "1", "--v", "1", "--w", "1"])
            assert exc.value.code == 64

    def test_default_method_is_em(self, capsys):
        # zeta_2(s, 1; 1, 1) = zeta(s-1)
        code, rec, _ = run_cli(capsys, ["eval", "--s", "3", "--alpha", "1",
                                        "--v", "1", "--w", "1"])
        assert code == 0
        assert rec["method"] == "em"
        assert "method" not in rec["command"]
        assert abs(rec["value"]["re"] - ZETA2) < 1e-12

    def test_complex_s_with_leading_minus(self, capsys):
        code, rec, _ = run_cli(capsys, ["eval", "--s", "-0.3+1i", "--alpha",
                                        "0.7", "--v", "1.3", "--w", "2.1"])
        assert code == 0
        assert parse_complex(rec["command"]["s"]) == -0.3 + 1j
        ref = zeta2(-0.3 + 1j, BarnesParams(0.7, 1.3, 2.1))
        assert rec["value"] == {"re": ref.real, "im": ref.imag}

    def test_pole_exit(self, capsys):
        code, rec, err = run_cli(capsys, ["eval", "--s", "2", "--alpha", "1",
                                          "--v", "1", "--w", "1"])
        assert code == 2
        assert rec is None
        assert "pole" in err

    def test_laurent_fallback_at_pole(self, capsys):
        code, rec, _ = run_cli(capsys, ["eval", "--s", "2", "--alpha", "1",
                                        "--v", "1", "--w", "1",
                                        "--laurent-fallback"])
        assert code == 0
        assert rec["method"] == "laurent"
        assert abs(rec["value"]["re"] - EULER) < 1e-9

    def test_complex_echoed_in_command(self, capsys):
        _, rec, _ = run_cli(capsys, ["eval", "--s", "3+0.5i", "--alpha", "1",
                                     "--v", "1", "--w", "1"])
        assert parse_complex(rec["command"]["s"]) == 3 + 0.5j

    def test_negative_weight_is_usage_error(self, capsys):
        code, rec, err = run_cli(capsys, ["eval", "--s", "3", "--alpha", "1",
                                          "--v", "-1", "--w", "1"])
        assert code == 64
        assert rec is None


class TestLaurent:
    def test_em_pole2(self, capsys):
        code, rec, _ = run_cli(capsys, ["laurent", "--pole", "2",
                                        "--alpha", "1", "--v", "1", "--w", "1",
                                        "--kmax", "2"])
        assert code == 0
        assert rec["pole"] == 2
        assert abs(rec["gamma_minus1"] - 1.0) < 1e-10
        assert rec["exact_residue"] == 1.0
        for k in range(3):
            assert abs(rec["gammas"][k] - RAW_STIELTJES_1[k]) < 1e-9

    def test_em_pole1(self, capsys):
        code, rec, _ = run_cli(capsys, ["laurent", "--pole", "1",
                                        "--alpha", "0.5", "--v", "1",
                                        "--w", "1", "--kmax", "0"])
        assert code == 0
        assert abs(rec["gamma_minus1"] - 0.5) < 1e-10

    def test_limit_method(self, capsys):
        code, rec, _ = run_cli(capsys, ["laurent", "--pole", "2",
                                        "--method", "limit", "--alpha", "1",
                                        "--v", "1", "--w", "1", "--kmax", "1"])
        assert code == 0
        assert rec["method"] == "limit_formula"
        assert abs(rec["gammas"][0] - EULER) < 1e-4

    @pytest.mark.parametrize("method", ["em", "limit"])
    def test_one_record_layout(self, capsys, method):
        # both routes print the same keys, the pole slot and its err included
        code, rec, _ = run_cli(capsys, ["laurent", "--pole", "1",
                                        "--method", method, "--alpha", "0.7",
                                        "--v", "1.3", "--w", "2.1",
                                        "--kmax", "2"])
        assert code == 0
        assert set(rec) == {"schema_version", "command", "config",
                            "wall_time_ms", "pole", "method", "gamma_minus1",
                            "exact_residue", "err_minus1", "gammas",
                            "est_errors"}
        assert len(rec["gammas"]) == len(rec["est_errors"]) == 3
        assert (abs(rec["gamma_minus1"] - rec["exact_residue"])
                <= rec["err_minus1"] <= 1e-10)

    @pytest.mark.parametrize("kmax", ["-1", "13"])
    def test_limit_order_out_of_range_is_usage_error(self, capsys, kmax):
        code, rec, err = run_cli(capsys, ["laurent", "--pole", "2",
                                          "--method", "limit", "--alpha", "1",
                                          "--v", "1", "--w", "1",
                                          f"--kmax={kmax}"])
        assert code == 64
        assert rec is None
        assert "k_max" in err

    @pytest.mark.parametrize("pole", ["1", "2"])
    def test_limit_refuses_huge_weights(self, capsys, pole):
        # alpha + (v+w)*M at or above 1e15 is a usage error at either
        # pole: the log powers would cancel badly
        code, rec, err = run_cli(capsys, ["laurent", "--pole", pole,
                                          "--method", "limit",
                                          "--alpha", "1e15", "--v", "1",
                                          "--w", "1"])
        assert code == 64
        assert rec is None
        assert "alpha + (v+w)*M must be below 1e15, at M = 0" in err

    def test_limit_method_pole1(self, capsys):
        code, rec, _ = run_cli(capsys, ["laurent", "--pole", "1",
                                        "--method", "limit", "--alpha", "0.7",
                                        "--v", "1.3", "--w", "2.1",
                                        "--kmax", "1"])
        assert code == 0
        assert rec["method"] == "limit_formula"
        jet = laurent_at_1(BarnesParams(0.7, 1.3, 2.1), 1)
        assert (abs(rec["gammas"][0] - jet.gammas[0])
                <= rec["est_errors"][0] + 1e-9)

    def test_limit_refusal_is_accuracy_error(self, capsys):
        # w/v = 1e4 needs M = 49,999, past the row budget of 8,192: the
        # limit formula refuses rather than grow its memory, at either
        # pole
        for pole in ("1", "2"):
            code, rec, err = run_cli(capsys, ["laurent", "--pole", pole,
                                              "--method", "limit",
                                              "--alpha", "1", "--v", "1e-4",
                                              "--w", "1"])
            assert code == 3
            assert rec is None
            assert ("limit formula needs M = 49999, beyond 8192 rows: "
                    "w/v is too far from 1") in err

    def test_former_refusal_now_within_err(self, capsys):
        # the fitted route refused g_3(1) on this triple; now every k <= 4
        # is within its err plus the jet's bar
        p = BarnesParams(4.3168651153400965, 1.2724408747204459,
                         0.31892580300684575)
        code, rec, _ = run_cli(capsys, ["laurent", "--pole", "1",
                                        "--method", "limit",
                                        "--alpha", repr(p.alpha),
                                        "--v", repr(p.v), "--w", repr(p.w),
                                        "--kmax", "4"])
        assert code == 0
        jet = laurent_at_1(p, 4)
        for g, e, j, b in zip(rec["gammas"], rec["est_errors"], jet.gammas,
                              jet.errs):
            assert abs(g - j) <= e + b


class TestDegenerateWeights:
    # a record with a non-finite entry is refused (exit 3), not written as
    # bare NaN, which is not JSON; v w underflowing to 0 is a usage error
    def test_non_finite_record_exits_3(self, capsys):
        with np.errstate(all="ignore"):
            code, rec, err = run_cli(capsys, ["laurent", "--pole", "2",
                                              "--alpha", "1", "--v", "1e300",
                                              "--w", "1e300"])
        assert code == 3
        assert rec is None
        assert "not finite" in err

    def test_weight_product_underflow_exits_64(self, capsys):
        for pole in ("1", "2"):
            code, rec, err = run_cli(capsys, ["laurent", "--pole", pole,
                                              "--alpha", "1", "--v", "1e-300",
                                              "--w", "1e-300"])
            assert code == 64
            assert rec is None
            assert "v*w underflows to 0" in err

    def test_limit_non_finite_exits_3(self, capsys):
        with np.errstate(all="ignore"):
            code, rec, err = run_cli(capsys, ["laurent", "--pole", "1",
                                              "--method", "limit",
                                              "--alpha", "1", "--v", "1e-160",
                                              "--w", "1e-160"])
        assert code == 3
        assert rec is None
        assert "not finite" in err and "w/v" not in err


class TestSpecial:
    def test_stieltjes(self, capsys):
        code, rec, _ = run_cli(capsys, ["special", "--what", "stieltjes",
                                        "--a", "1", "--kmax", "4"])
        assert code == 0
        for k, expected in enumerate(RAW_STIELTJES_1):
            assert abs(rec["gammas"][k] - expected) < 1e-10

    def test_stieltjes_requires_a(self, capsys):
        code, rec, _ = run_cli(capsys, ["special", "--what", "stieltjes"])
        assert code == 64

    def test_gamma2(self, capsys):
        code, rec, _ = run_cli(capsys, ["special", "--what", "gamma2"])
        assert code == 0
        assert abs(rec["log_gamma2"] - ZETA_PRIME_M1) < 1e-9
        assert abs(rec["gamma2"] - math.exp(ZETA_PRIME_M1)) < 1e-9

    def test_polygamma(self, capsys):
        code, rec, _ = run_cli(capsys, ["special", "--what", "polygamma",
                                        "--k", "1"])
        assert code == 0
        assert abs(rec["value"] - 0.5) < 1e-6

    def test_polygamma_overflow_exits_3(self, capsys):
        code, rec, err = run_cli(capsys, ["special", "--what", "polygamma",
                                          "--k", "200"])
        assert code == 3
        assert rec is None
        assert "error" in err


class TestNonFiniteParameters:
    @pytest.mark.parametrize("argv", [
        ["eval", "--s", "3", "--alpha", "inf", "--v", "1", "--w", "1"],
        ["eval", "--s", "3", "--alpha", "1", "--v", "inf", "--w", "1"],
        ["eval", "--s", "3", "--alpha", "1", "--v", "1", "--w", "inf"],
        ["eval", "--s", "3", "--alpha", "nan", "--v", "1", "--w", "1"],
        ["laurent", "--pole", "2", "--alpha", "inf", "--v", "1", "--w", "1"],
        ["laurent", "--pole", "1", "--method", "limit", "--alpha", "1",
         "--v", "1", "--w", "nan"],
        ["special", "--what", "stieltjes", "--a", "inf"],
        ["special", "--what", "gamma2", "--alpha", "inf"]])
    def test_usage_error(self, capsys, argv):
        # refused at the boundary: inside the evaluators a non-finite
        # parameter surfaces as exit 3 "error up to nan" or a math domain
        # error
        code, rec, err = run_cli(capsys, argv)
        assert code == 64
        assert rec is None
        assert "finite and positive" in err


class TestNonFiniteS:
    @pytest.mark.parametrize("s", ["--s=1e400", "--s=2+1e400i", "--s=-1e400"])
    def test_usage_error(self, capsys, s):
        # 1e400 parses as inf, which eval refuses before any arithmetic
        # rather than carry it to "truncation error up to nan" (exit 3)
        code, rec, err = run_cli(capsys, ["eval", s, "--alpha", "1",
                                          "--v", "1", "--w", "1"])
        assert code == 64
        assert rec is None
        assert "s must be finite" in err


class TestVerify:
    def test_reduction_suite_ok(self, capsys):
        code, rec, _ = run_cli(capsys, ["verify", "--suite", "reduction"])
        assert code == 0
        assert rec["pass"] is True
        assert all(s["pass"] for s in rec["suites"])

    def test_unattainable_tol_fails(self, capsys):
        code, rec, _ = run_cli(capsys, ["verify", "--suite", "reduction",
                                        "--tol", "1e-30"])
        assert code == 1
        assert rec["pass"] is False

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_tol_must_be_finite_and_positive(self, capsys, tol):
        code, rec, err = run_cli(capsys, ["verify", "--suite", "reduction",
                                          "--tol", tol])
        assert code == 64
        assert rec is None
        assert "--tol" in err

    def test_csv_matches_json(self, capsys, tmp_path):
        csv_path = tmp_path / "report.csv"
        code, rec, _ = run_cli(capsys, ["verify", "--suite", "reduction",
                                        "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "id,lhs,rhs,abs_err,rel_err,tol,pass"
        json_checks = [c for s in rec["suites"] for c in s["checks"]]
        assert len(lines) - 1 == len(json_checks)
        first = lines[1].split(",")
        assert first[0] == json_checks[0]["id"]
        assert float(first[1]) == json_checks[0]["lhs"]

    def test_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BARNES_ZETA_SEED", "12345")
        code, rec, _ = run_cli(capsys, ["verify", "--suite", "reduction"])
        assert code == 0
        monkeypatch.setenv("BARNES_ZETA_SEED", "not-a-number")
        code, rec, err = run_cli(capsys, ["verify", "--suite", "reduction"])
        assert code == 64
        assert "BARNES_ZETA_SEED" in err
