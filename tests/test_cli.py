import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

import clext.cli
from clext import (
    ValidationError,
    build_fock_rep,
    energy_level,
    from_alpha,
    ladder_matrices,
    solve_r,
    structure_function,
)
from clext.cli import main, parse_config
from conftest import cli_in_guarded_child


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_worked_spec_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--lambda", "3", "--alpha", "1,-0.5,-0.5", "--dim", "30"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["header"]["command"] == "verify"
        assert report["header"]["lambda"] == 3
        assert report["header"]["seed"] == 42
        assert report["body"]["all_pass"] is True
        ids = {r["id"] for r in report["body"]["defining_relations"]["relations"]}
        assert {"commutator_T", "commutator_P", "quommutation_a"} <= ids

    def test_kappa_input(self, capsys):
        code, out, _ = run_cli(["verify", "--lambda", "2", "--kappa", "0.5"], capsys)
        assert code == 0
        assert json.loads(out)["header"]["alpha"] == [0.5, -0.5]

    def test_bad_sum_is_validation_error(self, capsys):
        code, _, err = run_cli(["verify", "--lambda", "3", "--alpha", "1,-0.5,-0.4"], capsys)
        assert code == 2
        assert "sum" in err
        assert "0.09999999999999998" in err

    def test_alpha_and_kappa_conflict(self, capsys):
        code, _, err = run_cli(
            ["verify", "--lambda", "2", "--alpha", "0,0", "--kappa", "0"], capsys
        )
        assert code == 2
        assert "not both" in err

    def test_lambda_cap(self, capsys):
        code, _, err = run_cli(["verify", "--lambda", "65", "--alpha", "0"], capsys)
        assert code == 2
        assert "capped" in err

    def test_missing_parameters(self, capsys):
        code, _, err = run_cli(["verify", "--lambda", "3"], capsys)
        assert code == 2
        assert "--alpha or --kappa" in err

    def test_smallest_dim(self, capsys):
        # only the top state of [a, adag] is masked, so dim 2 leaves one
        # state to check the commutators on, and dim 1 none
        code, out, _ = run_cli(["verify", "--alpha", "1,-0.5,-0.5", "--dim", "2"], capsys)
        assert code == 0
        assert json.loads(out)["body"]["all_pass"] is True
        code, out, err = run_cli(["verify", "--alpha", "1,-0.5,-0.5", "--dim", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "clext: error: margin 1 does not fit in dimension 1\n"

    def test_each_relation_is_reported_once(self, capsys):
        code, out, _ = run_cli(["verify", "--lambda", "3", "--alpha", "1,-0.5,-0.5"], capsys)
        assert code == 0
        body = json.loads(out)["body"]
        ids = [row["id"] for report in ("defining_relations", "projector_algebra")
               for row in body[report]["relations"]]
        assert len(ids) == 19
        assert sorted(ids) == sorted(set(ids))

    def test_csv_not_available(self, capsys):
        code, _, err = run_cli(
            ["verify", "--lambda", "2", "--alpha", "0,0", "--format", "csv"], capsys
        )
        assert code == 2


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"lambda": 3, "alpha": [1, -0.5, -0.5], "dim": 15}))
        code, out, _ = run_cli(["verify", "--config", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["header"]["dim"] == 15

    def test_flags_override_config(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"lambda": 3, "alpha": [1, -0.5, -0.5], "dim": 15}))
        code, out, _ = run_cli(["verify", "--config", str(path), "--dim", "18"], capsys)
        assert code == 0
        assert json.loads(out)["header"]["dim"] == 18

    def test_bad_sum_in_config(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"lambda": 3, "alpha": [1, -0.5, -0.4]}))
        code, _, err = run_cli(["verify", "--config", str(path)], capsys)
        assert code == 2
        assert "sum" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"lambda": 2, "alpha": [0, 0], "dimension": 5}))
        code, _, err = run_cli(["verify", "--config", str(path)], capsys)
        assert code == 2
        assert "dimension" in err

    def test_command_mismatch(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "spectrum", "lambda": 2, "alpha": [0, 0]}))
        code, _, err = run_cli(["verify", "--config", str(path)], capsys)
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        code, _, err = run_cli(["verify", "--config", str(path)], capsys)
        assert code == 2
        assert "JSON" in err

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["verify", "--alpha", "0,0"], {"seed": None}),
            (["pssqm-solve", "--alpha", "1,-0.5,-0.5"], {"mu": [1]}),
            (["verify", "--alpha", "0,0"], {"out": 5}),
            (["bd-scan"], {"scan_points": [1]}),
            (["dump", "--alpha", "0,0"], {"matrix": 5}),
            (["spectrum", "--alpha", "0,0"], {"format": "xml"}),
            (["verify", "--alpha", "0,0"], {"lambda": 2.7}),
            (["verify", "--alpha", "0,0"], {"dim": 30.9}),
        ],
        ids=["seed", "mu", "out", "scan_points", "matrix", "format", "lambda", "dim"],
    )
    def test_value_meets_the_flag_converter(self, capsys, tmp_path, argv, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(argv + ["--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        (key,) = config
        assert err.startswith("clext: error: ") and key in err


W3 = "1,-0.5,-0.5"
#: Flags that fix a small algebra for each command.
BASE_FLAGS = {
    "verify": ["--alpha", W3],
    "spectrum": ["--alpha", W3],
    "classify": ["--alpha", W3],
    "pssqm-solve": ["--alpha", W3],
    "pssqm-check": ["--alpha", W3],
    "ssqm": ["--alpha", "0.4,-0.4"],
    "bd-scan": ["--scan-points", "3", "--dim", "18"],
    "dump": ["--alpha", W3, "--dim", "4"],
}
COMMON = ("lambda", "alpha", "kappa", "dim", "tol", "seed", "out", "format")
PSSQM = COMMON + ("p", "mu", "eta")
TAKES = {
    "verify": COMMON,
    "spectrum": COMMON,
    "classify": COMMON,
    "pssqm-solve": PSSQM,
    "pssqm-check": PSSQM + ("r", "samples"),
    "ssqm": COMMON + ("variant",),
    "bd-scan": PSSQM + ("scan_from", "scan_to", "scan_points"),
    "dump": COMMON + ("matrix",),
}
#: key -> (flag text, config value); ssqm runs at lambda = 2.
VALUES = {
    "lambda": ("3", 3),
    "alpha": (W3, [1, -0.5, -0.5]),
    "kappa": ("0.25+0.25j,0.25-0.25j", [[0.25, 0.25], [0.25, -0.25]]),
    "dim": ("15", 15),
    "tol": ("1e-9", 1e-9),
    "seed": ("7", 7),
    "format": ("json", "json"),
    "p": ("2", 2),
    "mu": ("1", 1),
    "eta": ("1.7320508075688772,1", [1.7320508075688772, 1]),
    "r": ("-2.4,1,0", [-2.4, 1, 0]),
    "samples": ("2", 2),
    "variant": ("broken", "broken"),
    "scan_from": ("-1.5", -1.5),
    "scan_to": ("-0.5", -0.5),
    "scan_points": ("5", 5),
    "matrix": ("adag", "adag"),
}
SSQM_VALUES = {"lambda": ("2", 2), "alpha": ("0.4,-0.4", [0.4, -0.4]), "kappa": ("0.4", [0.4])}


class TestConfigFlagParity:
    """A config value and the same value as a flag give the same run."""

    @pytest.mark.parametrize(
        "command, key", [(command, key) for command, keys in TAKES.items() for key in keys]
    )
    def test_config_matches_flag(self, capsys, tmp_path, command, key):
        report = tmp_path / "report.txt"
        text, value = {**VALUES, "out": (str(report), str(report))}[key]
        if command == "ssqm":
            text, value = SSQM_VALUES.get(key, (text, value))
        if key == "format" and command in ("spectrum", "bd-scan"):
            text = value = "csv"
        # --samples draws each alpha itself, so its run fixes only the order
        base = ["--lambda", "3"] if key == "samples" else BASE_FLAGS[command]
        drop = {"--alpha"} if key in ("alpha", "kappa") else {"--" + key.replace("_", "-")}
        base = [t for pair in zip(base[::2], base[1::2]) if pair[0] not in drop for t in pair]
        flag = "--" + key.replace("_", "-")

        runs = []
        for argv, config in (([flag, text], None), ([], {key: value})):
            if config is not None:
                path = tmp_path / "run.json"
                path.write_text(json.dumps(config))
                argv = ["--config", str(path)]
            code, out, err = run_cli([command, *base, *argv], capsys)
            written = report.read_text() if report.exists() else None
            report.unlink(missing_ok=True)
            runs.append((code, out, err, written))
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 1), runs[0][2]


@pytest.mark.parametrize("command", list(TAKES))
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: clext {command} ")


class TestSpectrumCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--lambda", "3", "--alpha", "1,-0.5,-0.5", "--dim", "4",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,energy,sector"
        assert lines[1] == "0,1.0,0"
        assert lines[2] == "1,2.25,1"
        assert lines[4] == "3,4.0,0"

    def test_tsv_rows(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--lambda", "2", "--alpha", "0,0", "--dim", "3",
             "--format", "tsv"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[1] == "0\t0.5\t0"

    def test_csv_rows_at_dim_600(self, capsys):
        alpha = [0.5972937831560854, -0.6577684290400543, 0.060474645883968836]
        code, out, _ = run_cli(
            ["spectrum", "--alpha", ",".join(map(repr, alpha)), "--dim", "600",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        spec = from_alpha(3, alpha)
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 600
        for n, (index, energy, sector) in enumerate(rows):
            assert (int(index), int(sector)) == (n, n % 3)
            assert float(energy) == float(format(energy_level(spec, n), ".15g"))

    def test_admitted_alpha_sum_residue(self, capsys):
        # from_alpha admits |sum(alpha)| <= 1e-12; at sector lam - 1 the
        # closed-form E_n exceeds (F(n) + F(n+1))/2 by exactly sum(alpha)/2
        alpha = [0.5, -0.4999999999995]
        code, out, err = run_cli(
            ["spectrum", "--alpha", ",".join(map(repr, alpha)), "--dim", "8",
             "--format", "csv"],
            capsys,
        )
        assert code == 0, err
        spec = from_alpha(2, alpha)
        energies = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert energies == [float(format(energy_level(spec, n), ".15g")) for n in range(8)]

    def test_json_report_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for target in (first, second):
            code, _, _ = run_cli(
                ["spectrum", "--lambda", "3", "--alpha", "1,-0.5,-0.5",
                 "--out", str(target)],
                capsys,
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()


class TestClassifyCommand:
    def test_finite_dimensional(self, capsys):
        code, out, _ = run_cli(["classify", "--lambda", "2", "--alpha", "-1,1"], capsys)
        assert code == 0
        body = json.loads(out)["body"]
        assert body["kind"] == "finite-dimensional"
        assert body["dim"] == 1

    def test_non_unitary_is_an_outcome(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--lambda", "3", "--alpha", "-1.5,0.5,1"], capsys
        )
        assert code == 0
        assert json.loads(out)["body"]["kind"] == "non-unitary"

    def test_non_unitary_detail_is_a_plain_float(self, capsys):
        code, out, _ = run_cli(["classify", "--alpha", "5441.513,9802.353,-15246.866,2670.236,"
                                "7037.608,-6707.149,7601.522,-10599.217"], capsys)
        assert code == 0
        assert json.loads(out)["body"]["detail"] == (
            "F(3) = -1.8189894035458565e-12 < 0 before any zero: no unitary Fock representation")

    @pytest.mark.parametrize("alpha", (
        "5000,-5000,0",
        "139,110,102,174,-97,-85,-80,179,7,2,179,-630",
    ))
    def test_exact_zero_sum_at_large_couplings(self, capsys, alpha):
        # kappa is a Fourier sum of alpha, so it meets conjugation only to
        # rounding of size eps |alpha|, about 1e-12 here
        code, out, err = run_cli(["classify", "--alpha", alpha], capsys)
        assert code == 0, err
        assert json.loads(out)["body"]["kind"] == "bounded-from-below"


class TestNonFiniteInputs:
    """Non-finite couplings are usage errors, not NaN in a report."""

    @pytest.mark.parametrize("argv, name", (
        (["classify", "--lambda", "3", "--alpha", "nan,0,0"], "alpha"),
        (["classify", "--lambda", "4", "--kappa", "nan,1,2"], "kappa"),
        (["verify", "--lambda", "3", "--alpha", "inf,0,0"], "alpha"),
        (["pssqm-solve", "--alpha", "inf,-inf,0"], "alpha"),
        (["pssqm-solve", "--alpha", "1,-0.5,-0.5", "--eta", "nan,1.4"], "eta"),
        (["pssqm-check", "--alpha", "1,-0.5,-0.5", "--r", "nan,0,0"], "r"),
        (["bd-scan", "--eta", "inf,1"], "eta"),
        (["verify", "--lambda", "3", "--alpha", "1,-0.5,-0.5", "--tol", "nan"], "tol"),
        (["pssqm-check", "--alpha", "1,-0.5,-0.5", "--tol", "inf"], "tol"),
        (["bd-scan", "--scan-from", "nan", "--scan-points", "3"], "scan_from"),
        (["bd-scan", "--scan-to=-inf"], "scan_to"),
    ))
    def test_rejected(self, capsys, argv, name):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"clext: error: {name} must be finite")

    @pytest.mark.parametrize("argv, config", (
        (["verify", "--lambda", "3", "--alpha", "1,-0.5,-0.5"], {"tol": float("nan")}),
        (["bd-scan"], {"scan_from": "nan"}),
        (["bd-scan"], {"scan_to": float("inf")}),
    ))
    def test_rejected_from_config(self, capsys, tmp_path, argv, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))  # NaN and Infinity, which json.load reads
        code, out, err = run_cli(argv + ["--config", str(path)], capsys)
        (key,) = config
        assert (code, out) == (2, "")
        assert err.startswith(f"clext: error: {key} must be finite")

    @pytest.mark.parametrize("argv, message", (
        (["pssqm-check", "--alpha", "1,-0.5,-0.5", "--eta", "1e200,1"],
         "sum |eta|^2 must equal 2p = 4, got inf"),
        (["classify", "--alpha", "1e308,-1e308"], "kappa must be finite, got [(inf+nanj)]"),
        (["bd-scan", "--scan-from", "1e308", "--scan-to", "-1e308", "--scan-points", "3"],
         "alpha must be finite, got [inf, inf, -inf]"),
    ))
    def test_overflow_is_one_error_line(self, capsys, argv, message):
        # finite couplings that overflow on the way to the finiteness checks
        # raise no numpy warning ahead of the error line
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"clext: error: {message}\n")


class TestPssqmCommands:
    def test_solve_worked_example(self, capsys):
        code, out, _ = run_cli(
            ["pssqm-solve", "--p", "2", "--mu", "0", "--alpha", "1,-0.5,-0.5"], capsys
        )
        assert code == 0
        body = json.loads(out)["body"]
        assert body["p"] == 2
        assert abs(body["r"][0] - (-2.5)) < 1e-12
        assert abs(body["r"][1] - 1.0) < 1e-12
        assert abs(body["r"][2]) < 1e-12
        assert abs(body["ground_energy"] - (-0.25)) < 1e-12

    def test_solve_at_large_couplings(self, capsys):
        # the solved shifts reach 3e4 and meet the recursion to rounding at that size
        code, out, err = run_cli(
            ["pssqm-solve", "--mu", "3", "--alpha", "2370,1092,7687,7150,8689,811,5914,-33713"],
            capsys,
        )
        assert code == 0, err
        assert json.loads(out)["body"]["p"] == 7

    def test_check_at_large_couplings(self, capsys):
        # absolute residuals of 52.9 and 4.7e-10 are roundoff at that size
        code, out, err = run_cli(
            ["pssqm-check", "--mu", "3", "--alpha", "2370,1092,7687,7150,8689,811,5914,-33713"],
            capsys,
        )
        assert code == 0, err
        relations = json.loads(out)["body"]["relations"]
        assert relations["residual_multilinear"] > 50
        assert relations["residual_commutator"] > relations["tolerance"]
        assert max(relations["relative_multilinear"], relations["relative_commutator"]) < 1e-15

    def test_check_at_p_11_runs_at_its_default_dim(self, capsys):
        code, out, err = run_cli(["pssqm-check", "--p", "11", "--alpha", ",".join(["0"] * 12)],
                                 capsys)
        assert (code, err) == (0, "")
        body = json.loads(out)["body"]
        assert body["breaking"]["excited_multiplicities"] == [12] * 11
        assert json.loads(out)["header"]["dim"] == 144

    def test_solve_summary_prints_plain_floats(self, capsys, tmp_path):
        target = tmp_path / "solve.json"
        code, out, _ = run_cli(
            ["pssqm-solve", "--p", "2", "--mu", "1", "--alpha", "1,-0.5,-0.5",
             "--out", str(target)],
            capsys,
        )
        assert code == 0
        r = [float(v) for v in solve_r(from_alpha(3, [1.0, -0.5, -0.5]), 1)]
        assert out.splitlines()[0] == f"r = {r}"

    def test_check_passes_end_to_end(self, capsys):
        code, out, _ = run_cli(
            ["pssqm-check", "--p", "2", "--mu", "0", "--alpha", "1,-0.5,-0.5"], capsys
        )
        assert code == 0
        body = json.loads(out)["body"]
        assert body["pass"] is True
        assert body["breaking"]["breaking"] == "unbroken"
        assert body["relations"]["nonvanishing_witness"] > 0.1

    def test_tampered_shifts_fail(self, capsys):
        code, _, _ = run_cli(
            ["pssqm-check", "--p", "2", "--mu", "0", "--alpha", "1,-0.5,-0.5",
             "--r", "-2.4,1,0"],
            capsys,
        )
        assert code == 1

    def test_order_lambda_mismatch(self, capsys):
        code, _, err = run_cli(
            ["pssqm-check", "--p", "2", "--lambda", "4", "--alpha", "0,0,0,0"], capsys
        )
        assert code == 2
        assert "p + 1" in err

    def test_eta_override(self, capsys):
        eta = f"{math.sqrt(3)},1"  # norms 3 + 1 = 2p for p = 2
        code, out, _ = run_cli(
            ["pssqm-check", "--p", "2", "--mu", "1", "--alpha", "1,-0.5,-0.5",
             "--eta", eta],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["body"]["breaking"]["ground_multiplicity"] == 2

    def test_bad_eta_norm(self, capsys):
        code, _, err = run_cli(
            ["pssqm-check", "--p", "2", "--mu", "0", "--alpha", "1,-0.5,-0.5",
             "--eta", "1,1"],
            capsys,
        )
        assert code == 2

    def test_sampling_mode(self, capsys):
        code, out, _ = run_cli(
            ["pssqm-check", "--p", "2", "--mu", "1", "--samples", "4", "--seed", "7"],
            capsys,
        )
        assert code == 0
        body = json.loads(out)["body"]
        assert body["samples"] == 4
        assert len(body["rows"]) == 4
        assert body["all_pass"] is True
        assert sum(body["sign_counts"].values()) == 4


    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_rejected(self, capsys, samples):
        code, out, err = run_cli(["pssqm-check", "--p", "2", "--samples", samples], capsys)
        assert code == 2
        assert out == ""
        assert "samples must be >= 1" in err


class TestClusterCut:
    """pssqm-check and ssqm once clustered the spectrum without its top
    lambda (p + 1) states and rejected every dim up to that cut plus mu.  Now
    the levels that every sector reaches inside the truncation count, so the
    dims that cut refused run (the old cut and smallest dim are kept as
    parameters), and the one floor, dim >= 2 lambda, is the library's
    ValueError in one ``clext: error:`` line."""

    @pytest.mark.parametrize("argv, cut, dim", [
        (["pssqm-check", "--p", "12", "--alpha", ",".join(["0"] * 13)], 169, 156),
        (["pssqm-check", "--p", "2", "--alpha", "1,-0.5,-0.5", "--dim", "9"], 9, 9),
        (["pssqm-check", "--p", "12", "--samples", "1"], 169, 156),
        (["pssqm-check", "--p", "3", "--samples", "1", "--dim", "16"], 16, 16),
        (["ssqm", "--alpha", "0,0", "--dim", "4"], 4, 4),
    ])
    def test_dim_at_or_below_the_cut(self, capsys, argv, cut, dim):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["header"]["dim"] == dim <= cut

    @pytest.mark.parametrize("argv", [
        ["pssqm-check", "--p", "2", "--alpha", "1,-0.5,-0.5", "--dim", "10"],
        ["pssqm-check", "--p", "2", "--mu", "2", "--alpha", "1,-0.5,-0.5", "--dim", "12"],
        ["pssqm-check", "--p", "2", "--mu", "2", "--samples", "1", "--dim", "12"],
        ["ssqm", "--alpha", "0,0", "--dim", "6"],
        ["ssqm", "--alpha", "0,0", "--variant", "unbroken", "--dim", "5"],
    ])
    def test_dims_above_the_cut_run(self, capsys, argv):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["header"]["dim"] == int(argv[-1])

    @pytest.mark.parametrize("argv, smallest, mu, dim", [
        (["pssqm-check", "--p", "2", "--mu", "2", "--alpha", "1,-0.5,-0.5", "--dim", "10"],
         12, 2, 10),
        (["pssqm-check", "--p", "2", "--mu", "2", "--alpha", "1,-0.5,-0.5", "--dim", "11"],
         12, 2, 11),
        (["pssqm-check", "--p", "2", "--mu", "2", "--samples", "1", "--dim", "10"], 12, 2, 10),
        (["pssqm-check", "--p", "2", "--mu", "2", "--samples", "1", "--dim", "11"], 12, 2, 11),
        (["ssqm", "--alpha", "0,0", "--dim", "5"], 6, 1, 5),
        (["ssqm", "--alpha", "0,0", "--variant", "broken", "--dim", "5"], 6, 1, 5),
    ])
    def test_ground_multiplet_at_the_cut(self, capsys, argv, smallest, mu, dim):
        # the ground multiplet, states 0 .. mu, is complete below the old smallest dim
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and dim < smallest
        body = json.loads(out)["body"]
        if argv[0] == "ssqm":
            assert body["variants"][-1]["ground_multiplicity"] == mu + 1
        elif "rows" in body:
            assert body["all_pass"]
        else:
            assert body["breaking"]["ground_multiplicity"] == mu + 1 and body["pass"]

    @pytest.mark.parametrize("argv, dim", [
        (["pssqm-check", "--p", "2", "--alpha", "1,-0.5,-0.5", "--dim", "5"], 5),
        (["pssqm-check", "--p", "12", "--samples", "1", "--dim", "25"], 25),
        (["ssqm", "--alpha", "0,0", "--dim", "3"], 3),
    ])
    def test_dim_below_the_floor_gets_the_library_error(self, capsys, argv, dim):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        lam = 2 if argv[0] == "ssqm" else int(argv[2]) + 1
        assert err == (f"clext: error: dim must be at least 2 lam = {2 * lam}, where the ground "
                       f"and the first excited multiplet are complete for every mu, got {dim}\n")

    @pytest.mark.parametrize("dim", [None, "979", "1025", "2590", "2602"])
    def test_lambda_past_the_budget_gets_one_message(self, dim):
        # the lambda-51 message is gone: every dim within the held-bytes budget
        # parses (a dense check there takes minutes, so none runs), and a dim
        # past it gets the budget's one message
        argv = ["pssqm-check", "--p", "50", "--alpha", ",".join(["0"] * 51)]
        argv += ["--dim", dim] if dim else []
        if dim == "2602":
            with pytest.raises(ValidationError) as raised:
                parse_config(argv)
            assert str(raised.value) == (
                "dim must be at most 2590 for pssqm-check at lambda 51, which holds up to 160 "
                "bytes per matrix entry within 1024 MiB, got 2602")
        else:
            assert parse_config(argv).dim == int(dim or 612)

    def test_lambda_31_keeps_its_dim_bounds(self):
        # parsed only: a dense check at dim 2590 takes minutes; below the budget
        # the library decides the floor
        argv = ["pssqm-check", "--p", "30", "--alpha", ",".join(["0"] * 31), "--dim"]
        assert [parse_config(argv + [str(dim)]).dim for dim in (61, 961, 2590)] == [61, 961, 2590]
        with pytest.raises(ValidationError) as raised:
            parse_config(argv + ["2591"])
        assert str(raised.value) == (
            "dim must be at most 2590 for pssqm-check at lambda 31, which holds up to 160 "
            "bytes per matrix entry within 1024 MiB, got 2591")

    def test_mu_out_of_range_is_reported_as_such(self, capsys):
        code, _, err = run_cli(
            ["pssqm-check", "--p", "2", "--mu", "7", "--alpha", "1,-0.5,-0.5", "--dim", "12"],
            capsys)
        assert code == 2
        assert err == "clext: error: mu must lie in 0..2, got 7\n"


class TestHeldBytesBudget:
    """pssqm-check holds dense dim x dim words and dump one text line per
    entry, and bd-scan and pssqm-check --samples keep one report row per
    point or draw, so a dim or a count past MAX_HELD_BYTES is a usage error,
    raised before anything is allocated, that names the largest accepted
    value.  Any other allocation failure exits 2 with one line, never a
    traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["dump", "--lambda", "2", "--alpha", "0,0", "--dim", "200000"],
         "dim must be at most 6688 for dump at lambda 2, which holds up to 24 bytes per "
         "matrix entry within 1024 MiB, got 200000"),
        (["pssqm-check", "--lambda", "3", "--alpha", "0,0,0", "--dim", "20000"],
         "dim must be at most 2590 for pssqm-check at lambda 3, which holds up to 160 bytes "
         "per matrix entry within 1024 MiB, got 20000"),
        (["spectrum", "--lambda", "2", "--alpha", "0,0", "--dim", "300000000"],
         "out of memory (Unable to allocate "),
        (["verify", "--lambda", "2", "--alpha", "0,0", "--dim", "400000000"],
         "out of memory (Unable to allocate "),
    ])
    def test_oversized_dim_exits_2_under_a_memory_limit(self, argv, message):
        proc = cli_in_guarded_child(argv, 1024)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-2000:]
        assert proc.stderr.startswith(f"clext: error: {message}")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        # uncapped, either would keep rows for hours before writing its report
        (["bd-scan", "--scan-points", "10000000"],
         "scan_points must be at most 699050 for bd-scan at lambda 3, which holds up to 1536 "
         "bytes per report row within 1024 MiB, got 10000000"),
        (["pssqm-check", "--p", "1", "--samples", "10000000"],
         "samples must be at most 559240 for pssqm-check at lambda 2, which holds up to 1920 "
         "bytes per report row within 1024 MiB, got 10000000"),
    ])
    def test_oversized_count_exits_2_under_a_memory_limit(self, argv, message):
        proc = cli_in_guarded_child(argv, 1024)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"clext: error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["dump", "--lambda", "2", "--alpha", "0,0"],
        ["dump", "--lambda", "5", "--alpha", "0,0,0,0,0", "--matrix", "p3"],
        ["pssqm-check", "--p", "2", "--alpha", "1,-0.5,-0.5"],
        ["pssqm-check", "--p", "7", "--mu", "3", "--samples", "1"],
    ])
    def test_largest_dim_is_accepted(self, argv):
        with pytest.raises(ValidationError, match="dim must be at most") as raised:
            parse_config([*argv, "--dim", "1000000"])
        largest = int(str(raised.value).split()[5])
        assert parse_config([*argv, "--dim", str(largest)]).dim == largest
        with pytest.raises(ValidationError, match=f"at most {largest} .* got {largest + 1}$"):
            parse_config([*argv, "--dim", str(largest + 1)])
        per_entry = clext.cli._held_bytes_per_entry(argv[0])
        assert largest**2 * per_entry <= clext.cli.MAX_HELD_BYTES < (largest + 1)**2 * per_entry

    @pytest.mark.parametrize("argv, key", [
        (["bd-scan"], "scan_points"),
        (["pssqm-check", "--p", "1"], "samples"),
        (["pssqm-check", "--p", "7", "--mu", "3"], "samples"),
    ])
    def test_largest_count_is_accepted(self, argv, key):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(ValidationError, match=f"{key} must be at most") as raised:
            parse_config([*argv, flag, "100000000"])
        largest = int(str(raised.value).split()[5])
        assert getattr(parse_config([*argv, flag, str(largest)]), key) == largest
        with pytest.raises(ValidationError, match=f"at most {largest} .* got {largest + 1}$"):
            parse_config([*argv, flag, str(largest + 1)])
        per_row = clext.cli._held_bytes_per_row(argv[0], parse_config([*argv, flag, "1"]).lam)
        assert largest * per_row <= clext.cli.MAX_HELD_BYTES < (largest + 1) * per_row

    @pytest.mark.parametrize("argv, key, count", [
        # every point compatible and printed twice, at 16-digit parameters
        (["bd-scan", "--dim", "9", "--tol", "1e300", "--scan-from", "-0.12345678901234567",
          "--scan-to", "-0.9876543210987654"], "scan_points", 600),
        (["pssqm-check", "--p", "1", "--dim", "5"], "samples", 400),
        (["pssqm-check", "--p", "3", "--mu", "1", "--dim", "18"], "samples", 300),
    ])
    def test_row_budget_bounds_the_peak(self, capsys, argv, key, count):
        # what a run keeps beyond a one-row run of the same command, whose
        # peak is the fixed allowance, stays within the per-row estimate
        flag = "--" + key.replace("_", "-")
        per_row = clext.cli._held_bytes_per_row(argv[0], parse_config([*argv, flag, "1"]).lam)
        peaks = []
        for rows in (1, 1, count):  # the first run loads what the command imports
            tracemalloc.start()
            try:
                code = main([*argv, flag, str(rows)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert code == 0
        assert peaks[2] - peaks[1] <= per_row * (count - 1), (peaks, per_row * (count - 1))

    @pytest.mark.parametrize("argv", [
        ["dump", "--lambda", "3", "--alpha", "1,-0.5,-0.5", "--dim", "300"],
        ["dump", "--lambda", "3", "--alpha", "1,-0.5,-0.5", "--dim", "300", "--matrix", "num"],
        ["dump", "--lambda", "3", "--alpha", "1,-0.5,-0.5", "--dim", "300", "--matrix", "p1"],
        ["pssqm-check", "--p", "2", "--alpha", "1,-0.5,-0.5", "--dim", "200"],
        ["pssqm-check", "--p", "3", "--mu", "1", "--alpha", "0,0,0,0", "--dim", "200"],
        ["pssqm-check", "--p", "2", "--samples", "2", "--dim", "200"],
    ])
    def test_budget_bounds_the_peak(self, capsys, argv):
        # the per-entry estimate covers what the command allocates, up to a
        # fixed allowance for the parser, the spec and the report
        per_entry = clext.cli._held_bytes_per_entry(argv[0])
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code in (0, 1)
        dim = int(argv[argv.index("--dim") + 1])
        assert peak <= per_entry * dim**2 + (2 << 20), (peak, per_entry * dim**2)

    @pytest.mark.parametrize("error, detail", [
        (MemoryError("Unable to allocate 8 GiB"), "Unable to allocate 8 GiB"),
        (MemoryError(), "no detail"),
    ])
    def test_memory_error_exits_2(self, capsys, monkeypatch, error, detail):
        def build_fock_rep(spec, dim):
            raise error
        monkeypatch.setattr(clext.cli, "build_fock_rep", build_fock_rep)
        code, out, err = run_cli(["spectrum", "--lambda", "2", "--alpha", "0,0"], capsys)
        assert (code, out) == (2, "")
        assert err == f"clext: error: out of memory ({detail}); try a smaller --dim\n"


class TestSamplesTakeNoCouplings:
    """--samples draws each alpha and solves its shifts, so a given alpha,
    kappa or r would be ignored: it is a usage error that names the flag."""

    GIVEN = {"alpha": "1,-0.5,-0.5", "kappa": "0.25+0.25j,0.25-0.25j", "r": "1,2,3"}
    ERROR = "clext: error: --samples draws each alpha and solves its shifts: drop --{}\n"

    @pytest.mark.parametrize("key", list(GIVEN))
    def test_flag(self, capsys, key):
        code, out, err = run_cli(
            ["pssqm-check", "--p", "2", "--samples", "2", f"--{key}", self.GIVEN[key]], capsys)
        assert (code, out) == (2, "")
        assert err == self.ERROR.format(key)

    @pytest.mark.parametrize("key", list(GIVEN))
    def test_config(self, capsys, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"samples": 2, key: self.GIVEN[key]}))
        code, out, err = run_cli(["pssqm-check", "--p", "2", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == self.ERROR.format(key)

    def test_alpha_that_gives_the_order_is_rejected_too(self, capsys):
        code, out, err = run_cli(
            ["pssqm-check", "--alpha", "1,-0.5,-0.5", "--samples", "2"], capsys)
        assert (code, out) == (2, "")
        assert "drop --alpha" in err


class TestSsqmCommand:
    def test_both_variants_pass(self, capsys):
        code, out, _ = run_cli(["ssqm", "--lambda", "2", "--alpha", "0,0"], capsys)
        assert code == 0
        body = json.loads(out)["body"]
        assert [v["variant"] for v in body["variants"]] == ["unbroken", "broken"]
        assert body["all_pass"] is True

    def test_single_variant(self, capsys):
        code, out, _ = run_cli(
            ["ssqm", "--lambda", "2", "--alpha", "0.4,-0.4", "--variant", "broken"],
            capsys,
        )
        assert code == 0
        body = json.loads(out)["body"]
        assert len(body["variants"]) == 1
        assert abs(body["variants"][0]["ground_energy"] - 1.4) < 1e-12

    def test_needs_lambda_two(self, capsys):
        code, _, err = run_cli(["ssqm", "--lambda", "3", "--alpha", "0,0,0"], capsys)
        assert code == 2

    def test_unresolved_levels_are_not_a_dim_problem(self, capsys):
        # the broken variant's energies all sit at 1e300, where float64 cannot
        # resolve unit spacing: they form one cluster, which no dim would split
        code, out, err = run_cli(["ssqm", "--alpha", "1e300,-1e300"], capsys)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err == ("clext: error: all 24 energies fall in one cluster: float64 cannot "
                       "resolve their level spacing at magnitude 1e+300, and no dim separates "
                       "them\n")
        assert "increase dim" not in err


class TestBdScanCommand:
    def test_small_scan(self, capsys):
        code, out, _ = run_cli(
            ["bd-scan", "--mu", "0", "--scan-points", "5", "--dim", "18"], capsys
        )
        assert code == 0
        body = json.loads(out)["body"]
        assert len(body["rows"]) == 5
        assert body["compatible_parameters"] == [-1.0]

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            ["bd-scan", "--mu", "0", "--scan-points", "3", "--dim", "18",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "parameter,residual"
        assert len(lines) == 4

    def test_requires_order_two(self, capsys):
        code, _, err = run_cli(
            ["bd-scan", "--lambda", "4", "--alpha", "0,0,0,0"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("scan", (["-5", "-4"], ["-2", "0"]))
    def test_mu_out_of_range(self, scan, capsys):
        # rejected whether or not a scanned point is bounded from below
        code, out, err = run_cli(
            ["bd-scan", "--mu", "7", "--alpha", "0,0,0", "--scan-points", "2",
             "--scan-from", scan[0], "--scan-to", scan[1]], capsys
        )
        assert (code, out) == (2, "")
        assert "mu must lie in 0..2, got 7" in err

    def test_smallest_dim(self, capsys):
        # below lam + 1 = 4 the checked states read no nonzero charge entry at
        # some mu, so every point would pass at residual 0; dim 4 tells -1 apart
        for dim in ("1", "2", "3"):
            code, out, err = run_cli(["bd-scan", "--dim", dim, "--scan-points", "5"], capsys)
            assert (code, out) == (2, "")
            assert err == ("clext: error: dim must be at least lam + 1 = 4, where the checked "
                           f"states read a nonzero charge entry for every mu, got {dim}\n")
        code, out, _ = run_cli(["bd-scan", "--dim", "4", "--scan-points", "5"], capsys)
        assert code == 0
        rows = json.loads(out)["body"]["rows"]
        assert [row["residual"] <= 1e-10 for row in rows] == [False, False, True, False, False]

    @pytest.mark.parametrize("argv", [
        ["--dim", "2", "--scan-from", "5", "--scan-to", "6", "--scan-points", "3",
         "--format", "csv"],
        ["--dim", "3", "--scan-from", "5", "--scan-to", "6", "--scan-points", "2"],
    ])
    def test_smallest_dim_whatever_the_range(self, capsys, argv):
        # no point of these ranges is bounded from below, so no point reaches
        # the check; the dim is refused once, before the scan
        code, out, err = run_cli(["bd-scan", *argv], capsys)
        assert (code, out) == (2, "")
        assert err == ("clext: error: dim must be at least lam + 1 = 4, where the checked "
                       f"states read a nonzero charge entry for every mu, got {argv[1]}\n")


class TestDumpCommand:
    def test_column_major_entries(self, capsys):
        code, out, _ = run_cli(
            ["dump", "--lambda", "2", "--alpha", "0,0", "--dim", "3", "--matrix", "a"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        # a[0,1] = 1 sits at column-major position 3; a[1,2] = sqrt(2) at 7
        assert lines[3] == "1.0,0.0"
        assert lines[7] == f"{math.sqrt(2.0)!r},0.0"
        assert lines[0] == "0.0,0.0"

    def test_projector_dump(self, capsys):
        code, out, _ = run_cli(
            ["dump", "--lambda", "2", "--alpha", "0,0", "--dim", "2", "--matrix", "p1"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines() == ["0.0,0.0", "0.0,0.0", "0.0,0.0", "1.0,0.0"]

    def test_cyclic_generator_dump(self, capsys):
        code, out, _ = run_cli(
            ["dump", "--lambda", "3", "--alpha", "0,0,0", "--dim", "3", "--matrix", "t"],
            capsys,
        )
        assert code == 0
        dense = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        column_major = dense.T.ravel()
        assert out.splitlines() == [f"{z.real!r},{z.imag!r}" for z in column_major.tolist()]

    @pytest.mark.parametrize("matrix", ("a", "adag"))
    def test_ladder_dump(self, capsys, matrix):
        code, out, _ = run_cli(
            ["dump", "--lambda", "3", "--alpha", "1,-0.5,-0.5", "--dim", "7",
             "--matrix", matrix],
            capsys,
        )
        assert code == 0
        spec = from_alpha(3, [1.0, -0.5, -0.5])
        dense = np.diag(np.sqrt([structure_function(spec, n) for n in range(1, 7)]), 1)
        if matrix == "adag":
            dense = dense.T
        column_major = dense.astype(complex).T.ravel()
        expected = "".join(f"{z.real!r},{z.imag!r}\n" for z in column_major.tolist())
        assert out == expected

    @pytest.mark.parametrize("alpha, dims", [
        ([0.3, -0.3], (1, 2, 3, 7, 40)),
        ([1.0, -0.5, -0.5], (1, 2, 3, 7, 40)),
        ([0.4, -0.1, 0.2, -0.3, -0.2], (1, 2, 3, 7, 40)),
        ([0.01 * (-1) ** m for m in range(64)], (1, 2, 3, 7, 40)),
        ([-0.5, -1.5, 2.0, 0.0], (1, 2)),  # 2-dimensional: dim 2 is the exact rep
    ])
    def test_every_matrix_matches_the_dense_oracle(self, capsys, alpha, dims):
        spec = from_alpha(len(alpha), alpha)
        for dim in dims:
            rep = build_fock_rep(spec, dim)
            a, adag = ladder_matrices(rep)
            dense = {"a": a, "adag": adag, "num": np.diag(rep.num), "t": np.diag(rep.T),
                     **{f"p{mu}": np.diag(row) for mu, row in enumerate(rep.P)}}
            for name, mat in dense.items():
                code, out, _ = run_cli(["dump", "--alpha", ",".join(map(repr, alpha)),
                                        "--dim", str(dim), "--matrix", name], capsys)
                expected = "".join(f"{float(z.real)!r},{float(z.imag)!r}\n"
                                   for z in np.asarray(mat, dtype=complex).T.ravel())
                assert (code, out) == (0, expected), (dim, name)

    def test_unknown_matrix(self, capsys):
        code, _, err = run_cli(
            ["dump", "--lambda", "2", "--alpha", "0,0", "--matrix", "z"], capsys
        )
        assert code == 2
        assert err == ("clext: error: unknown matrix 'z'; "
                       "choose from ['a', 'adag', 'num', 'p0', 'p1', 't']\n")

    def test_atomic_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "matrix.txt"
        code, out, _ = run_cli(
            ["dump", "--lambda", "2", "--alpha", "0,0", "--dim", "2",
             "--matrix", "num", "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert target.read_text().splitlines() == ["0.0,0.0", "0.0,0.0", "0.0,0.0", "1.0,0.0"]
        assert "written" in out


class TestOutFileMode:
    """``--out`` leaves the file with the mode of a plain ``open(path, "w")``,
    and writes through a symlink as that call does."""

    ARGV = ["classify", "--lambda", "2", "--alpha", "1,-1", "--out"]

    @pytest.fixture
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def test_new_file_takes_the_umask(self, capsys, tmp_path, umask_022):
        target = tmp_path / "out.json"
        code, _, _ = run_cli([*self.ARGV, str(target)], capsys)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        assert json.loads(target.read_text())["body"]["kind"] == "bounded-from-below"

    def test_replaced_file_keeps_its_mode(self, capsys, tmp_path, umask_022):
        target = tmp_path / "out.json"
        target.write_text("old")
        target.chmod(0o640)
        code, _, _ = run_cli([*self.ARGV, str(target)], capsys)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_text() != "old"

    def test_symlink_writes_its_target(self, capsys, tmp_path, umask_022):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target.name)
        code, _, _ = run_cli([*self.ARGV, str(link)], capsys)
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert json.loads(target.read_text())["body"]["kind"] == "bounded-from-below"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "target.json"]


class TestNegativeValues:
    """A value with a leading minus sign reads the same after a space as
    after ``=``, for every flag that takes a value."""

    @pytest.mark.parametrize("head, flag, value, tail, code, err", (
        (["bd-scan"], "--scan-from", "-1e-3", ["--scan-points", "3"], 0, ""),
        (["bd-scan"], "--scan-to", "-inf", [], 2, "clext: error: scan_to must be finite"),
        (["verify", "--alpha", "0,0,0"], "--tol", "-1e-3", [], 2, "clext: error: tol must be >= 0"),
    ))
    def test_space_form_matches_equals_form(self, capsys, head, flag, value, tail, code, err):
        spaced = run_cli([*head, flag, value, *tail], capsys)
        assert spaced == run_cli([*head, f"{flag}={value}", *tail], capsys)
        assert spaced[0] == code
        assert spaced[2].startswith(err)

    def test_an_option_is_not_taken_as_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--alpha", "--dim", "5"])
        assert exc.value.code == 2
        assert "argument --alpha: expected one argument" in capsys.readouterr().err


class TestNegativeTolerance:
    def test_flag(self, capsys):
        code, out, err = run_cli(["verify", "--alpha", "0,0,0", "--tol", "-0.001"], capsys)
        assert (code, out) == (2, "")
        assert err == "clext: error: tol must be >= 0, got -0.001\n"

    def test_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tol": -0.001}))
        code, out, err = run_cli(["verify", "--alpha", "0,0,0", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "clext: error: tol must be >= 0, got -0.001\n"

    def test_zero_is_valid(self, capsys):
        code, out, err = run_cli(["verify", "--alpha", "0,0,0", "--tol", "0"], capsys)
        assert code in (0, 1)
        assert err == ""
        assert json.loads(out)["header"]["tol"] == 0
