import json
import math

import numpy as np
import pytest

from clext import energy_level, from_alpha, solve_r, structure_function
from clext.cli import main


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
        base = BASE_FLAGS[command]
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

    def test_unknown_matrix(self, capsys):
        code, _, err = run_cli(
            ["dump", "--lambda", "2", "--alpha", "0,0", "--matrix", "z"], capsys
        )
        assert code == 2

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
