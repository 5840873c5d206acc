import json

import pytest

from hscascade.cli import eps_grid, main, real


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFlagParsing:
    def test_rational(self):
        assert real("2/3") == 2.0 / 3.0
        assert real("0.5") == 0.5
        assert real("1e-3") == 1e-3

    def test_rejects_garbage(self):
        import argparse

        for bad in ("abc", "1/0", "2//3"):
            with pytest.raises(argparse.ArgumentTypeError):
                real(bad)

    def test_eps_grid(self):
        assert eps_grid("1e-1:1e-3") == pytest.approx([1e-1, 1e-2, 1e-3])
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            eps_grid("1e-3:1e-1")

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--beta", "2/3", "--bigC", "2"])  # no --r
        assert exc.value.code == 2


class TestUsageErrors:
    """Bad flag values exit 2 through argparse, never with a traceback."""

    def usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "usage:" in err and "Traceback" not in err
        return err

    def test_gen_json_without_document(self, capsys):
        err = self.usage_error(capsys, "determinacy", "--gen", "json")
        assert "--gen-json" in err

    def test_zero_hierarchy_step(self, capsys, tmp_path):
        # without --gamma the mean-one drift divides by k
        self.usage_error(capsys, "spectrum", "--beta", "2/3", "--bigC", "2", "--k", "0",
                         "--out", str(tmp_path / "x.csv"))

    def test_negative_seed(self, capsys, tmp_path):
        self.usage_error(capsys, "simulate", "--beta", "2/3", "--bigC", "2", "--r", "0.5",
                         "--samples", "1000", "--seed", "-1",
                         "--out-structure", str(tmp_path / "s.csv"),
                         "--out-zeta", str(tmp_path / "z.csv"))

    def test_removed_flags(self, capsys):
        self.usage_error(capsys, "--threads", "2", "classify-family")
        self.usage_error(capsys, "simulate", "--gen", "log-poisson", "--beta", "2/3",
                         "--bigC", "2", "--r", "0.5")


class TestSimulateAnalyze:
    def test_round_trip(self, tmp_path, capsys):
        structure = tmp_path / "structure.csv"
        zcsv = tmp_path / "zeta.csv"
        code, out, _ = run(
            capsys, "simulate", "--beta", "2/3", "--bigC", "2", "--gamma", "1/9",
            "--k", "3", "--r", "0.5", "--levels", "8", "--samples", "100000",
            "--seed", "1", "--out-structure", str(structure), "--out-zeta", str(zcsv),
        )
        assert code == 0
        assert structure.exists() and zcsv.exists()

        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", str(zcsv), "--k", "3", "--r", "0.5",
            "--out", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "a1-holds"
        assert abs(doc["logpoisson"]["lambda"] - 1.386294) < 0.3

    def test_rerun_byte_identical(self, tmp_path, capsys):
        args = [
            "simulate", "--beta", "2/3", "--bigC", "2", "--gamma", "1/9",
            "--k", "3", "--r", "0.5", "--levels", "5", "--samples", "10000",
            "--seed", "7",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, *args, "--out-structure", str(tmp_path / "s1.csv"), "--out-zeta", str(a))
        run(capsys, *args, "--out-structure", str(tmp_path / "s2.csv"), "--out-zeta", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_csv_exits_1_with_json_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# {}\np,zeta_hat,se\n0,0,0\n3,oops,0.1\n")
        code, _, err = run(capsys, "analyze", str(bad), "--k", "3", "--r", "0.5")
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "ValueError"
        assert "row" in doc["message"]

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"),
                           "--k", "3", "--r", "0.5")
        assert code == 1
        assert json.loads(err)["error"] in ("OSError", "FileNotFoundError")


class TestSpectrum:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "spectrum", "--beta", "2/3", "--bigC", "2", "--gamma", "1/9",
            "--k", "3", "--d", "3", "--points", "11", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "h,f"
        assert len(lines) == 13

    def test_monofractal_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "spectrum", "--beta", "2/3", "--bigC", "0", "--gamma", "0.1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"


class TestStability:
    def test_split_sweep(self, tmp_path, capsys):
        out = tmp_path / "stab.csv"
        code, _, _ = run(
            capsys, "stability", "--beta", "2/3", "--bigC", "2", "--gamma", "1/9",
            "--k", "3", "--r", "0.5", "--eps-grid", "1e-2:1e-4", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "epsilon,w1_levy,bound,bound_ok,w1_multiplier"
        assert len(lines) == 5
        for line in lines[2:]:
            eps, w1, bound, ok, _ = line.split(",")
            assert ok == "true"
            assert float(w1) <= float(bound) + 1e-12


    def test_split_sweep_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "stability", "--beta", "2/3", "--bigC", "2", "--gamma", "1/9",
            "--k", "3", "--r", "0.5", "--eps-grid", "1e-2:1e-3",
        )
        assert code == 0
        lines = out.splitlines()
        assert json.loads(lines[0][1:])["preset"] == "split"
        assert lines[1] == "epsilon,w1_levy,bound,bound_ok,w1_multiplier"
        assert [line.split(",")[3:] for line in lines[2:]] == [["true", ""]] * 2


class TestClassifyFamily:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "classify-family")
        assert code == 0
        verdicts = dict(line.split() for line in out.splitlines()[1:])
        assert verdicts == {
            "log-poisson": "a1-holds",
            "monofractal": "monofractal",
            "log-normal": "affine-divergent",
            "log-stable": "power-decay",
        }


class TestDeterminacy:
    def test_log_normal(self, capsys):
        code, out, _ = run(capsys, "determinacy", "--gen", "log-normal",
                           "--mu", "-0.1", "--sigma2", "0.2", "--P", "300")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "indeterminate-convergent"
        assert abs(doc["partial_sum"] - 4.99169) < 1e-3

    def test_log_poisson(self, capsys):
        code, out, _ = run(capsys, "determinacy", "--gen", "log-poisson")
        assert code == 0
        assert json.loads(out)["verdict"] == "determinate-divergent"
