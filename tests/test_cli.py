import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hscascade import cascade, cli, symmetry
from hscascade.cli import eps_grid, main, real
from hscascade.exponents import CascadeParams, ScalingLaw
from hscascade.generators import logpoisson_from_scaling
from test_readme import readme_commands


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

        for bad in ("abc", "1/0", "2//3", "nan", "inf", "-inf", "1e400", "1" + "0" * 400 + "/3"):
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

    def test_gen_json_without_gen_json(self, capsys):
        err = self.usage_error(capsys, "determinacy", "--gen", "log-normal",
                               "--gen-json", '{"kind": "atomic", "drift": -0.1, "sigma2": 0.2, "atoms": []}')
        assert "--gen-json requires --gen json" in err

    def test_gamma_with_mean_one(self, capsys, tmp_path):
        # --mean-one sets the drift, so --gamma would be dropped
        err = self.usage_error(capsys, "simulate", "--beta", "2/3", "--bigC", "2", "--r", "0.5",
                               "--gamma", "0.5", "--mean-one", "--samples", "1000",
                               "--out-structure", str(tmp_path / "s.csv"),
                               "--out-zeta", str(tmp_path / "z.csv"))
        assert "--gamma has no effect with --mean-one" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("grid", ["1e-1:2e-2", "1:0.5"])
    def test_eps_grid_between_decades(self, capsys, grid):
        # a grid of whole decades from HI would pass LO (1e-1:2e-2) or stop short of it (1:0.5)
        err = self.usage_error(capsys, "stability", "--beta", "2/3", "--bigC", "2",
                               "--r", "0.5", "--eps-grid", grid)
        assert "whole power of 10" in err

    def test_zero_hierarchy_step(self, capsys, tmp_path):
        # without --gamma the mean-one drift divides by k
        self.usage_error(capsys, "spectrum", "--beta", "2/3", "--bigC", "2", "--k", "0",
                         "--out", str(tmp_path / "x.csv"))

    def test_negative_seed(self, capsys, tmp_path):
        self.usage_error(capsys, "simulate", "--beta", "2/3", "--bigC", "2", "--r", "0.5",
                         "--samples", "1000", "--seed", "-1",
                         "--out-structure", str(tmp_path / "s.csv"),
                         "--out-zeta", str(tmp_path / "z.csv"))

    def test_non_finite_gamma(self, capsys, tmp_path):
        err = self.usage_error(capsys, "spectrum", "--beta", "2/3", "--bigC", "2",
                               "--gamma", "nan", "--out", str(tmp_path / "x.csv"))
        assert "not a finite number" in err

    @pytest.mark.parametrize("grid", ["1e200:1e-200", "inf:1e-6"])
    def test_eps_grid_ratio_overflow(self, capsys, grid):
        err = self.usage_error(capsys, "stability", "--beta", "2/3", "--bigC", "2",
                               "--r", "0.5", "--eps-grid", grid)
        assert "finite HI/LO" in err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--beta", "2/3", "--bigC", "2", "--r", "0.5", "--samples", "50"],
         "--samples: must be >= 100"),
        (["simulate", "--beta", "2/3", "--bigC", "2", "--r", "0.5", "--levels", "1"],
         "--levels: must be >= 2"),
        (["stability", "--beta", "2/3", "--bigC", "2", "--r", "0.5", "--samples", "5000"],
         "--samples: must be 0 or >= 10000"),
        (["determinacy", "--P", "5"], "--P: must be >= 10"),
        (["spectrum", "--beta", "2/3", "--bigC", "2", "--points", "1"], "--points: must be >= 2"),
        (["classify-family", "--m-max", "1"], "--m-max: must be >= 4"),
        (["classify-family", "--m-max", "3"], "--m-max: must be >= 4"),  # classify needs m = 0..4
    ])
    def test_below_library_minimum(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # nothing is written, but the defaults name files
        err = self.usage_error(capsys, *argv)
        assert message in err

    def test_removed_flags(self, capsys):
        self.usage_error(capsys, "--threads", "2", "classify-family")
        self.usage_error(capsys, "simulate", "--gen", "log-poisson", "--beta", "2/3",
                         "--bigC", "2", "--r", "0.5")


# a zeta-estimate CSV of the canonical law's orders 0, 3, ..., 18
ZETA_ROWS = ("p,zeta_hat,se\n0,0,0\n3,1,0.01\n6,1.5,0.02\n9,1.8,0.02\n12,2,0.03\n"
             "15,2.15,0.03\n18,2.25,0.04\n")
# a covariance whose diagonal is ZETA_ROWS' se squared, and adjacent orders correlated 0.5
COV = np.diag(np.array([0.0, 0.01, 0.02, 0.02, 0.03, 0.03, 0.04]) ** 2)
COV += np.diag(0.5 * np.sqrt(np.diagonal(COV)[1:] * np.diagonal(COV)[:-1]), 1)
COV = np.triu(COV) + np.triu(COV, 1).T


def zeta_csv(cov) -> str:
    """ZETA_ROWS under a JSON line that carries `cov`."""
    return f"# {json.dumps({'cov': cov})}\n" + ZETA_ROWS


ZETA_CSV = zeta_csv(COV.tolist())


class TestOutOfRangeParameters:
    """A parameter out of range or too large exits 1 with JSON on stderr, not a verdict."""

    @pytest.mark.parametrize("argv, error, message", [
        (["determinacy", "--gen", "log-normal", "--threshold", "-1"], "ValueError",
         "threshold must be > 0"),
        (["determinacy", "--gen", "log-normal", "--threshold", "0"], "ValueError",
         "threshold must be > 0"),
        (["analyze", "zeta.csv", "--k", "3", "--r", "0.5", "--tol", "-1"], "ValueError",
         "tolerance must be >= 0"),
        (["spectrum", "--beta", "2/3", "--bigC", "2", "--d", "-1"], "ValueError",
         "support dimension"),
        (["spectrum", "--beta", "2/3", "--bigC", "2", "--d", "0"], "ValueError",
         "support dimension"),
        (["classify-family", "--bigC", "1e300"], "OverflowError", "not finite at any q"),
        (["simulate", "--beta", "2/3", "--bigC", "2", "--gamma", "1e300", "--k", "3", "--r", "0.5",
          "--levels", "3", "--samples", "200"], "OverflowError", "jackknife error is not finite"),
        # Poisson rates of ~7e16 and ~7e8 jumps per sample, refused before anything is drawn
        (["simulate", "--beta", "2/3", "--bigC", "1e17", "--r", "0.5", "--levels", "2",
          "--samples", "100"], "ValueError", "cap of 16777216 jumps per sample"),
        (["simulate", "--beta", "2/3", "--bigC", "1e9", "--r", "0.5", "--levels", "2",
          "--samples", "100"], "ValueError", "cap of 16777216 jumps per sample"),
        # log Phi overflows when the levels are added, before any cell sees them
        (["simulate", "--beta", "2/3", "--bigC", "2", "--gamma", "1e308", "--k", "3", "--r", "0.5",
          "--levels", "3", "--samples", "200"], "OverflowError", "jackknife error is not finite"),
        (["stability", "--beta", "2/3", "--bigC", "2", "--gamma", "-2000", "--k", "3", "--r", "0.5",
          "--eps-grid", "1e-1:1e-2", "--samples", "10000"], "OverflowError",
         "W = exp(log W) is not finite"),
    ])
    def test_exits_1_with_json_stderr(self, capsys, tmp_path, monkeypatch, argv, error, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "zeta.csv").write_text(ZETA_CSV)
        code, out, err = run(capsys, *argv)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == error and message in doc["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["zeta.csv"]  # nothing written

    def test_huge_rate_allocates_nothing_large(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "simulate", "--beta", "2/3", "--bigC", "1e9", "--r", "0.5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and json.loads(err)["error"] == "ValueError"
        assert peak < 50 * 2**20


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

    def test_analyze_csv_matches_the_in_memory_chain(self, tmp_path, capsys):
        # zeta.csv carries zeta_hat, se and the covariance exactly, so analyze reports
        # what estimate_zeta -> estimate_deltas -> classify/characterize report in memory
        zcsv = tmp_path / "zeta.csv"
        code, _, _ = run(
            capsys, "simulate", "--beta", "2/3", "--bigC", "2", "--gamma", "1/9", "--k", "3",
            "--r", "0.5", "--levels", "8", "--samples", "20000", "--seed", "12",
            "--out-structure", str(tmp_path / "structure.csv"), "--out-zeta", str(zcsv),
        )
        assert code == 0
        code, out, _ = run(capsys, "analyze", str(zcsv), "--k", "3", "--r", "0.5")
        assert code == 0

        law = ScalingLaw(gamma=1.0 / 9.0, big_c=2.0, beta=2.0 / 3.0, k=3)
        cfg = cascade.SimConfig(params=CascadeParams(r=0.5, k=3), n_levels=8, n_samples=20_000,
                                seed=12)
        zhat = cascade.estimate_zeta(cascade.simulate(cfg, logpoisson_from_scaling(law, 0.5)))
        series = cascade.estimate_deltas(zhat, 3)
        report = symmetry.classify(series)
        assert report.verdict == "a1-holds"  # affine-divergent with independent errors
        report = symmetry.characterize(series, 0.5, 3)
        assert out == report.to_json() + "\n"

    def test_analyze_fits_once(self, tmp_path, monkeypatch, capsys):
        # classify's fit carries the law; characterize would fit the same series again
        monkeypatch.chdir(tmp_path)
        simulate, analyze = readme_commands()[:2]
        assert run(capsys, *simulate)[0] == 0
        fit_a1, calls = symmetry.fit_a1, []
        monkeypatch.setattr(symmetry, "fit_a1", lambda series: calls.append(1) or fit_a1(series))
        code, out, _ = run(capsys, *analyze)
        assert code == 0 and json.loads(out)["logpoisson"] is not None
        assert len(calls) == 1

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

    @pytest.mark.parametrize("text, message", [
        ("", "no header line"),
        ("# {}\np,zeta_hat,se\n", "no data rows"),
        (ZETA_CSV.replace("6,1.5,0.02", "6,1.5,nan"), "stderr entries must be finite"),
        (ZETA_CSV.replace("6,1.5,0.02", "6,1.5,-0.02"), "stderr entries must be finite and >= 0"),
        ("# {}\n" + ZETA_ROWS, "needs the covariance of zeta_hat"),
        (zeta_csv([[0.0]]), "expected a 7 x 7 covariance"),
        (zeta_csv("x"), "must be a numeric matrix"),
        (zeta_csv({"a": 1}), "must be a numeric matrix"),
        (ZETA_CSV.replace("6,1.5,0.02", "6,1.5,0.03"), "diagonal are not se"),
        (zeta_csv((COV + np.triu(COV, 1) * 0.5).tolist()), "not symmetric"),
        (zeta_csv(np.where(COV > 0, COV, np.nan).tolist()), "must be finite"),
        (ZETA_CSV + "3,1.5,0.01\n", "order p = 3.0 appears in more than one row"),
    ])
    def test_empty_or_header_only_csv_exits_1_with_json_stderr(self, tmp_path, capsys, text,
                                                                message):
        path = tmp_path / "zeta.csv"
        path.write_text(text)
        code, _, err = run(capsys, "analyze", str(path), "--k", "3", "--r", "0.5")
        assert code == 1
        assert "Traceback" not in err
        doc = json.loads(err)
        assert doc["error"] == "ValueError" and message in doc["message"]

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"),
                           "--k", "3", "--r", "0.5")
        assert code == 1
        assert json.loads(err)["error"] in ("OSError", "FileNotFoundError")


class TestParserReuse:
    """main builds its parser once per process, and reusing it changes no output."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_defaults_are_fresh_per_parse(self):
        argv = ["stability", "--beta", "2/3", "--bigC", "2", "--r", "0.5"]
        a, b = (cli.build_parser().parse_args(argv) for _ in range(2))
        assert a.eps_grid == b.eps_grid == eps_grid("1e-1:1e-6")
        assert a.eps_grid is not b.eps_grid

    def test_errors_leave_the_next_commands_unchanged(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the commands write structure.csv, zeta.csv, spectrum.csv

        def readme_round():
            outputs = [run(capsys, *argv) for argv in readme_commands()]
            return outputs, {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}

        first = readme_round()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--beta", "2/3", "--bigC", "2", "--r", "0.5", "--samples", "50"])
        assert exc.value.code == 2 and "usage:" in capsys.readouterr().err
        code, _, err = run(capsys, "analyze", "structure.csv", "--k", "3", "--r", "0.5")
        assert code == 1 and json.loads(err)["error"] == "ValueError"
        assert readme_round() == first
        assert [code for code, _, _ in first[0]] == [0] * 6
        assert sorted(first[1]) == ["spectrum.csv", "structure.csv", "zeta.csv"]


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

    def test_tiny_beta_exits_0_with_empty_stderr(self, capsys):
        code, _, err = run(capsys, "classify-family", "--beta", "1e-300")
        assert code == 0
        assert err == ""


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

    def test_prints_the_drift_free_terms_it_judged(self, capsys):
        # W's own terms carry e**-50 and read as a converging sum; the terms of W*e**-drift,
        # which the verdict judges, stay above the threshold
        doc = '{"kind": "atomic", "drift": 50.0, "sigma2": 0.0, "atoms": [[-0.5, 1.0]]}'
        code, out, err = run(capsys, "determinacy", "--gen", "json", "--gen-json", doc)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["verdict"] == "determinate-divergent"
        assert report["last_term"] < 1e-20
        assert report["drift_free_last_term"] >= 1e-6
        assert report["drift_free_partial_sum"] > 1.0

    def test_drift_free_terms_at_zero_drift_are_the_terms(self, capsys):
        doc = '{"kind": "atomic", "drift": 0.0, "sigma2": 0.3, "atoms": [[-0.5, 1.0]]}'
        report = json.loads(run(capsys, "determinacy", "--gen", "json", "--gen-json", doc)[1])
        assert report["drift_free_partial_sum"] == report["partial_sum"]
        assert report["drift_free_last_term"] == report["last_term"]

    def test_an_infinite_drift_free_sum_prints_as_null(self, capsys):
        # at rate 2000 the first drift-free term is e**865, past the float range; the drift
        # keeps W's own terms finite
        doc = '{"kind": "atomic", "drift": 1000.0, "sigma2": 0.0, "atoms": [[-1.0, 2000.0]]}'
        code, out, err = run(capsys, "determinacy", "--gen", "json", "--gen-json", doc)
        assert code == 0 and err == ""
        assert "Infinity" not in out and "NaN" not in out
        report = json.loads(out)
        assert report["verdict"] == "determinate-divergent"
        assert report["drift_free_partial_sum"] is None
        assert report["drift_free_last_term"] == pytest.approx(math.exp(5.0), rel=1e-12)


class TestGeneratorDocument:
    """determinacy --gen json names what is wrong with a malformed document."""

    @pytest.mark.parametrize("doc, message", [
        ("[]", "must be a JSON object, got list"),
        ('{"kind":"atomic","drift":"x"}', "field 'drift' must be a number, got 'x'"),
        ('{"kind":"atomic","drift":0,"atoms":[[-0.3]]}', "atom 0 must be an [x, w] pair"),
        ('{"kind":"log-poisson","a":0,"b":-1}', "missing field 'lambda'"),
        ('{"kind":"atomic","drift":NaN}', "drift must be finite"),
        ('{"kind":"log-stable","drift":0,"alpha":1.9,"c":1,"x_min":1e-200,"x_max":1}',
         "tail mass is not finite"),
    ])
    def test_malformed_exits_1_with_json_stderr(self, capsys, doc, message):
        code, _, err = run(capsys, "determinacy", "--gen", "json", "--gen-json", doc)
        assert code == 1
        report = json.loads(err)
        assert report["error"] == "ValueError" and message in report["message"]

    def test_valid_document(self, capsys):
        doc = '{"kind":"log-poisson","a":-0.077,"b":-0.135,"lambda":1.386}'
        code, out, _ = run(capsys, "determinacy", "--gen", "json", "--gen-json", doc)
        assert code == 0
        assert json.loads(out)["verdict"] == "determinate-divergent"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=4),
    max_leaves=12,
)

VALID_DOCS = [
    {"kind": "log-poisson", "a": -0.077, "b": -0.135, "lambda": 1.386},
    {"kind": "log-normal", "drift": -0.1, "sigma2": 0.2},
    {"kind": "log-stable", "drift": 0.0, "alpha": 0.5, "c": 0.05, "x_min": 1e-4, "x_max": 1.0,
     "atoms": [[-1.0, 0.5]]},
    {"kind": "atomic", "drift": 0.1, "sigma2": 0.0, "atoms": [[-1.0, 0.5], [-2.0, 0.25]]},
]


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCS))))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(doc) + ["atoms", "sigma2", "extra"]))
        action = draw(st.sampled_from(["delete", "number", "replace", "replace_atom"]))
        atoms = doc.get("atoms")
        if action == "delete":
            doc.pop(key, None)
        elif action == "number":
            doc[key] = draw(st.floats() | st.integers())
        elif action == "replace_atom" and isinstance(atoms, list) and atoms:
            atoms[draw(st.integers(0, len(atoms) - 1))] = draw(json_values)
        else:
            doc[key] = draw(json_values)
    return doc


def run_determinacy(text):
    """Exit code and stderr of determinacy --gen json, SystemExit included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["determinacy", "--gen", "json", f"--gen-json={text}", "--P", "20"])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestGeneratorDocumentFuzz:
    """Any document keeps the CLI contract: exit 0/1/2, JSON on stderr, no traceback."""

    def check(self, doc):
        code, err = run_determinacy(json.dumps(doc))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert json.loads(err)["error"]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=json_values)
    def test_arbitrary_json(self, doc):
        self.check(doc)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=mutated_documents())
    def test_mutated_valid_documents(self, doc):
        self.check(doc)


# --- every README command, with 1-2 flag values replaced ---------------------------

# the value flags of each command, and sizes small enough for an example to take milliseconds
VALUE_FLAGS = {
    "simulate": ["--beta", "--bigC", "--gamma", "--k", "--r", "--levels", "--samples", "--seed"],
    "analyze": ["--k", "--r", "--tol"],
    "spectrum": ["--beta", "--bigC", "--gamma", "--k", "--d", "--points"],
    "stability": ["--beta", "--bigC", "--gamma", "--k", "--r", "--preset", "--eps-grid", "--u2",
                  "--samples", "--seed"],
    "classify-family": ["--r", "--k", "--beta", "--bigC", "--gamma", "--m-max"],
    "determinacy": ["--gen", "--sigma2", "--mu", "--beta", "--bigC", "--gamma", "--k", "--r",
                    "--P", "--threshold"],
}
SMALL = {"--levels": "3", "--samples": "200"}


def readme_command(name):
    """The README's `name` command: its leading words and a dict of its flag values."""
    (argv,) = [argv for argv in readme_commands() if argv[0] == name]
    n = next((i for i, a in enumerate(argv) if a.startswith("--")), len(argv))
    flags = dict(zip(argv[n::2], argv[n + 1::2]))
    if name == "simulate":
        flags.update(SMALL)
    return argv[:n], flags


numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-100, 100), st.integers(-100, 100)).map(lambda f: f"{f[0]}/{f[1]}"),
    st.sampled_from(["0", "1", "-1", "1e-300", "1e300", "nan", "inf", "2/3", "0.5", "0.9999"]),
)
flag_values = numbers | st.text(max_size=6)


@st.composite
def eps_grids(draw):
    """HI:LO spanning at most 3 decades, or malformed."""
    hi = draw(st.floats(-1.0, 1e3))
    return f"{hi!r}:{hi * 10.0 ** -draw(st.integers(-1, 3))!r}"


# size flags are drawn from small ranges only, so no example allocates large arrays
SIZE_VALUES = {
    "--levels": st.integers(-1, 6),
    "--samples": st.integers(-1, 2000) | st.integers(9_990, 10_010),
    "--points": st.integers(-1, 50),
    "--P": st.integers(-1, 60),
    "--m-max": st.integers(-1, 12),
}
# where a law is sampled, --bigC and --r set its jump rate -C*ln(r), the jumps drawn per
# sample, so there they are size flags too: rates up to ~50 (and out-of-range values)
RATE_VALUES = {"--bigC": st.floats(-1.0, 10.0), "--r": st.floats(0.01, 1.5)}
SAMPLING = ("simulate", "stability")
# simulate refuses a rate whose counts reach past 2**24 before it draws, so its --bigC also
# takes absurd values; stability's presets of >= 2 atoms would draw every jump of 10**4 samples
SIMULATE_BIGC = RATE_VALUES["--bigC"] | st.sampled_from([1e9, 1e17, 1e300])


@st.composite
def mutated_commands(draw):
    """A README command with 1-2 flag values replaced, each passed as --flag=value."""
    head, flags = readme_command(draw(st.sampled_from(sorted(VALUE_FLAGS))))
    for flag in draw(st.lists(st.sampled_from(VALUE_FLAGS[head[0]]), min_size=1, max_size=2,
                              unique=True)):
        if flag in SIZE_VALUES:
            flags[flag] = str(draw(SIZE_VALUES[flag]))
        elif flag == "--bigC" and head[0] == "simulate":
            flags[flag] = repr(draw(SIMULATE_BIGC))
        elif flag in RATE_VALUES and head[0] in SAMPLING:
            flags[flag] = repr(draw(RATE_VALUES[flag]))
        elif flag == "--eps-grid":
            flags[flag] = draw(eps_grids() | st.text(max_size=6))
        else:
            flags[flag] = draw(flag_values)
    return head + [f"{flag}={value}" for flag, value in flags.items()]


class TestCommandFuzz:
    """Every README command keeps the CLI contract under drawn flag values."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz")
        (path / "zeta.csv").write_text(ZETA_CSV)
        return path

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(argv=mutated_commands())
    def test_exit_code_and_stderr(self, workdir, monkeypatch, argv):
        monkeypatch.chdir(workdir)  # every output file names a path relative to the workdir
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert json.loads(err.getvalue())["error"]
