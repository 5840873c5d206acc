import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


class TestGeneratorDocument:
    """determinacy --gen json names what is wrong with a malformed document."""

    @pytest.mark.parametrize("doc, message", [
        ("[]", "must be a JSON object, got list"),
        ('{"kind":"atomic","drift":"x"}', "field 'drift' must be a number, got 'x'"),
        ('{"kind":"atomic","drift":0,"atoms":[[-0.3]]}', "atom 0 must be an [x, w] pair"),
        ('{"kind":"log-poisson","a":0,"b":-1}', "missing field 'lambda'"),
        ('{"kind":"atomic","drift":NaN}', "drift must be finite"),
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
