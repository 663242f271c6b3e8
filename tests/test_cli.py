import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from confgeo.catalog import build_instance
from confgeo.chart import save_chart
from confgeo.cli import main
from confgeo.config import DEFAULT
from confgeo.conformal_atlas import lift_chart

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassifyCommand:
    def test_assembled_chart_classifies(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--catalog", "ex33", "--m", "4", "--K", "2", "--grid", "3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["branch"] == "ParallelB"
        assert data["eigenstructure"]["t"] == 2

    @pytest.mark.parametrize("split", ["1", "2"])
    def test_assembled_chart_with_a_polar_core_factor(self, capsys, split):
        code, out, _ = run_cli(
            capsys, "classify", "--catalog", "ex33", "--m", "5", "--K", "3", "--split", split,
            "--grid", "3",
        )
        assert code == 0
        assert json.loads(out)["branch"] == "ParallelB"

    def test_infeasible_construction_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--catalog", "ex32", "--m", "4", "--K", "2")
        assert code == 2
        assert "infeasible" in err

    def test_invalid_parameters_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--catalog", "wp", "--m", "3", "--p", "2")
        assert code == 1
        assert "p + q < m" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_invalid_classify_tol_exit_code(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "classify", "--catalog", "sxh", "--grid", "3", "--classify-tol", tol
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--classify-tol" in err


class TestMapCommand:
    def test_pi_plus_representative_rejected(self, capsys):
        code, _, err = run_cli(capsys, "map", "--which", "psi1", "--point", "0,1,1,0,0,0")
        assert code == 1
        assert "pi_plus" in err

    def test_embedding_output_lightlike(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--which", "sigma1", "--point", "2,2.2360679774997896,0,0")
        assert code == 0
        data = json.loads(out)
        assert data["lightlike"] is True
        assert data["output"] == [1.0, 2.0, 2.2360679774997896, 0.0, 0.0]

    def test_composite_reports_permutation(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--which", "sigma^1", "--point", "0,0,0,0")
        assert code == 0
        data = json.loads(out)
        assert data["output"][-1] == 1.0
        assert "permutation" in data

    def test_unknown_map(self, capsys):
        code, _, err = run_cli(capsys, "map", "--which", "sigma^9", "--point", "0,0,0,0")
        assert code == 1


class TestAnalyzeCommand:
    def test_json_deterministic(self, capsys, tmp_path):
        args = ["analyze", "--catalog", "sxh", "--grid", "3"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        data = json.loads(p1.read_text())
        assert data["n_points"] == 27
        assert set(data["points"][0]) == {
            "u",
            "rho",
            "H",
            "A_eigs",
            "B_eigs",
            "Phi_norm",
            "residuals",
        }

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "a.csv"
        code = main(["analyze", "--catalog", "sxh", "--grid", "3", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 28
        assert lines[0].startswith("u_0,u_1,u_2,rho,H")

    def test_chart_file_source(self, capsys, tmp_path, sxh_chart):
        path = tmp_path / "chart.json"
        save_chart(sxh_chart, path)
        code, out, _ = run_cli(capsys, "residuals", "--chart-file", str(path), "--grid", "3")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True

    @pytest.mark.parametrize("jet_mode", ["analytic", "fd"])
    def test_lifted_chart_file_source(self, capsys, tmp_path, jet_mode):
        path = tmp_path / "chart.json"
        save_chart(lift_chart(build_instance("hxr"), "psi1").with_jet_mode(jet_mode), path)
        code, out, _ = run_cli(capsys, "analyze", "--chart-file", str(path), "--grid", "3")
        assert code == 0
        data = json.loads(out)
        assert data["chart"] == "hxr(m=3,k=1)@psi1"
        assert data["jet_mode"] == jet_mode

    def test_stencil_era_fd_chart_file(self, capsys, stencil_era_fd_chart_file):
        # the FD residual report gates the fit's error estimate with the identities
        code, out, _ = run_cli(capsys, "residuals", "--chart-file", str(stencil_era_fd_chart_file))
        assert code == 0
        data = json.loads(out)
        assert data["jet_mode"] == "fd" and data["pass"] is True
        assert data["gates"]["fd_error_estimate"]["tolerance"] == DEFAULT.residual_tol_fd

    def test_chart_file_with_invalid_fd_order(self, capsys, tmp_path, sxh_chart):
        path = tmp_path / "chart.json"
        save_chart(sxh_chart.with_jet_mode("fd"), path)
        data = json.loads(path.read_text())
        for order in (0, -2):
            data["fd"]["order"] = order
            path.write_text(json.dumps(data))
            code, _, err = run_cli(capsys, "residuals", "--chart-file", str(path))
            assert code == 1
            assert err.startswith("error:") and "FD accuracy order" in err

    def test_chart_file_with_invalid_fd_step(self, capsys, tmp_path, sxh_chart):
        path = tmp_path / "chart.json"
        save_chart(sxh_chart.with_jet_mode("fd"), path)
        data = json.loads(path.read_text())
        for step in ("abc", True, float("nan"), [0.1]):
            data["fd"]["step"] = step
            path.write_text(json.dumps(data))
            code, _, err = run_cli(capsys, "residuals", "--chart-file", str(path))
            assert code == 1
            assert err.startswith("error:") and "FD step" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "analyze")
        assert code == 1
        assert "exactly one" in err


class TestVerifyCatalog:
    def test_full_catalog_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-catalog", "--grid", "3")
        data = json.loads(out)
        assert code == 0, data
        assert data["pass"] is True
        assert data["catalog"]["ex32"]["status"] == "infeasible (documented)"
        for name in ("hxr", "sxh", "hxh", "wp", "ex33"):
            assert data["catalog"][name]["status"] == "pass"


def test_console_script_help():
    # the subprocess finds the package in src, installed or not
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "confgeo.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "verify-catalog" in proc.stdout


def test_cold_classify_imports_no_scipy_or_numpy_test_tools(tmp_path):
    # a fresh process that classifies one chart loads neither scipy nor the
    # numpy.testing / f2py stack that `from numpy import *` pulls in
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = tmp_path / "report.json"
    script = (
        "import json, sys\n"
        "import confgeo.cli\n"
        f"code = confgeo.cli.main(['classify', '--catalog', 'sxh', '--grid', '3', '--out', {str(out)!r}])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'unittest')"
        " or m == 'numpy.f2py' or m.startswith('numpy.f2py.'))))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["branch"] == "ParallelB"
    assert json.loads(proc.stdout) == []


def test_catalog_classify_loads_no_sympy(tmp_path):
    # catalog charts are plain formulas: importing confgeo and classifying
    # every catalog family, and a catalog chart file, in a fresh process
    # loads no sympy module
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    chart_file = tmp_path / "sxh-fd.json"
    save_chart(build_instance("sxh").with_jet_mode("fd"), chart_file)
    out = tmp_path / "report.json"
    script = (
        "import json, sys\n"
        "def sympy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')\n"
        "import confgeo\n"
        "seen = {'import': sympy_modules()}\n"
        "import confgeo.cli\n"
        "runs = [['--catalog', name] for name in ('hxr', 'sxh', 'hxh', 'wp', 'ex33')]\n"
        f"runs.append(['--chart-file', {str(chart_file)!r}])\n"
        "for run in runs:\n"
        f"    code = confgeo.cli.main(['classify', *run, '--grid', '3', '--out', {str(out)!r}])\n"
        f"    branch = json.load(open({str(out)!r}))['branch']\n"
        "    seen[' '.join(run)] = [code, branch, sympy_modules()]\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("import") == []
    assert len(seen) == 6
    for run, result in seen.items():
        assert result == [0, "ParallelB", []], run
