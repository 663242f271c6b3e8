import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from confgeo.catalog import build_instance
from confgeo.chart import chart_to_dict, save_chart
from confgeo.classifier import classify
from confgeo.cli import build_parser, main, render_json
from confgeo.config import DEFAULT
from confgeo.conformal_atlas import MAP_TAGS, lift_chart

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

    @pytest.mark.parametrize(
        "argv,key,known",
        [
            (["--catalog", "wp", "--k", "2"], "'k'", "m, p, q, a"),
            (["--catalog", "sxh", "--r", "2"], "'r'", "m, k, a"),
        ],
    )
    def test_parameter_the_family_does_not_take(self, capsys, argv, key, known):
        code, out, err = run_cli(capsys, "classify", *argv, "--grid", "3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and key in err and known in err

    @pytest.mark.parametrize("family", ["sxh", "wp"])
    @pytest.mark.parametrize("a", ["inf", "1e200"])
    def test_infinite_warp_radius_rejected(self, capsys, family, a):
        code, out, err = run_cli(capsys, "classify", "--catalog", family, "--a", a, "--grid", "3")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {family} requires a finite sqrt(a^2 - 1), got a=")

    def test_singular_normal_system_is_inconclusive(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--catalog", "sxh", "--a", "1e50", "--grid", "3")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["branch"] == "Inconclusive"
        assert data["failing_gate"] == "regularity"

    def test_valid_classify_tol_is_reported(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "--catalog", "sxh", "--grid", "3", "--classify-tol", "1e-3"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["tolerances"]["classify_tol"] == 0.001

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_invalid_classify_tol_exit_code(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "classify", "--catalog", "sxh", "--grid", "3", "--classify-tol", tol
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--classify-tol" in err

    def test_classify_tol_argument_prints_the_flag_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--catalog", "sxh", "--grid", "3", "--classify-tol", "1e-6")
        assert code == 0
        assert out == render_json(classify(build_instance("sxh"), counts=3, classify_tol=1e-6).to_dict())


# sha256 of the exact stdout of the analytic reports at grid 3; FD reports
# are left out, as they still depend on the BLAS thread count (ROADMAP item 6)
REPORT_GOLDEN = [
    (("classify", "--catalog", "hxr"), "7495aeb3aab68a974d05ad0728d55ecd3a5987dd1f5a9f4a34ca0cf306d707a1"),
    (("analyze", "--catalog", "hxr", "--format", "csv"), "b35433f9efcd21f8ae65036ed01199c7854cc8f270b0de0d5dacf65f9beb080f"),
    (("classify", "--catalog", "sxh"), "f6170639eb968745f31d39eb1483555cbb2e2c2de7048bfc62716b524da61a51"),
    (("analyze", "--catalog", "sxh", "--format", "csv"), "0d7bccfc14c2aa1240dd5815d0de17f50eac5508525d2e8c9563b57197f21a55"),
    (("classify", "--catalog", "hxh"), "bcd5c045e0fffb2668cea794befaaed6380ada7b917f8caf7180395d8befd574"),
    (("analyze", "--catalog", "hxh", "--format", "csv"), "393f8ff6c294e0ca5fe7a996368fac9b7fb3d0ef9eaf7bb1538e2745f60b356b"),
    (("classify", "--catalog", "wp"), "2cceda9a6c4a97cc55f9f5687301e075c9aa347814f8277e91f54afc1d1cc8ee"),
    (("analyze", "--catalog", "wp", "--format", "csv"), "f2094c14c31df99aae065434c1fddf762412622d4d491c1041b6c95c2d3485b5"),
    (("classify", "--catalog", "ex33"), "b7f532a8fef5367a260998b3d209a31aedefa30df4b311df5827c2c31d5d9a5e"),
    (("analyze", "--catalog", "ex33", "--format", "csv"), "700c899622102d8f1eba58d4544d3a6d1fa79b9aa8500b687899832b36444502"),
    (("verify-catalog",), "3d2a304cea91f78f374c6b6e6c66290172af59a0e9a66af5dec35184645113dd"),
]


@pytest.mark.parametrize(
    "argv,digest", REPORT_GOLDEN,
    ids=["-".join(a for a in argv if not a.startswith("--")) for argv, _ in REPORT_GOLDEN],
)
def test_golden_report(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv, "--grid", "3")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# sha256 of the exact `map` stdout at one point per MAP_TAGS entry
MAP_GOLDEN = [
    ("sigma0", "0.5,-0.3,0.2,0.1", "105a11c76037ac72828ae0f54273a422d02e50fc679e1a028c3e8499628e66bb"),
    ("sigma1", "2,2.2360679774997898,0,0", "262aac34e744fa9df57a074fda76178bc0339813bcd2ec149c474c30a4633736"),
    ("sigma-1", "0.6,0.8,0,0,0", "8f027936079026c1bb41013ae12ff48153c6ab042bb629fe436cec6ce0818700"),
    ("psi1", "1,2,2.2360679774997898,0,0", "4a3e0678ab9671d116ffd53504bf7ea35ddc009b067f7dc87a0e29de1b1b0718"),
    ("psi2", "0.6,0.8,1,0,0", "5bbb1e29b11b4f5128b704a5aa8139ca273d212d26b193879fc2e75afe00f7c8"),
    ("tswap", "1,2,3,4", "035a639fe7f05f8dd97b70fc7451b26d3a810b01e0b10a46168187f8afba02cb"),
    ("sigma^1", "0.3,0.2,-0.1,0.5", "fdd8c163517fcba9acbd409b0feae51fa31b83eb85f0ce9ae7898216d8baa2d2"),
    ("sigma^2", "1,0.2,0.3,0.4", "bf2534f3c0f261d616d9c02f6ad94997f9845ef3839a1fe3ffb0c22e6a8fe892"),
    ("tau^1", "1.4142135623730951,0,0,0,1", "fba9e5db7b00bd09508e72558605f736158d357dac45042719eb3c2a9d39a9be"),
    ("tau^2", "0.6,0.8,0,0,0", "18913719119c810a577da72c09ef69b33806619cf154b0ecb1ddbfec9a188e96"),
]


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

    @pytest.mark.parametrize("which,point,digest", MAP_GOLDEN)
    def test_golden_output(self, capsys, which, point, digest):
        code, out, err = run_cli(capsys, "map", "--which", which, "--point", point)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_golden_output_covers_every_map(self):
        assert sorted(which for which, _, _ in MAP_GOLDEN) == sorted(MAP_TAGS)

    @pytest.mark.parametrize(
        "which,point,line",
        [
            ("psi1", "0,1,1,0,0", "error: psi1 undefined: dividing slot 1 vanishes (representative on pi_plus)\n"),
            ("sigma^1", "1,0,0,0", "error: sigma^1 undefined: denominator '1 + <u,u>' vanishes\n"),
        ],
    )
    def test_golden_domain_errors(self, capsys, which, point, line):
        assert run_cli(capsys, "map", "--which", which, "--point", point) == (1, "", line)

    @pytest.mark.parametrize(
        "which,point,line",
        [
            ("psi1", "0,0,0,0,0", "error: zero vector does not represent a projective point\n"),
            ("psi2", "0,0,0,0,0", "error: zero vector does not represent a projective point\n"),
            ("psi1", "1,0,0,0,0", "error: point is off the null cone: |<y,y>| > 1e-08 |y|^2\n"),
            ("psi2", "0.5,-1,0,0.3,0", "error: point is off the null cone: |<y,y>| > 1e-08 |y|^2\n"),
        ],
    )
    def test_representative_refused(self, capsys, which, point, line):
        # psi maps a point of the conformal space: a nonzero null representative
        assert run_cli(capsys, "map", "--which", which, "--point", point) == (1, "", line)

    @pytest.mark.parametrize(
        "which,point",
        [("sigma^1", "nan,0,0,0"), ("sigma1", "nan,nan,nan,nan"), ("sigma0", "inf,0,0,0")],
    )
    def test_non_finite_point_rejected(self, capsys, which, point):
        code, out, err = run_cli(capsys, "map", "--which", which, "--point", point)
        assert (code, out) == (1, "")
        assert err == f"error: point {point!r} has a non-finite coordinate\n"

    @pytest.mark.parametrize(
        "which,point",
        [("sigma^1", "0.5,1e200,0,0"), ("sigma0", "1e200,0,0"), ("sigma0", "1e150,0,0"), ("sigma1", "1e200,1e200,0,0")],
    )
    def test_overflow_rejected(self, capsys, which, point):
        # a finite point whose map overflows: one error line, no numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli(capsys, "map", "--which", which, "--point", point)
        assert result == (1, "", f"error: {which} of point {point!r} overflows in double precision\n")
        assert caught == []

    @pytest.mark.parametrize("which,point,need", [("psi1", "1,2", 4), ("tau^1", "1,0", 3), ("sigma0", "1", 2)])
    def test_short_point_rejected(self, capsys, which, point, need):
        n = len(point.split(","))
        line = f"error: {which} needs a point of at least {need} coordinates (m >= 1), got {n}\n"
        assert run_cli(capsys, "map", "--which", which, "--point", point) == (1, "", line)

    @pytest.mark.parametrize(
        "which,point",
        [
            ("sigma0", "0.5,0.2"),
            ("sigma^1", "0.3,0.2"),
            ("sigma1", "0,1,0"),
            ("sigma-1", "1,0,0"),
            ("tau^1", "1.4142135623730951,0,1"),
            ("psi1", "1,0,1,0"),
            ("tswap", "1,2,3,4"),
        ],
    )
    def test_shortest_valid_point(self, capsys, which, point):
        # m = 1 in every source kind: 2 flat, 3 quadric and 4 representative slots
        code, out, err = run_cli(capsys, "map", "--which", which, "--point", point)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert len(data["output"]) == {"projective representative": 4, "de Sitter point": 3}[data["output_kind"]]


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
        for step in ("abc", True, float("nan"), [0.1], 10**400):
            data["fd"]["step"] = step
            path.write_text(json.dumps(data))
            code, _, err = run_cli(capsys, "residuals", "--chart-file", str(path))
            assert code == 1
            assert err.startswith("error:") and "FD step" in err

    def test_chart_file_beyond_double_precision_is_a_computation_error(self, capsys, tmp_path, sxh_chart):
        # sinh and cosh of the grid's first coordinate overflow
        path = tmp_path / "chart.json"
        data = chart_to_dict(sxh_chart)
        data["domain"]["lo"][0] = -1e300
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "classify", "--chart-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("computation error: chart 'sxh(") and err.count("\n") == 1
        assert "has a non-finite jet at 18 of 27 points" in err

    def test_chart_file_with_unknown_parameter(self, capsys, tmp_path, sxh_chart):
        path = tmp_path / "chart.json"
        save_chart(sxh_chart, path)
        data = json.loads(path.read_text())
        data["params"]["p"] = 2
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "residuals", "--chart-file", str(path))
        assert code == 1
        assert err.startswith("error:") and "'p'" in err and "m, k, a" in err

    @pytest.mark.parametrize(
        "edit",
        [
            "missing",
            "directory",
            "{not json",
            b"\xff\xfe",
            {"m": "x"},
            {"m": 1e400},
            {"domain": 5},
            {"domain": {"lo": ["a", 0.9, 0.25], "hi": [0.95, 1.7, 1.05]}},
            {"fd": []},
            {"ambient": "de_sitter"},
            {"params": {"a": "x"}},
            {"params": {"a": True}},
            {"params": {"k": 1e400}},
            {"params": {"m": 3}},
            {"params": {"lift": ["psi1"]}},
            {"m": "3"},
            {"m": 3.7},
            {"m": None},
            {"params": {"k": 1.5}},
            {"params": {"name": 1}},
            {"params": [["k", 1]]},
            {"domain": {"lo": [0.35, float("nan"), 0.25], "hi": [0.95, 1.7, 1.05]}},
            {"ambient": {"kind": "de_sitter", "a": float("nan")}},
            {"ambient": {"kind": "de_sitter", "a": 7.0}},
            {"ambient": {"kind": "de_sitter", "a": 10**400}},
            {"ambient": {"kind": "de_sitter", "a": "1"}},
        ],
        ids=[
            "missing", "directory", "not-json", "not-utf8", "m", "m-infinite", "domain", "bound",
            "fd", "ambient", "parameter", "parameter-bool", "parameter-infinite", "parameter-m", "lift",
            "m-string", "m-non-integral", "m-null", "parameter-non-integral", "parameter-name",
            "params-not-object", "bound-nan", "radius-nan", "radius", "radius-overflow", "radius-string",
        ],
    )
    def test_bad_chart_file_is_an_input_error(self, capsys, tmp_path, sxh_chart, edit):
        path = tmp_path / "chart.json"
        if edit == "missing":
            pass
        elif edit == "directory":
            path.mkdir()
        elif isinstance(edit, (str, bytes)):
            path.write_bytes(edit.encode() if isinstance(edit, str) else edit)
        else:
            path.write_text(json.dumps({**chart_to_dict(sxh_chart), **edit}))
        code, out, err = run_cli(capsys, "classify", "--chart-file", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_chart_file_of_an_infeasible_example_is_a_computation_error(self, capsys, tmp_path):
        path = tmp_path / "chart.json"
        path.write_text(json.dumps({"name": "ex32", "m": 4, "domain": {"lo": [0] * 4, "hi": [1] * 4}}))
        code, _, err = run_cli(capsys, "classify", "--chart-file", str(path))
        assert code == 2
        assert err.startswith("computation error: ex32 core construction infeasible: ")

    @pytest.mark.parametrize(
        "argv",
        [["classify", "--catalog", "sxh"], ["map", "--which", "sigma1", "--point", "2,2.2360679774997896,0,0"]],
        ids=["classify", "map"],
    )
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path, argv, target):
        out = tmp_path / "missing" / "report.json" if target == "missing-directory" else tmp_path
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write report to {str(out)!r}: ")

    def test_unwritable_partial_report_keeps_exit_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "report.json"
        code, stdout, err = run_cli(capsys, "analyze", "--catalog", "ex32", "--out", str(out))
        assert (code, stdout) == (2, "")
        computation, write = err.splitlines()
        assert computation.startswith("computation error: ex32 core construction infeasible: ")
        assert write.startswith(f"error: cannot write report to {str(out)!r}: ")

    def test_computation_error_writes_a_partial_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "analyze", "--catalog", "ex32", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("computation error: ex32 core construction infeasible: ")
        assert json.loads(path.read_text()) == {"error": err.removeprefix("computation error: ").rstrip("\n")}

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


class TestUsage:
    CHART = {"--catalog", "--chart-file", "--m", "--k", "--a", "--p", "--q", "--K", "--split", "--r", "--lift"}
    RUN = {"-h", "--help", "--grid", "--out"}
    OPTIONS = {
        "analyze": CHART | RUN | {"--format"},
        "classify": CHART | RUN | {"--classify-tol"},
        "residuals": CHART | RUN,
        "verify-catalog": RUN,
        "map": {"-h", "--help", "--which", "--point", "--out"},
    }

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        assert set(sub.choices) == set(self.OPTIONS)
        for name, parser in sub.choices.items():
            flags = {s for action in parser._actions for s in action.option_strings}
            assert flags == self.OPTIONS[name], name

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--catalog", "sxh", "--grid", "abc"],
            ["classify", "--catalog", "sxh", "--lift", "psi3"],
            ["classify", "--catalog", "sxh", "--format", "csv"],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "usage:" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--help")
        assert code == 0 and "--classify-tol" in out


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


def test_cold_cli_loads_none_of_the_heavy_modules():
    # a cold `classify` pays for every module confgeo.cli pulls in; the
    # report goes to stdout, the path users take
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    script = (
        "import contextlib, io, json, sys\n"
        "import confgeo.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as report:\n"
        "    code = confgeo.cli.main(['classify', '--catalog', 'sxh', '--grid', '3'])\n"
        "heavy = ('sympy', 'scipy', 'numpy.random', 'numpy.testing')\n"
        "loaded = sorted(m for m in sys.modules if m in heavy or m.startswith(tuple(h + '.' for h in heavy)))\n"
        "print(json.dumps([code, json.loads(report.getvalue())['branch'], loaded]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, "ParallelB", []]


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


def test_analytic_report_does_not_depend_on_the_thread_count():
    """`classify` of an analytic chart prints the same bytes with one and
    with two BLAS/OpenMP threads.  FD charts are left out: their reports
    still move with the thread count (ROADMAP item 6)."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "confgeo.cli", "classify", "--catalog", "sxh", "--grid", "3"],
            capture_output=True,
            env={
                **os.environ,
                "PYTHONPATH": path,
                "OMP_NUM_THREADS": threads,
                "OPENBLAS_NUM_THREADS": threads,
            },
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# classify in a process that cannot import sympy, then touch chart.exprs
WITHOUT_SYMPY = """
import sys
sys.modules["sympy"] = None
from confgeo.catalog import build_instance
from confgeo.cli import main
code = main(["classify", "--catalog", "sxh", "--grid", "3"])
try:
    build_instance("sxh").exprs
except ImportError as exc:
    print(exc, file=sys.stderr)
sys.exit(code)
"""


def test_classify_runs_without_sympy(capsys):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SYMPY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(capsys, "classify", "--catalog", "sxh", "--grid", "3")[1]
    assert proc.stderr.startswith("chart 'sxh(")
    assert proc.stderr.endswith("': its expressions need sympy; install confgeo[sympy]\n")
