"""Command-line interface: reports, formats, exit codes, determinism."""

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sasakiherm.product
from sasakiherm.cli import (
    _FLAGS,
    COMMANDS,
    MAX_ORACLE_POINTS,
    MAX_PHI_PAIRS,
    CheckRecord,
    Report,
    build_parser,
    emit_report,
    main,
    parse_factor_spec,
    parse_grid,
    run,
)
from sasakiherm.einstein import einstein_verdict
from sasakiherm.errors import GeometryError, InvalidParameterError
from sasakiherm.product import HermitianParams
from sasakiherm.tensors import TOLERANCES


README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def readme_cli_commands():
    """The ``sasakiherm`` commands of the README's command-line block, as argv lists."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command-line interface", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("sasakiherm ")]


def readme_flag_table():
    """The README's command -> flags table, as sets of option strings."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command-line interface", 1)[1].split("## Layout", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    return {
        command.strip().strip("`"): set(re.findall(r"`(--[\w-]+)`", flags))
        for command, flags in rows
    }


def parser_flags():
    """Each subcommand of the parser with the option strings it accepts, help aside."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {option for action in command._actions for option in action.option_strings}
        - {"-h", "--help"}
        for name, command in sub.choices.items()
    }


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridParsing:
    def test_single_value(self):
        assert parse_grid("0.5") == [0.5]

    def test_range_inclusive_of_stop(self):
        assert parse_grid("-1:1:0.5") == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert parse_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
        grid = parse_grid("0:1e-13:1e-14")
        assert len(grid) == 11 and grid[-1] == 1e-13

    def test_range_stop_unreachable(self):
        assert parse_grid("0:1:0.4") == [0.0, 0.4, 0.8]

    def test_locus_grid_keeps_every_value(self):
        # steps far below 1e-12 stay distinct, and the grid stops at stop
        grid = parse_grid("1.4142135623730:1.4142135623732:5e-14")
        assert len(set(grid)) == len(grid) == 5
        assert grid[0] == 1.4142135623730 and grid[-1] == 1.4142135623732

    def test_bad_specs(self):
        for spec in ("1:0:0.5", "0:1:-1", "0:1", "a:b:c", "x", "0:1:nan", "nan:1:0.5", "0:inf:1", "inf",
                     "0.1000000000000000000001:0.1:0.1"):
            with pytest.raises(InvalidParameterError):
                parse_grid(spec)


class TestFactorSpecs:
    def test_round(self):
        model = parse_factor_spec("round")(2)
        assert model.dim == 5

    def test_space_form(self):
        model = parse_factor_spec("space-form:5")(1)
        assert model.ricci[0, 0] == pytest.approx(6.0)

    def test_deformed(self):
        model = parse_factor_spec("deformed:0.5")(1)
        assert model.ricci[0, 0] == pytest.approx(6.0)  # c' = 4/alpha - 3 = 5

    def test_unknown(self):
        with pytest.raises(InvalidParameterError):
            parse_factor_spec("hyperbolic")

    @pytest.mark.parametrize(
        "spec,alpha", [("round", 1.0), ("space-form:5", 0.5), ("deformed:0.5", 0.5)]
    )
    def test_chart_alpha_realizes_the_same_factor(self, spec, alpha):
        # the chart deforms the round sphere by chart_alpha; the model built
        # from the spec must be the same space form
        parsed = parse_factor_spec(spec)
        assert parsed.chart_alpha == alpha
        realized = parse_factor_spec(f"deformed:{parsed.chart_alpha}")(1)
        assert parsed(1).ricci == pytest.approx(realized.ricci, abs=1e-12)

    def test_chart_alpha_needs_c_above_minus_three(self):
        parse_factor_spec("space-form:-4")(1)  # the model exists
        with pytest.raises(InvalidParameterError, match="needs c > -3"):
            parse_factor_spec("space-form:-4").chart_alpha


class TestEmitReport:
    def test_empty_check_list(self):
        report = Report(config={"command": "einstein"})
        payload = json.loads(emit_report(report, "json"))
        assert payload["summary"] == {"pass": 0, "fail": 0, "wall_time_ms": 0.0}
        assert payload["checks"] == []

    def test_single_passing_record(self):
        report = Report(config={}, checks=[CheckRecord("x", "id", 1e-14, 1e-12)])
        payload = json.loads(emit_report(report, "json"))
        assert payload["summary"]["pass"] == 1
        assert payload["checks"][0]["pass"] is True

    def test_json_schema_keys(self):
        report = Report(config={"p": 1}, checks=[CheckRecord("x", "id", 0.5, 1.0)])
        payload = json.loads(emit_report(report, "json"))
        assert list(payload.keys()) == ["config", "checks", "summary"]
        assert list(payload["checks"][0].keys()) == [
            "name", "anchor", "residual", "tolerance", "pass",
        ]

    def test_json_residuals_round_trip(self):
        residual = 1.2345678901234567e-9
        report = Report(config={}, checks=[CheckRecord("x", "id", residual, 1e-4)])
        payload = json.loads(emit_report(report, "json"))
        assert payload["checks"][0]["residual"] == residual

    def test_csv_round_trip(self):
        report = Report(
            config={},
            checks=[
                CheckRecord("first", "id one", 1.5e-13, 1e-12),
                CheckRecord("second", "id two", 2.0, 1e-12),
            ],
        )
        rows = list(csv.DictReader(io.StringIO(emit_report(report, "csv"))))
        assert [row["name"] for row in rows] == ["first", "second"]
        assert float(rows[0]["residual"]) == 1.5e-13
        assert rows[0]["pass"] == "True"
        assert rows[1]["pass"] == "False"


class TestCommands:
    def test_einstein_example_passes(self, capsys):
        code, out, _ = run_cli(
            [
                "einstein", "--p", "2", "--q", "1", "--a", "0",
                "--b", str(math.sqrt(2.0)),
                "--factor", "round", "--factor-prime", "space-form:5",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        names = {c["name"]: c for c in payload["checks"]}
        assert names["einstein_residual"]["pass"] is True
        assert "4.0" in names["einstein_residual"]["anchor"]

    def test_einstein_failure_exits_nonzero(self, capsys):
        code, out, _ = run_cli(
            ["einstein", "--p", "1", "--q", "1", "--a", "0.5", "--b", "1"], capsys
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["fail"] >= 1

    def test_einstein_assembles_ricci_once(self, monkeypatch, capsys):
        # the Reeb-entry check reads the Ricci tensor the verdict judged
        calls = []
        assemble = sasakiherm.product.build_product_ricci
        counted = lambda *args, **kwargs: calls.append(args) or assemble(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.startswith("sasakiherm") and vars(module).get("build_product_ricci") is assemble:
                monkeypatch.setattr(module, "build_product_ricci", counted)
        code, out, _ = run_cli(
            ["einstein", "--p", "2", "--q", "2", "--a", "0.3", "--b", "1.2"], capsys
        )
        assert code == 1
        assert len(calls) == 1
        names = {c["name"]: c for c in json.loads(out)["checks"]}
        assert names["reeb_ricci_ratio"]["pass"] is True

    def test_verify_product(self, capsys):
        code, out, _ = run_cli(
            ["verify-product", "--p", "1", "--q", "1", "--a", "0.5", "--b", "1.5"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        names = {c["name"]: c for c in payload["checks"]}
        assert names["integrability"]["residual"] <= 1e-12
        assert "2.5" in names["never_kahler"]["anchor"]
        assert names["not_weakly_star_einstein"]["pass"] is True

    def test_verify_factor(self, capsys):
        code, out, _ = run_cli(["verify-factor", "--p", "2", "--factor", "round"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0

    def test_verify_factor_space_form_off_unit_curvature(self, capsys):
        code, out, _ = run_cli(["verify-factor", "--p", "1", "--factor", "space-form:5"], capsys)
        assert code == 0
        identities = [c for c in json.loads(out)["checks"] if c["name"].startswith("identity.")]
        assert len(identities) == 4
        assert all(c["pass"] for c in identities)

    def test_example_command(self, capsys):
        code, out, _ = run_cli(["example", "--p", "3", "--q", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        names = {c["name"] for c in payload["checks"]}
        assert {"einstein", "einstein_constant", "star_scalar"} <= names

    def test_scan_has_exactly_one_einstein_cell(self, capsys):
        code, out, _ = run_cli(
            [
                "scan", "--p", "1", "--q", "1",
                "--a=-1:1:0.5", "--b=0.5:2:0.5",
                "--check", "einstein", "--format", "csv",
            ],
            capsys,
        )
        assert code == 1  # non-Einstein cells fail their residual check
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 20
        passing = [row["name"] for row in rows if row["pass"] == "True"]
        assert passing == ["einstein[a=0,b=1]"]

    def test_scan_excludes_zero_b_cells(self, capsys):
        code, out, _ = run_cli(
            [
                "scan", "--p", "1", "--q", "1", "--a", "0",
                "--b=-1:1:0.5", "--check", "integrability", "--format", "csv",
            ],
            capsys,
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4  # five grid values minus the excluded b = 0
        assert code == 0

    def test_scan_grid_ends_at_stop(self, capsys):
        # a fine grid stays within its stop, where every cell is Einstein
        code, out, _ = run_cli(
            ["scan", "--p", "1", "--q", "1", "--a=0:1e-13:1e-14", "--b", "1", "--format", "csv"],
            capsys,
        )
        assert len(list(csv.DictReader(io.StringIO(out)))) == 11
        assert code == 0

    def test_scan_names_tell_close_cells_apart(self, capsys):
        # :g prints all four b values as 1, so names fall back to repr there
        code, out, _ = run_cli(
            ["scan", "--p", "1", "--q", "1", "--a=0", "--b", "1.0000001:1.0000004:1e-7",
             "--format", "csv"],
            capsys,
        )
        assert code == 1
        names = [row["name"] for row in csv.DictReader(io.StringIO(out))]
        assert names == [f"einstein[a=0,b=1.000000{k}]" for k in range(1, 5)]

    def test_oracle_compare_smoke(self, capsys):
        code, out, _ = run_cli(
            [
                "oracle-compare", "--p", "1", "--q", "1", "--a", "0.5", "--b", "1",
                "--points", "1", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0


def first_point_error(a_grid, b_grid, factor_prime):
    """The error of the first failing cell when each is built and decided alone."""
    factor, factor_prime = parse_factor_spec("round")(2), parse_factor_spec(factor_prime)(1)
    for a, b in itertools.product(parse_grid(a_grid), parse_grid(b_grid)):
        try:
            einstein_verdict(factor, factor_prime, HermitianParams(a, b))
        except GeometryError as exc:
            return str(exc)
    return None


class TestScanErrors:
    LOCUS = "1.4142135623730:1.4142135623732:5e-14"

    @pytest.mark.parametrize(
        "a_grid,b_grid,prefix",
        [
            ("0:2e154:2e154", LOCUS, "structural and residual Einstein verdicts disagree"),
            ("-2e154:0:2e154", LOCUS, "a^2 + b^2 overflows at a = -2e+154"),
            ("-1e154:0:1e154", LOCUS, "product metric is singular"),
            ("0:2e154:2e154", "1e-7", "product metric is singular"),
            ("-2e154:0:2e154", "1e-7", "a^2 + b^2 overflows"),
        ],
        ids=["disagreement-then-overflow", "overflow-then-disagreement",
             "large-a-then-disagreement", "tiny-b-then-overflow", "overflow-then-tiny-b"],
    )
    def test_first_failing_cell_in_grid_order(self, capsys, a_grid, b_grid, prefix):
        code, out, err = run_cli(
            ["scan", "--p", "2", "--q", "1", f"--a={a_grid}", "--b", b_grid,
             "--factor-prime", "deformed:0.5"],
            capsys,
        )
        expected = first_point_error(a_grid, b_grid, "deformed:0.5")
        assert expected.startswith(prefix)
        assert (code, out, err) == (2, "", f"error: {expected}\n")

    def test_integrability_scan_decides_the_cells_before_an_overflow(self, capsys):
        code, out, err = run_cli(
            ["scan", "--p", "1", "--q", "1", "--a=0:2e154:2e154", "--check", "integrability"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: a^2 + b^2 overflows at a = 2e+154, b = 1.0\n"

    @pytest.mark.parametrize("check", ["einstein", "integrability"])
    def test_singular_metric_names_its_cell(self, capsys, check):
        code, out, err = run_cli(
            ["scan", "--p", "1", "--q", "1", "--a=0:1e154:5e153", "--check", check], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: product metric is singular (eigenvalues ")
        assert err.endswith(") at a = 5e+153, b = 1.0\n")

    def test_locus_scan_names_the_cell_and_its_distances(self, capsys):
        code, _, err = run_cli(
            ["scan", "--p", "2", "--q", "1", "--a=0", "--b", self.LOCUS,
             "--factor-prime", "deformed:0.5"],
            capsys,
        )
        assert code == 2
        assert err.startswith(
            "error: structural and residual Einstein verdicts disagree: structural=True "
            "residual=False (residual 1.209e-12, failing ()) at a = 0.0, b = 1.414213562373; "
            "distances against tol 1e-12: |a| = 0, |p - b^2 q| = 2.68e-13, factor max"
        )


@pytest.mark.parametrize(
    "argv,loaded",
    [(["verify-product", "--p", "1", "--q", "1"], False),
     (["oracle-compare", "--p", "1", "--q", "1", "--points", "1"], True)],
    ids=["verify-product", "oracle-compare"],
)
def test_only_oracle_compare_loads_the_chart_layer(argv, loaded):
    code = (
        "import contextlib, io, sys\n"
        "from sasakiherm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print('sasakiherm.chart' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded}\n"


class TestExitCodes:
    def test_invalid_b_is_usage_error(self, capsys):
        for command, flag, value, message in (
            ("einstein", "--b", "0", "b = 0 degenerates"),
            ("einstein", "--b", "inf", "must be finite, got inf"),
            ("einstein", "--a", "nan", "must be finite, got nan"),
            ("verify-product", "--a", "nan", "must be finite, got nan"),
            ("verify-product", "--a", "1e200", "a^2 + b^2 overflows at a = 1e+200, b = 1.0"),
            ("verify-product", "--a", "1e154", "product metric is singular"),
            ("oracle-compare", "--seed", "-1", "got --seed -1"),
            ("scan", "--a", "0:1:nan", "needs finite numbers"),
            ("scan", "--b", "x", "needs numbers"),
            ("oracle-compare", "--p", "0", "need at least one phi-pair, got 0"),
            ("oracle-compare", "--q", "-1", "need at least one phi-pair, got -1"),
            # a valid factor whose chart metric has eigenvalue ratio 6e-16
            ("oracle-compare", "--factor-prime", "space-form:-2.9999999",
             "metric is singular (eigenvalues "),
        ):
            code, out, err = run_cli([command, "--p", "1", "--q", "1", flag, value], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error") and message in err

    def test_unknown_factor_is_usage_error(self, capsys):
        for command in ("verify-factor", "oracle-compare"):
            for spec in ("torus", "space-form:abc", "deformed:", "space-form:nan", "deformed:inf"):
                code, out, err = run_cli([command, "--p", "1", "--factor", spec], capsys)
                assert code == 2
                assert out == ""
                assert repr(spec) in err

    def test_argparse_rejects_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-factor", "--p", "1", "--factor", "deformed:2e154"],
            ["oracle-compare", "--p", "1", "--q", "1", "--factor-prime", "deformed:2e154",
             "--points", "1"],
        ],
        ids=["verify-factor", "oracle-compare"],
    )
    def test_deformation_whose_square_overflows_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: deformation parameter 2e+154 has a square that overflows\n"

    @pytest.mark.parametrize(
        "grids,cells",
        [(["--a=0:1e300:1e-300"], "1.00000e+600"), (["--a=0:1000:1", "--b=1:100:1"], "100100")],
    )
    def test_scan_grid_past_the_cell_bound_is_usage_error(self, capsys, grids, cells):
        # both grids are counted before either is built
        start = time.perf_counter()
        code, out, err = run_cli(["scan", "--p", "1", "--q", "1", *grids], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == f"error: scan grid has {cells} cells, more than 100000\n"

    @pytest.mark.parametrize("c", ["1e308", "-1e308"])
    @pytest.mark.parametrize("command", ["verify-factor", "verify-product", "einstein"])
    def test_space_form_past_the_curvature_bound_is_usage_error(self, capsys, command, c):
        # RuntimeWarnings are errors under pytest: the value is rejected before it overflows
        code, out, err = run_cli([command, "--p", "1", "--factor", f"space-form:{c}"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: space-form curvature c = {float(c)!r} is outside |c| <= 1e+300\n"

    @pytest.mark.parametrize("size", ["1000", str(10**9)])
    @pytest.mark.parametrize(
        "command,flag",
        [(name, key) for name, (_, keys, _) in COMMANDS.items() for key in ("p", "q")
         if key in keys],
    )
    def test_phi_pairs_past_the_bound_is_usage_error(self, capsys, command, flag, size):
        # rejected before any factor is built
        start = time.perf_counter()
        code, out, err = run_cli([command, f"--{flag}", size], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == f"error: --{flag} {size} is more than {MAX_PHI_PAIRS} phi-pairs\n"

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_example_without_phi_pairs_is_usage_error(self, capsys, flag):
        code, _, err = run_cli(["example", flag, "0"], capsys)
        assert code == 2
        assert "need at least one phi-pair" in err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_oracle_compare_without_points_is_usage_error(self, capsys, points):
        code, out, err = run_cli(["oracle-compare", "--points", points], capsys)
        assert code == 2
        assert out == ""
        assert "need at least one sample point" in err

    @pytest.mark.parametrize("points", ["100000000", "10000000000000"])
    def test_oracle_compare_past_the_point_bound_is_usage_error(self, capsys, points):
        # rejected before any point is sampled
        start = time.perf_counter()
        code, out, err = run_cli(["oracle-compare", "--points", points], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == f"error: --points {points} is more than {MAX_ORACLE_POINTS} sample points\n"

    def test_unwritable_output_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, _, err = run_cli(
            ["verify-factor", "--p", "1", "--out", str(target)], capsys
        )
        assert code == 1
        assert "cannot write" in err


class TestFlags:
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("verify-factor", "--q", "1"),
            ("verify-factor", "--factor-prime", "round"),
            ("example", "--factor", "round"),
            ("example", "--factor-prime", "space-form:-1"),
            ("oracle-compare", "--tol-algebraic", "1e-30"),
            *[
                (command, flag, value)
                for command in ("verify-factor", "verify-product", "einstein", "scan", "example")
                for flag, value in (("--seed", "5"), ("--tol-fd", "1e-9"))
            ],
            # the tolerances and the stencil step are fixed, not flags
            *[
                (command, "--tol-algebraic", "1e-8")
                for command in ("verify-factor", "verify-product", "einstein", "scan", "example")
            ],
            ("oracle-compare", "--tol-fd", "1e-3"),
            *[(command, "--step", "2e-3") for command in COMMANDS],
        ],
    )
    def test_flag_the_command_never_reads_is_usage_error(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_parser_accepts_exactly_the_command_table_flags(self):
        assert parser_flags() == {
            name: {_FLAGS[key][0] for key in flags} for name, (_, flags, _) in COMMANDS.items()
        }

    def test_readme_flag_table_matches_parser(self):
        assert readme_flag_table() == parser_flags()


@pytest.mark.parametrize("command", COMMANDS)
def test_every_tolerance_comes_from_the_table(capsys, command):
    code, out, _ = run_cli([command], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]
    assert {check["tolerance"] for check in payload["checks"]} <= set(TOLERANCES.values())
    assert not {"tol_algebraic", "tol_fd", "step"} & payload["config"].keys()


class TestDeterminism:
    def test_identical_config_and_checks(self, capsys):
        argv = [
            "verify-product", "--p", "1", "--q", "2",
            "--a", "0.3", "--b", "1.2",
        ]
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            payload = json.loads(out)
            outputs.append(
                json.dumps({"config": payload["config"], "checks": payload["checks"]})
            )
        assert outputs[0] == outputs[1]

    def test_oracle_compare_reproducible(self, capsys):
        argv = [
            "oracle-compare", "--p", "1", "--q", "1", "--a", "0", "--b", "1",
            "--points", "1", "--seed", "42",
        ]
        residuals = []
        for _ in range(2):
            _, out, _ = run_cli(argv, capsys)
            payload = json.loads(out)
            residuals.append([c["residual"] for c in payload["checks"]])
        assert residuals[0] == residuals[1]


def test_output_independent_of_earlier_commands(capsys):
    # the parser is built once per process; no command may leave state in it
    argvs = [
        ["verify-factor", "--p", "2", "--factor", "deformed:0.5"],
        ["einstein", "--p", "1", "--q", "2", "--a", "0.3", "--b", "1.2"],
        ["oracle-compare", "--q", "0"],
        ["scan", "--a", "0:0.5:0.5", "--b", "1", "--check", "integrability"],
        ["example", "--p", "2", "--q", "1"],
        ["oracle-compare", "--points", "1", "--seed", "3", "--a", "0.5"],
        ["verify-product", "--p", "1", "--q", "1", "--b", "2", "--factor-prime", "space-form:5"],
    ]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run_cli(argv + ["--format", "csv"], capsys))
    for order in (argvs, argvs[::-1]):
        after_others = {tuple(argv): run_cli(argv + ["--format", "csv"], capsys) for argv in order}
        assert [after_others[tuple(argv)] for argv in argvs] == fresh
    assert build_parser() is build_parser()


def test_report_written_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["example", "--p", "2", "--q", "1", "--out", str(target)], capsys
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["summary"]["fail"] == 0
    assert "lambda=4" in out


def test_run_returns_report_object():
    args = build_parser().parse_args(
        ["einstein", "--p", "1", "--q", "1", "--a", "0", "--b", "1"]
    )
    report = run(args)
    assert report.all_passed
    assert report.config["command"] == "einstein"
    assert report.wall_time_ms >= 0.0


def test_readme_commands_exit_as_documented(tmp_path, capsys):
    # the scan runs over non-Einstein cells, so its einstein check exits 1
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == {
        "einstein", "verify-factor", "verify-product", "scan", "oracle-compare", "example",
    }
    for argv in commands:
        if "--out" in argv:
            index = argv.index("--out") + 1
            argv[index] = str(tmp_path / argv[index])
        expected = 1 if argv[0] == "scan" and "einstein" in argv else 0
        assert run_cli(argv, capsys)[0] == expected, argv
