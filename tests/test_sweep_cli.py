import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from entrate import cli
from entrate.models import FullModelParams, drift_full
from entrate.rates import entanglement_rate, spectrum_peak
from entrate.scattering import BeamBlocks, spectrum_parts
from entrate.sweep import SweepAxis, SweepConfig, run_sweep
from grid_reference import frequency_grid


def run_cli(argv):
    return cli.main(argv)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepAxis("delta", 0.0, 1.0, 1)        # too few steps
        with pytest.raises(ValueError):
            SweepAxis("delta", 2.0, 1.0, 5)        # min >= max
        with pytest.raises(ValueError):
            SweepAxis("bogus", 0.0, 1.0, 5)        # unknown axis
        with pytest.raises(ValueError):
            SweepConfig(model="full", fixed={}, axes=[SweepAxis("delta", 0, 1, 3)],
                        quantities=["nonsense"])
        with pytest.raises(ValueError):
            SweepConfig(model="full", fixed={}, axes=[SweepAxis("delta", 0, 1, 3)],
                        quantities=["pair_rate"])   # effective-only quantity

    def test_fixed_parameter_checked_unless_an_axis(self):
        # a fixed delta = 0 fails the effective model's rule at every point
        with pytest.raises(ValueError, match="delta must be nonzero"):
            SweepConfig(model="effective", fixed={"g": 5.0, "delta": 0.0},
                        axes=[SweepAxis("Delta", -0.6, -0.5, 2)], quantities=["gamma_E"])
        # on an axis it is checked per point: its invalid points get failed rows
        SweepConfig(model="effective", fixed={"g": 5.0, "delta": 0.0},
                    axes=[SweepAxis("delta", -1.0, 1.0, 3)], quantities=["gamma_E"])
        # the other model's parameters are not checked
        SweepConfig(model="effective", fixed={"g": 5.0, "Gamma": 0.0},
                    axes=[SweepAxis("Delta", -0.6, -0.5, 2)], quantities=["gamma_E"])

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing required field"):
            SweepConfig.from_dict({"model": "full", "axes": []})

    def test_config_json_error_has_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": "full",,}')
        with pytest.raises(ValueError, match="line 1"):
            SweepConfig.from_json(str(path))

    def test_log_axis(self):
        ax = SweepAxis("n_th", 1e2, 1e4, 3, log=True)
        np.testing.assert_allclose(ax.values(), [1e2, 1e3, 1e4], rtol=1e-12)


class TestRunSweep:
    def test_row_count_and_order(self):
        config = SweepConfig(model="effective", fixed={"g": 5.0},
                             axes=[SweepAxis("delta", 5.0, 10.0, 2),
                                   SweepAxis("Delta", -0.1, 0.1, 3)],
                             quantities=["stability_margin"])
        result = run_sweep(config)
        assert len(result.rows) == 6
        got = [r.axis_values for r in result.rows]
        assert got == [(5.0, -0.1), (5.0, 0.0), (5.0, 0.1),
                       (10.0, -0.1), (10.0, 0.0), (10.0, 0.1)]

    def test_unstable_points_flagged_not_fatal(self):
        config = SweepConfig(model="effective", fixed={"g": 5.0, "delta": 10.0},
                             axes=[SweepAxis("Delta", -0.6, 0.0, 4)],
                             quantities=["stability_margin", "pair_rate"])
        result = run_sweep(config)
        statuses = [r.status for r in result.rows]
        assert "unstable" in statuses and "ok" in statuses
        for row in result.rows:
            if row.status == "unstable":
                assert "stability_margin" in row.values
                assert "pair_rate" not in row.values

    def test_stability_map_matches_effective_boundary(self):
        # the full-model optical instability band (Delta < 0 side, |Delta| <<
        # delta) matches the effective-model boundary roots; the Delta > 0
        # side additionally hosts a mechanical (anti-damping) instability the
        # effective optical model cannot describe
        from entrate.models import stability_boundary_effective
        config = SweepConfig(model="full",
                             fixed={"g": 5.0, "Gamma": 1e-3, "n_th": 0.0},
                             axes=[SweepAxis("delta", 8.0, 15.0, 8),
                                   SweepAxis("Delta", -1.5, 0.5, 50)],
                             quantities=["stability_margin"])
        result = run_sweep(config)
        margins = result.value_grid("stability_margin")
        deltas = config.axes[0].values()
        bigs = config.axes[1].values()
        cell = bigs[1] - bigs[0]
        for i, de in enumerate(deltas):
            roots = stability_boundary_effective(5.0, 1.0, de)
            for j, dd in enumerate(bigs):
                if dd > 0:
                    continue
                near = roots and min(abs(dd - r) for r in roots) <= cell
                if near:
                    continue
                inside = bool(roots) and roots[0] < dd < roots[1]
                assert (margins[i, j] >= 1e-9) == inside, (de, dd)
        assert np.any(margins[:, bigs > 0.04] >= 1e-9)  # mechanical band

    def test_parallel_equals_serial(self):
        config = SweepConfig(model="effective", fixed={"g": 5.0, "delta": 10.0},
                             axes=[SweepAxis("Delta", -0.2, 0.2, 6)],
                             quantities=["pair_rate", "stability_margin"], jobs=1)
        serial = run_sweep(config)
        config.jobs = 2
        parallel = run_sweep(config)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.axis_values == b.axis_values
            assert a.status == b.status
            assert a.values == b.values

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_stable_or_no_valid_point(self, jobs):
        unstable = run_sweep(SweepConfig(model="effective", fixed={"g": 5.0, "delta": 10.0},
                                         axes=[SweepAxis("Delta", -0.5, -0.4, 3)],
                                         quantities=["gamma_E"], jobs=jobs))
        assert [row.status for row in unstable.rows] == ["unstable"] * 3
        invalid = run_sweep(SweepConfig(model="full", fixed={"g": 5.0},
                                        axes=[SweepAxis("Gamma", -1.0, 0.0, 2)],
                                        quantities=["gamma_E"], jobs=jobs))
        assert all(row.status.startswith("failed: ") for row in invalid.rows)

    def test_rate_map_independent_of_workers_and_batches(self):
        # the 25x25 rate map: a sweep's rates come from batched calls, so
        # neither the worker count nor the split of the grid into strips
        # changes a byte, and a row holds the one-point rate bit for bit
        def sweep(jobs, delta=(-15.0, 15.0, 25)):
            config = SweepConfig(model="full", fixed={"g": 5.0, "Gamma": 1e-3, "n_th": 0.0},
                                 axes=[SweepAxis("delta", *delta),
                                       SweepAxis("Delta", -1.5, 1.5, 25)],
                                 quantities=["gamma_E", "E_max", "fwhm"], jobs=jobs)
            result = run_sweep(config)
            buf = io.StringIO()
            result.write_csv(buf)
            return buf.getvalue(), result.rows

        serial, rows = sweep(1)
        deltas = np.linspace(-15.0, 15.0, 25)
        strips = [sweep(1, (deltas[i], deltas[i + 4], 5))[0].splitlines(True)
                  for i in range(0, 25, 5)]
        assert "".join(strips[0][:2] + [line for s in strips for line in s[2:]]) == serial
        assert sweep(2)[0] == serial
        ok = [row for row in rows if row.status == "ok"]
        assert len(ok) == 143
        for row in ok[::24]:
            delta, Delta = row.axis_values
            rr = entanglement_rate(drift_full(FullModelParams(
                g=5.0, Gamma=1e-3, delta=delta, Delta=Delta)), n_th=0.0, tol=1e-6)
            assert row.values == {q: getattr(rr, q) for q in ("gamma_E", "E_max", "fwhm")}

    def test_spectrum_quantity_is_the_stationary_peak(self):
        # the sweep's spectrum columns are rates.spectrum_peak of the point,
        # at least as high as every sample of the resonance grid
        config = SweepConfig(model="full", fixed={"g": 5.0, "Gamma": 1e-3, "n_th": 50.0},
                             axes=[SweepAxis("delta", 0.0, 10.0, 3)],
                             quantities=["spectrum"], jobs=1)
        for row in run_sweep(config).rows:
            d = drift_full(FullModelParams(g=5.0, Gamma=1e-3, delta=row.axis_values[0]))
            (omega,), (height,) = spectrum_peak(BeamBlocks.of([d], [50.0]))
            assert (row.values["spectrum_peak_omega"], row.values["spectrum_peak"]) == (
                omega, height)
            assert height >= np.max(np.add(*spectrum_parts(d, frequency_grid(d), 50.0)))

    def test_log_spaced_temperature_sweep_slope(self):
        # 1-d n_th sweep at delta = Delta = 0: fitted slope -1 +- 0.1 in the
        # asymptotic regime n_th >> C (C = 10 here, see the rate checks)
        config = SweepConfig(model="full",
                             fixed={"g": 1.0, "Gamma": 0.1, "n_th": 0.0},
                             axes=[SweepAxis("n_th", 1e2, 1e4, 5, log=True)],
                             quantities=["gamma_E"])
        result = run_sweep(config)
        n_vals = config.axes[0].values()
        g_vals = result.value_grid("gamma_E")
        assert all(r.status == "ok" for r in result.rows)
        slope = np.polyfit(np.log(n_vals), np.log(g_vals), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_csv_format(self, tmp_path):
        config = SweepConfig(model="effective", fixed={"g": 5.0, "delta": 10.0},
                             axes=[SweepAxis("Delta", -0.1, 0.1, 3)],
                             quantities=["pair_rate"])
        result = run_sweep(config)
        out = tmp_path / "sweep.csv"
        with open(out, "w") as fh:
            result.write_csv(fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "Delta [kappa],pair_rate [kappa],status"
        assert len(lines) == 5
        assert lines[2].endswith(",ok")

    def test_works_on_beam_blocks_only(self, monkeypatch, solves):
        # no DriftMatrix, and no complex eigen-solve larger than the k x k
        # beam block (the companion matrices of the peak polynomials are real)
        from entrate import models
        built = []
        # every instance, also those the model builders make without
        # __post_init__
        monkeypatch.setattr(models.DriftMatrix, "__new__",
                            lambda cls, *args, **kwargs: built.append(cls) or object.__new__(cls))
        models.drift_full(FullModelParams(g=5.0, Gamma=1e-3))
        assert built == [models.DriftMatrix]
        built.clear()
        for model, fixed, quantities, k in (
                ("full", {"g": 5.0, "n_th": 2.0},
                 ["gamma_E", "E_max", "fwhm", "spectrum", "stability_margin"], 3),
                ("effective", {"g": 5.0}, ["pair_rate", "spectrum", "gamma_E"], 2)):
            solves.clear()
            rows = run_sweep(SweepConfig(
                model=model, fixed=fixed, quantities=quantities, jobs=1,
                axes=[SweepAxis("delta", -15.0, 15.0, 4), SweepAxis("Delta", -1.5, 1.5, 5)])).rows
            assert {row.status for row in rows} == {"ok", "unstable"}
            complex_sizes = {a.shape[-1] for a in solves if np.iscomplexobj(a)}
            assert complex_sizes == {k}
        assert built == []

    def test_non_finite_block_fails_its_row_only(self):
        # g^2/4delta overflows at the last point: the gate fails the row of
        # its non-finite block, and the other rows keep their status
        with np.errstate(over="ignore", invalid="ignore"):
            rows = run_sweep(SweepConfig(
                model="effective", fixed={"delta": 10.0}, jobs=1,
                quantities=["stability_margin", "pair_rate"],
                axes=[SweepAxis("g", 1.0, 1e200, 3, log=True)])).rows
        assert [row.status for row in rows] == [
            "ok", "unstable", "failed: Array must not contain infs or NaNs"]
        assert rows[1].values["stability_margin"] > 0

    def test_all_cores_are_the_cpus_this_process_may_use(self, monkeypatch):
        import concurrent.futures
        import os
        workers = []

        class Pool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        config = SweepConfig(model="effective", fixed={"g": 5.0, "delta": 10.0},
                             axes=[SweepAxis("Delta", -0.2, 0.2, 8)],
                             quantities=["pair_rate"], jobs=0)
        pooled = run_sweep(config).rows
        assert workers == [3]
        config.jobs = 1
        assert run_sweep(config).rows == pooled and workers == [3]

    def test_failed_row_keeps_column_count(self, tmp_path, monkeypatch):
        from entrate import sweep
        from entrate.errors import QuadratureError

        def fail(blocks, *args, **kwargs):
            return [QuadratureError("did not converge", value=1.0, error_estimate=2.0)
                    for _ in range(len(blocks))]

        monkeypatch.setattr(sweep.rates, "_rates", fail)
        config = SweepConfig(model="full", fixed={"g": 1.0},
                             axes=[SweepAxis("delta", -1.0, 1.0, 3)],
                             quantities=["gamma_E", "stability_margin"], jobs=1)
        result = run_sweep(config)
        assert all(row.status.startswith("failed:") and ", " in row.status
                   for row in result.rows)
        out = tmp_path / "failed.csv"
        with open(out, "w") as fh:
            result.write_csv(fh)
        with open(out) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert {len(r) for r in rows} == {4}
        assert rows[1][-1] == result.rows[0].status


class TestCliCommands:
    def test_spectrum_csv(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = run_cli(["spectrum", "--delta", "10", "--nth", "50",
                        "--omega-min", "-3", "--omega-max", "13",
                        "--omega-steps", "33", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "omega [kappa],total,optical,mechanical,E"
        assert len(lines) == 35

    def test_spectrum_zero_coupling_dark(self, tmp_path):
        out = tmp_path / "dark.csv"
        assert run_cli(["spectrum", "--g", "0", "--omega-steps", "5",
                        "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_unstable_exits_one_naming_margin(self, capsys):
        code = run_cli(["spectrum", "--model", "effective", "--g", "5",
                        "--delta", "10", "--Delta", "-0.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "max eigenvalue real part" in err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["spectrum", "--model", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--omega-steps", "3", "--omega-max", "nan"], "--omega-max must be finite"),
        (["entanglement", "--omega-steps", "3", "--omega-max", "inf"],
         "--omega-max must be finite"),
        (["rate", "--g", "nan"], "g must be finite"),
        (["rate", "--Delta", "inf"], "Delta must be finite"),
        (["sweep", "--g", "nan", "--axis", "delta:-1:1:3"], "g must be finite"),
        (["sweep", "--axis", "delta:-1:inf:3"], "axis delta max must be finite, got inf"),
        (["rate", "--tol", "nan"], "tol must be a finite positive number, got nan"),
        (["rate", "--tol", "inf"], "tol must be a finite positive number, got inf"),
        (["sweep", "--tol", "nan", "--axis", "delta:-1:1:3"],
         "tol must be a finite positive number, got nan"),
        (["sweep", "--jobs", "-3", "--axis", "delta:-1:1:3"], "jobs must be >= 0"),
        # a fifth field other than log would otherwise build a linear axis
        (["sweep", "--axis", "delta:1:10:3:lgo"],
         "axis field after steps must be 'log', got 'lgo' in 'delta:1:10:3:lgo'"),
        # numpy's own message for a negative count names no flag, and zero
        # steps would write a header-only table
        (["spectrum", "--omega-steps", "-3"], "--omega-steps must be at least 1, got -3"),
        (["spectrum", "--omega-steps", "0"], "--omega-steps must be at least 1, got 0"),
        (["entanglement", "--omega-steps", "0", "--format", "json"],
         "--omega-steps must be at least 1, got 0"),
        # the pair rate is the effective model's: --gamma and --nth would be
        # ignored, and the default delta = 0 fails the effective model's rule
        (["pair-rate", "--model", "full", "--delta", "10"],
         "pair-rate is defined for the effective model only"),
        (["pair-rate", "--model", "full"], "pair-rate is defined for the effective model only"),
        # a fixed parameter (delta left at 0, not an axis) that fails the
        # model's rules fails every point: a usage error, as for rate
        (["sweep", "--model", "effective", "--axis", "Delta:-0.6:-0.5:2"],
         "delta must be nonzero"),
        (["sweep", "--gamma", "0", "--axis", "delta:-1:1:3"], "Gamma must be positive"),
        # a repeated quantity would repeat a CSV column but not a JSON key
        (["sweep", "--model", "effective", "--g", "5", "--delta", "10", "--axis",
          "Delta:-0.3:0.3:2", "--quantity", "pair_rate", "--quantity", "pair_rate"],
         "quantities must be distinct")])
    def test_non_finite_input_is_usage_error(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_spectrum_builds_its_beam_blocks_once(self, tmp_path, monkeypatch):
        from entrate.scattering import BeamBlocks
        built = []
        of = BeamBlocks.of.__func__
        monkeypatch.setattr(BeamBlocks, "of",
                            classmethod(lambda cls, *a: built.append(1) or of(cls, *a)))
        assert run_cli(["spectrum", "--omega-steps", "3000",
                        "--output", str(tmp_path / "s.csv")]) == 0
        assert len(built) == 1

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch):
        # two commands through main share one parser and write the bytes the
        # commands write with a parser of their own; a cmd_ function patched
        # after the parser is built is still the one that runs
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        argvs = {"rate": ["rate", "--g", "2", "--delta", "3", "--nth", "5"],
                 "stability": ["stability", "--model", "effective", "--g", "2",
                               "--delta", "2", "--Delta", "-0.4"]}
        for name, argv in argvs.items():
            via_main, alone = tmp_path / f"{name}.main", tmp_path / f"{name}.alone"
            assert run_cli([*argv, "--output", str(via_main)]) == 0
            args = build().parse_args([*argv, "--output", str(alone)])
            assert getattr(cli, f"cmd_{name}")(args) == 0
            assert via_main.read_bytes() == alone.read_bytes()
        monkeypatch.setattr(cli, "cmd_rate", lambda args: 7)
        assert run_cli(argvs["rate"]) == 7
        assert len(built) == 1

    def test_missing_axis_usage_error(self, capsys):
        assert run_cli(["sweep"]) == 2

    def test_rate_json(self, capsys):
        code = run_cli(["rate", "--g", "1", "--gamma", "1e-3", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["gamma_E [kappa]"] > 0
        assert doc[0]["fwhm [kappa]"] > 0

    def test_quadrature_failure_exits_one(self, monkeypatch, capsys):
        from entrate import rates
        from entrate.errors import QuadratureError

        def fail(*args, **kwargs):
            raise QuadratureError("did not converge")

        monkeypatch.setattr(rates, "entanglement_rate", fail)
        assert run_cli(["rate", "--g", "1"]) == 1
        assert "did not converge" in capsys.readouterr().err

    def test_stability_reports_roots(self, capsys):
        code = run_cli(["stability", "--model", "effective", "--g", "5",
                        "--delta", "10", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)[0]
        assert doc["stable"] == 1.0
        assert doc["boundary_root_1 [kappa]"] == pytest.approx(-1.0)
        assert doc["boundary_root_2 [kappa]"] == pytest.approx(-0.25)

    # effective g=2, delta=2, Delta=-0.5 sits on the stability boundary
    # (max Re(eig) = -2.5e-32): marginal, and therefore not stable
    MARGINAL = ["--model", "effective", "--g", "2", "--delta", "2"]

    def test_stability_marginal_point_not_stable(self, capsys):
        code = run_cli(["stability", *self.MARGINAL, "--Delta", "-0.5", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)[0]
        # the flags are JSON booleans
        assert doc["stable"] is False and doc["marginal"] is True

    def test_rate_json_counts_peaks_as_an_integer(self, capsys):
        assert run_cli(["rate", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)[0]
        assert type(doc["secondary_peaks"]) is int

    def test_pair_rate_marginal_point_exits_one(self, capsys):
        assert run_cli(["pair-rate", *self.MARGINAL, "--Delta", "-0.5"]) == 1
        assert "max eigenvalue real part" in capsys.readouterr().err

    def test_pair_rate_sweep_marginal_row_unstable(self, capsys):
        code = run_cli(["sweep", *self.MARGINAL, "--axis", "Delta:-0.6:-0.5:2",
                        "--quantity", "pair_rate", "--jobs", "1", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in rows] == ["ok", "unstable"]

    def test_pair_rate_matches_closed_form(self, capsys):
        code = run_cli(["pair-rate", "--model", "effective", "--g", "5",
                        "--delta", "10", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)[0]
        assert doc["numeric [kappa]"] == pytest.approx(0.78125, rel=1e-6)
        assert doc["rel_deviation"] < 1e-6

    def test_wannier_check(self, capsys):
        code = run_cli(["wannier-check", "--M", "3", "--cutoff", "20000"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5  # schema + header + one row per l
        assert all(line.endswith(",ok") for line in out[2:])

    @pytest.mark.parametrize("argv", [
        ["--M", "0"], ["--M", "-3"], ["--M", "2", "--l", "5"], ["--M", "2", "--l", "-1"],
        ["--M", "2", "--cutoff", "0"]])
    def test_wannier_check_rejects_invalid_input(self, argv, capsys):
        assert run_cli(["wannier-check", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_pair_rate_near_boundary_exits_zero(self, capsys):
        # stable with margin 7.5e-5; the rate is ~2.6e3
        code = run_cli(["pair-rate", "--model", "effective", "--g", "5",
                        "--delta", "10", "--Delta", "-0.2499", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)[0]
        assert doc["rel_deviation"] < 1e-9

    def test_pair_rate_sweep_near_boundary_is_ok(self, capsys):
        code = run_cli(["sweep", "--model", "effective", "--g", "5", "--delta", "10",
                        "--axis", "Delta:-0.26:-0.2499:3", "--quantity", "pair_rate",
                        "--jobs", "1", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in rows] == ["unstable", "unstable", "ok"]
        assert rows[-1]["pair_rate [kappa]"] == pytest.approx(2603.8194907348, rel=1e-9)

    def test_determinism_across_runs_and_jobs(self, tmp_path):
        args = ["sweep", "--model", "effective", "--g", "5", "--delta", "10",
                "--axis", "Delta:-0.2:0.2:5", "--quantity", "pair_rate"]
        outs = []
        for tag, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
            path = tmp_path / f"{tag}.csv"
            assert run_cli(args + ["--jobs", jobs, "--output", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_sweep_from_config_file(self, tmp_path):
        config = {"model": "effective", "fixed": {"g": 5.0, "delta": 10.0},
                  "axes": [{"name": "Delta", "min": -0.1, "max": 0.1, "steps": 3}],
                  "quantities": ["pair_rate", "stability_margin"]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        header = lines[1].split(",")
        assert header == ["Delta [kappa]", "pair_rate [kappa]",
                          "stability_margin [kappa]", "status"]

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "full"}')
        assert run_cli(["sweep", "--config", str(cfg)]) == 2
        # a non-finite fixed parameter would fail every grid point, and an
        # unknown name or key would be ignored
        base = {"model": "full", "quantities": ["E_max"],
                "axes": [{"name": "delta", "min": -1, "max": 1, "steps": 3}]}
        for change, message in (
                ({"fixed": {"g": math.nan}}, "g must be finite, got nan"),
                ({"fixed": {"Gamma": "x"}}, "Gamma must be finite, got 'x'"),
                ({"fixed": {"g": 5, "gamma": 0.3}}, "unknown parameters ['gamma'] in fixed"),
                ({"jobz": 3}, "unknown sweep config keys ['jobz']"),
                ({"output": 5}, "unknown sweep config keys ['output']"),
                ({"axes": [{"name": "delta", "min": -1, "max": 1, "steps": 2.5}]},
                 "axis delta steps must be an integer, got 2.5"),
                # a truthy string or number would otherwise build a log axis
                ({"axes": [{"name": "delta", "min": 1, "max": 10, "steps": 3, "log": "false"}]},
                 "axis delta log must be true or false, got 'false'"),
                ({"axes": [{"name": "delta", "min": 1, "max": 10, "steps": 3, "log": 1}]},
                 "axis delta log must be true or false, got 1"),
                # checked, not coerced: a string, a bool or a fraction of
                # the right number type would otherwise run
                ({"tol": "1e-3"}, "tol must be a finite positive number, got '1e-3'"),
                ({"tol": True}, "tol must be a finite positive number, got True"),
                ({"jobs": 2.5}, "jobs must be an integer, got 2.5"),
                ({"jobs": True}, "jobs must be an integer, got True"),
                ({"fixed": {"g": True}}, "g must be finite, got True"),
                # dict() would take pairs and list() the keys of an object
                ({"fixed": [["g", 2.0]]},
                 "fixed must be an object of parameter values, got [['g', 2.0]]"),
                ({"quantities": {"gamma_E": 1}},
                 "quantities must be a list of names, got {'gamma_E': 1}"),
                ({"quantities": ["E_max", 3]},
                 "quantities must be a list of names, got ['E_max', 3]"),
                ({"quantities": ["E_max", "E_max"]}, "quantities must be distinct")):
            cfg.write_text(json.dumps({**base, **change}))
            capsys.readouterr()
            assert run_cli(["sweep", "--config", str(cfg)]) == 2
            assert f"error: {message}" in capsys.readouterr().err

    def test_entanglement_values_depend_only_on_C_and_nth(self, tmp_path):
        # fixed C = 2.5e4: E[0] identical across (Gamma, g) realizations
        vals = {}
        for gamma in ("5e-2", "1e-3"):
            for nth in ("0", "50"):
                g = math.sqrt(2.5e4 * float(gamma))
                out = tmp_path / f"e_{gamma}_{nth}.csv"
                assert run_cli(["entanglement", "--g", str(g), "--gamma", gamma,
                                "--nth", nth, "--omega-min", "-0.0001",
                                "--omega-max", "0.0001", "--omega-steps", "3",
                                "--output", str(out)]) == 0
                with open(out) as fh:
                    rows = list(csv.reader(line for line in fh
                                           if not line.startswith("#")))
                vals[(gamma, nth)] = float(rows[2][1])   # E at omega = 0
        for nth, expected in (("0", 10.81979328442278), ("50", 6.206675680806784)):
            for gamma in ("5e-2", "1e-3"):
                assert vals[(gamma, nth)] == pytest.approx(expected, rel=1e-9)

    def test_no_negative_zero_e_cells(self, tmp_path):
        # E = +0.0 at zero coupling, and the effective tail stays positive
        # out to omega = 1e10 instead of rounding to -0
        tail = ["entanglement", "--model", "effective", "--g", "2", "--delta", "-8",
                "--Delta", "0.3", "--omega-min", "1e7", "--omega-max", "1e10",
                "--omega-steps", "7"]
        for argv in (["entanglement", "--g", "0", "--omega-steps", "5"],
                     ["spectrum", "--g", "0", "--omega-steps", "5"], tail):
            out = tmp_path / "e.csv"
            assert run_cli([*argv, "--output", str(out)]) == 0
            with open(out) as fh:
                rows = list(csv.reader(line for line in fh if not line.startswith("#")))
            cells = [r[rows[0].index("E")] for r in rows[1:]]
            assert cells and not any(c.startswith("-") for c in cells)
            if argv is tail:
                assert all(float(c) > 0 for c in cells)

    def test_verify_subset(self, capsys):
        code = run_cli(["verify", "--only", "wannier_norm"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_json_report_fields(self, capsys):
        # the last two checks compute their verdicts with numpy scalars
        for only, name in (("pair_rate", "pair_rate"),
                           ("spectrum_two", "spectrum_two_peaks"),
                           ("rate_map", "rate_map_argmax")):
            code = run_cli(["verify", "--only", only, "--format", "json"])
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc[0]["name"] == name
            assert doc[0]["passed"] is True
            assert doc[0]["seconds"] > 0

    def test_verify_json_is_json_dump_of_its_rows(self, monkeypatch, capsys):
        from dataclasses import asdict

        from entrate import verify
        results = [verify.CheckResult("a", True, 1e-17, 1e-9, 0.25, 'd "q" 100%, \u00e9'),
                   verify.CheckResult("b", False, math.nan, math.nan, 1.0, "raised \u2192"),
                   verify.CheckResult("c", False, math.inf, 0.5, 2.0)]
        monkeypatch.setattr(verify, "run_checks", lambda names: results)
        assert run_cli(["verify", "--format", "json"]) == 1
        assert capsys.readouterr().out == json.dumps([asdict(r) for r in results],
                                                     indent=2) + "\n"

    @pytest.mark.parametrize("measured, passed", [
        (0.5, True), (1.0, True), (1.5, False), (math.nan, False), (math.inf, False)])
    def test_check_passes_iff_measured_within_bound(self, monkeypatch, measured, passed):
        from entrate import verify
        monkeypatch.setitem(verify.CHECKS, "stub", lambda: (measured, 1.0, ""))
        (result,) = verify.run_checks(["stub"])
        assert result.passed is passed

    def test_failed_side_condition_fails_the_check(self, monkeypatch):
        # a broken M = 1 identity measures inf, whatever the normalization
        from entrate import verify, wannier
        monkeypatch.setattr(wannier, "wannier_kernel", lambda M, l, k: 0.5)
        (result,) = verify.run_checks(["wannier_norm"])
        assert result.measured == math.inf and not result.passed

    def test_verify_unknown_filter(self, capsys):
        assert run_cli(["verify", "--only", "no_such_check"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--model", "effective", "--g", "5", "--delta", "10",
         "--axis", "delta:-15:15:5"],                       # delta = 0 is invalid
        ["--axis", "Gamma:0:0.1:3"]])                       # Gamma = 0 is invalid
    def test_sweep_flags_invalid_points(self, tmp_path, argv):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", *argv, "--quantity", "E_max", "--jobs", "1",
                        "--output", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert {len(r) for r in rows} == {3}
        statuses = [r[-1] for r in rows[1:]]
        assert sum(s.startswith("failed: ") for s in statuses) == 1
        assert statuses.count("ok") == len(statuses) - 1

    def test_import_loads_neither_scipy_nor_mpmath(self):
        import os
        import subprocess
        import sys

        import entrate
        src = os.path.dirname(os.path.dirname(entrate.__file__))
        code = ("import sys, entrate; "
                "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.strip() == "[]"

    def test_rate_and_sweep_load_no_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, 11-22 ms that every
        # `entrate rate` and `entrate sweep` would pay
        import os
        import subprocess
        import sys

        import entrate
        src = os.path.dirname(os.path.dirname(entrate.__file__))
        code = ("import sys, entrate\n"
                "from entrate.sweep import SweepAxis, SweepConfig, run_sweep\n"
                "p = entrate.FullModelParams(g=5.0, Gamma=1e-3)\n"
                "entrate.entanglement_rate(entrate.drift_full(p))\n"
                "run_sweep(SweepConfig(model='full', fixed={'g': 5.0}, axes=[\n"
                "    SweepAxis('delta', -15.0, 15.0, 5), SweepAxis('Delta', -1.5, 1.5, 5)],\n"
                "    quantities=['gamma_E', 'E_max', 'fwhm'], jobs=1))\n"
                "print(sorted({m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')}\n"
                "             | {'numpy.ma'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.strip() == "[]"


    @pytest.mark.parametrize("argv", [
        ["entanglement", "--omega-steps", "200001"],
        ["wannier-check", "--M", "5000", "--format", "json"]])
    def test_closed_stdout_ends_quietly(self, argv):
        # as in `entrate ... | head -c 20`: the reader leaves after 20 bytes
        import os
        import subprocess
        import sys

        import entrate
        src = os.path.dirname(os.path.dirname(entrate.__file__))
        proc = subprocess.Popen([sys.executable, "-m", "entrate.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": src})
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestMutationSanity:
    def test_injected_drift_error_fails_resonant_check(self, monkeypatch):
        """A corrupted mechanical coupling must make the resonant-closed-form
        cross-check fail loudly."""
        from entrate import models, verify

        original = models.drift_full

        def corrupted(p):
            d = original(p)
            m = np.array(d.m)
            m[4, 0] = 2.0 * m[4, 0]   # b row, a+ column
            m[5, 1] = 2.0 * m[5, 1]   # conjugate partner, keeps the pairing
            return models.DriftMatrix(m, d.decay, d.ordering)

        monkeypatch.setattr(models, "drift_full", corrupted)
        result = verify.run_checks(["resonant_closed_form"])[0]
        assert not result.passed
