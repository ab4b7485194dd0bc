"""Tests of the benchmark itself (not of entrate).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import entrate  # noqa: E402
import entrate.cli  # noqa: E402,F401
import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_rate_points():
    a = workloads.rate_point_set(7)
    assert a == workloads.rate_point_set(7)
    assert a != workloads.rate_point_set(8)
    strata = [s for s, _, _ in a]
    assert strata[0] == "anchor"
    assert (strata.count("generic"), strata.count("high_c"), strata.count("near_boundary")) == (
        workloads.N_GENERIC, workloads.N_HIGH_C, workloads.N_NEAR)


def test_rate_points_are_stable_inputs():
    for _, model, p in workloads.rate_point_set(3):
        assert workloads.margin(model, p) < 0


def test_self_times_on_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.5, 10.0])
    tr = tracer.Tracer(clock=lambda: next(ticks))
    with tr.span("outer"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
    assert [s.parent for s in tr.spans] == [None, 0, 0]
    assert tr.self_times() == pytest.approx([10.0 - 2.0 - 2.5, 2.0, 2.5])
    assert sum(tr.self_times()) == pytest.approx(tr.spans[0].duration)


def test_wrapped_calls_nest_and_count_kernel_points():
    ns = types.SimpleNamespace()
    ns.inner = lambda d, omegas: len(omegas)
    ns.outer = lambda: ns.inner(types.SimpleNamespace(dim=6), [0.0, 1.0, 2.0])
    tr = tracer.Tracer()
    tr.wrap(ns, "inner", "k", before=lambda d, omegas: tr.add_kernel(len(omegas)) or {})
    tr.wrap(ns, "outer", "o")
    assert ns.outer() == 3
    assert [(s.name, s.parent) for s in tr.spans] == [("o", None), ("k", 0)]
    assert (tr.spans[0].kernel_calls, tr.spans[0].kernel_points) == (1, 3)
    tr.restore()
    assert tr.restored()


def test_tracer_restores_every_patched_name():
    targets = [(entrate.rates, "correlator_batch"), (entrate.scattering, "correlator_batch"),
               (entrate.rates, "bisect_all"), (entrate.rates, "stability"),
               (entrate.scattering, "stability"), (entrate.models, "stability"),
               (entrate.scattering, "output_spectrum"), (entrate.sweep, "run_sweep"),
               (entrate.sweep, "_eval_point"), (entrate.cli, "main"),
               (entrate.sweep.SweepResult, "write_csv")]
    before = [getattr(o, a) for o, a in targets]
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as tr:
            tracer.instrument(tr, entrate)
            assert all(getattr(o, a) is not f for (o, a), f in zip(targets, before))
            raise RuntimeError("leave the block early")
    assert tr.restored()
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, before))


def test_csv_round_trip_flags_a_shifted_row():
    errors = []
    good = "# schema=1\na,status\n1.0,ok\n2.0,ok\n"
    assert not workloads.csv_round_trip(good, 2, errors, "t").reasons
    bad = "# schema=1\na,status\n1.0,ok\n2.0,failed: x, y\n"
    assert workloads.csv_round_trip(bad, 2, errors, "t").reasons == {"output_mismatch"}
    assert len(errors) == 1


def test_reference_seconds_rescale_by_the_probe():
    meter = workloads.Meter()
    ref = workloads.PROBE_REF_S
    meter.probes = [(0.0, ref), (10.0, ref), (20.0, 2 * ref), (30.0, 2 * ref)]
    assert meter.ref_s((1.0, 3.0)) == pytest.approx(2.0)
    # bracketed by a probe at reference speed and one at half speed
    assert meter.ref_s((11.0, 14.0)) == pytest.approx(3.0 / 1.5)
    assert meter.ref_s((21.0, 25.0)) == pytest.approx(2.0)
