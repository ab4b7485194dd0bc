"""Command-line front end.

Subcommands: spectrum, entanglement, rate, stability, sweep, verify,
pair-rate, wannier-check. Output is CSV (schema-versioned header comment,
17-significant-digit floats, deterministic row order) or JSON via
--format json. Exit codes: 0 ok, 1 verification/physics failure, 2 usage
error, 141 stdout closed by its reader. All frequencies and rates are in
the units of the rates given: units of kappa at the default --kappa 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import Sequence

import numpy as np

from . import __version__, closedforms, models, rates, scattering, verify, wannier
from .errors import EntrateError, QuadratureError, UnstableSystemError
from .sweep import QUANTITIES, SweepAxis, SweepConfig, run_sweep, write_table


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("full", "effective"), default="full")
    p.add_argument("--g", type=float, default=5.0, help="coupling rate [kappa]")
    p.add_argument("--kappa", type=float, default=1.0,
                   help="optical decay rate; outputs are in the units of the rates given, "
                        "so [kappa] means units of kappa only at the default 1")
    p.add_argument("--gamma", type=float, default=1e-3,
                   help="mechanical damping [kappa] (full model)")
    p.add_argument("--delta", type=float, default=0.0,
                   help="frequency mismatch delta [kappa]")
    p.add_argument("--Delta", type=float, default=0.0, help="laser detuning [kappa]")
    p.add_argument("--nth", type=float, default=0.0,
                   help="mechanical thermal occupation (full model)")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega-min", type=float, default=-15.0)
    p.add_argument("--omega-max", type=float, default=15.0)
    p.add_argument("--omega-steps", type=int, default=601)


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _model_params(args) -> dict[str, float]:
    return {"g": args.g, "kappa": args.kappa, "Gamma": args.gamma, "Delta": args.Delta,
            "delta": args.delta, "n_th": args.nth}


@contextmanager
def _path_option(flag: str, path: str):
    """Turn a failure to open the file of a path option into a usage error."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot open {flag} {path}: {exc.strerror or exc}") from exc


def _emit(args, header: list[str], columns: Sequence[Sequence[float | str]]) -> None:
    """Write the table as --format says to the --output file (closed
    afterwards) or to stdout."""
    fh = nullcontext(sys.stdout)
    if args.output:
        with _path_option("--output", args.output):
            fh = open(args.output, "w", encoding="utf-8", newline="\n")
    with fh as out:
        write_table(out, header, columns, args.format)


def _omega_grid(args) -> np.ndarray:
    """The --omega-min/--omega-max/--omega-steps grid; a non-finite end or
    fewer than one step is a usage error."""
    for flag, value in (("--omega-min", args.omega_min), ("--omega-max", args.omega_max)):
        if not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.omega_steps < 1:
        raise ValueError(f"--omega-steps must be at least 1, got {args.omega_steps}")
    return np.linspace(args.omega_min, args.omega_max, args.omega_steps)


def cmd_spectrum(args) -> int:
    """Beam-1 output spectrum (total, optical and mechanical parts) and E
    over the grid, all from one kernel pass."""
    drift, n_th = models.build_drift(args.model, _model_params(args))
    omegas = _omega_grid(args)
    optical, mechanical, e_vals = rates.spectrum_and_density(drift, omegas, n_th)
    _emit(args, ["omega [kappa]", "total", "optical", "mechanical", "E"],
          [omegas, optical + mechanical, optical, mechanical, e_vals])
    return 0


def cmd_entanglement(args) -> int:
    drift, n_th = models.build_drift(args.model, _model_params(args))
    omegas = _omega_grid(args)
    e_vals = rates.spectral_density_batch(drift, omegas, n_th)
    _emit(args, ["omega [kappa]", "E"], [omegas, e_vals])
    return 0


def cmd_rate(args) -> int:
    drift, n_th = models.build_drift(args.model, _model_params(args))
    rr = rates.entanglement_rate(drift, n_th=n_th, tol=args.tol)
    _emit(args, ["gamma_E [kappa]", "E_max", "omega_max [kappa]", "fwhm [kappa]",
                 "quadrature_error [kappa]", "secondary_peaks"],
          [[rr.gamma_E], [rr.E_max], [rr.omega_max], [rr.fwhm], [rr.quadrature_error],
           [rr.secondary_peaks]])
    return 0


def cmd_stability(args) -> int:
    drift, _ = models.build_drift(args.model, _model_params(args))
    rep = models.stability(drift)
    row: list[float | bool] = [rep.stable, rep.max_real_part, rep.marginal]
    header = ["stable", "max_real_part [kappa]", "marginal"]
    if args.model == "effective":
        roots = models.stability_boundary_effective(args.g, args.kappa, args.delta)
        header += ["boundary_root_1 [kappa]", "boundary_root_2 [kappa]"]
        row += [roots[0] if roots else float("nan"),
                roots[1] if roots else float("nan")]
    _emit(args, header, [[cell] for cell in row])
    return 0


def cmd_pair_rate(args) -> int:
    if args.model != "effective":
        raise ValueError("pair-rate is defined for the effective model only (--model effective)")
    params = models.EffectiveModelParams(g=args.g, delta=args.delta,
                                         kappa=args.kappa, Delta=args.Delta)
    numeric = scattering.pair_rate_numeric(params)
    closed = closedforms.pair_rate_closed(args.g, args.kappa, args.delta, args.Delta)
    rel = abs(numeric - closed) / abs(closed) if closed else 0.0
    _emit(args, ["numeric [kappa]", "closed_form [kappa]", "rel_deviation"],
          [[numeric], [closed], [rel]])
    return 0


def cmd_wannier_check(args) -> int:
    bound = wannier.kernel_tail_bound(args.M, args.cutoff)   # rejects M < 1, cutoff < 1
    l_values = range(args.M) if args.l is None else [args.l]
    # the sum does not depend on l: one sum, one row per l
    partial = wannier.kernel_normalization(args.M, l_values[0], args.cutoff)
    gap = abs(1.0 - partial)
    ok = gap <= bound
    rows = [[float(args.M), float(l), partial, gap, bound, "ok" if ok else "fail"]
            for l in l_values]
    _emit(args, ["M", "l", "partial_sum", "deviation", "tail_bound", "status"], list(zip(*rows)))
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    if args.config:
        with _path_option("--config", args.config):
            config = SweepConfig.from_json(args.config)
    else:
        if not args.axis:
            print("sweep requires --config or at least one --axis", file=sys.stderr)
            return 2
        config = SweepConfig(
            model=args.model,
            fixed=_model_params(args),
            axes=[_parse_axis(s) for s in args.axis],
            quantities=args.quantity or ["gamma_E"],
            tol=args.tol)
    if args.jobs is not None:
        # the flag overrides the config's value, checked as the config is
        config = dataclasses.replace(config, jobs=args.jobs)
    _emit(args, *run_sweep(config).table())
    return 0


def _parse_axis(raw: str) -> SweepAxis:
    parts = raw.split(":")
    if len(parts) not in (4, 5):
        raise ValueError(f"axis must be name:min:max:steps[:log], got {raw!r}")
    if parts[4:] not in ([], ["log"]):
        raise ValueError(f"axis field after steps must be 'log', got {parts[4]!r} in {raw!r}")
    return SweepAxis(parts[0], float(parts[1]), float(parts[2]), int(parts[3]), len(parts) == 5)


def cmd_verify(args) -> int:
    names = None
    if args.only:
        names = [n for n in verify.CHECKS if args.only in n]
        if not names:
            print(f"no checks match {args.only!r}", file=sys.stderr)
            return 2
    results = verify.run_checks(names)
    if args.format == "json":
        _emit(args, [f.name for f in dataclasses.fields(verify.CheckResult)],
              list(zip(*map(dataclasses.astuple, results))))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<26s} measured={r.measured:.3e} "
                  f"tol={r.tolerance:.3e} time={r.seconds:.2f}s  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    if n_fail:
        print(f"{n_fail} of {len(results)} checks failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrate",
        description="Entanglement rates and spectra of Gaussian beams from "
                    "linear bosonic networks (all rates in units of kappa).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="output intensity spectrum and E[omega]")
    _add_model_flags(p); _add_grid_flags(p); _add_io_flags(p)

    p = sub.add_parser("entanglement", help="spectral density of entanglement E[omega]")
    _add_model_flags(p); _add_grid_flags(p); _add_io_flags(p)

    p = sub.add_parser("rate", help="total entanglement rate and peak statistics")
    _add_model_flags(p); _add_io_flags(p)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="absolute quadrature tolerance on gamma_E [kappa]")

    p = sub.add_parser("stability", help="drift eigenvalue stability report")
    _add_model_flags(p); _add_io_flags(p)

    p = sub.add_parser("pair-rate", help="effective-model photon pair rate")
    _add_model_flags(p); _add_io_flags(p)

    p = sub.add_parser("wannier-check", help="coarse-graining kernel normalization")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--cutoff", type=int, default=wannier.DEFAULT_CUTOFF)
    _add_io_flags(p)

    p = sub.add_parser("sweep", help="grid sweep over model parameters")
    _add_model_flags(p); _add_io_flags(p)
    p.add_argument("--config", default=None, help="JSON sweep configuration")
    p.add_argument("--axis", action="append", default=None,
                   metavar="name:min:max:steps[:log]")
    p.add_argument("--quantity", action="append", default=None,
                   choices=QUANTITIES)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (0 = all cores)")

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    _add_io_flags(p)
    p.add_argument("--only", default=None, help="substring filter on check names")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process, on the first main call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name at each call, so that a patched cmd_ function is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except BrokenPipeError:
        # the reader closed stdout (`entrate ... | head`): send what is
        # still buffered to devnull, so that the flush at exit prints
        # nothing, and exit as a shell reports SIGPIPE (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UnstableSystemError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EntrateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
