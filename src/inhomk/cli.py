"""Command-line interface.

Subcommands: simulate, fit, kfunc, cov, crit, gof, study. Structured results
are JSON, curves/patterns/matrices are CSV; every stochastic command requires
an explicit --seed (no wall-clock seeding). Exit codes: 0 success, 1 domain
or input error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .asymcov import (
    POISSON_DENSITIES,
    QuadratureConfig,
    compose_lim_cov,
    cov_estimated_constant,
    h_limit_constant,
    poisson_cov_matrix,
    sigma_blocks_constant,
    synthetic_densities,
)
from .geometry import Window
from .gof import GofConfig, gof_test
from .intensity import (
    ConstantIntensity,
    LogLinearIntensity,
    estimate_constant,
    fit_loglinear,
)
from .io import (
    read_covariate_field,
    read_matrix_csv,
    read_pattern_csv,
    write_curve_csv,
    write_matrix_csv,
    write_pattern_csv,
)
from .kstat import Curve, RadiusGrid, h_matrix, k_hat
from .limitlaw import critical_value, simulate_sup
from .simulate import (
    MaternParams,
    simulate_matern,
    simulate_poisson,
    simulate_poisson_inhom,
)
from .study import StudyConfig, rejection_study


def _vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")], dtype=float)


def _print_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    window = Window(args.dim, args.side)
    if args.model == "poisson":
        pattern = simulate_poisson(args.rho, window, args.seed)
    elif args.model == "matern":
        params = MaternParams(args.kappa, args.mu, args.rdisp)
        pattern = simulate_matern(params, window, args.seed)
    else:
        field = read_covariate_field(args.covariates)
        model = LogLinearIntensity(_vector(args.beta), field)
        pattern = simulate_poisson_inhom(model, args.rho_max, window, args.seed)
    write_pattern_csv(args.output, pattern)
    sys.stdout.write(f"{len(pattern)} points -> {args.output}\n")
    return 0


def _load_pattern(args):
    return read_pattern_csv(args.pattern, side=args.side, dim=args.dim)


def _cmd_fit(args) -> int:
    pattern = _load_pattern(args)
    if args.model == "constant":
        beta = estimate_constant(pattern)
        _print_json(
            {"model": "constant", "beta_hat": beta, "converged": True}, args.output
        )
        return 0
    field = read_covariate_field(args.covariates)
    beta0 = _vector(args.beta0) if args.beta0 else None
    result = fit_loglinear(pattern, field, beta0)
    _print_json(
        {
            "model": "loglinear",
            "beta_hat": result.beta_hat.tolist(),
            "score_norm": result.score_norm,
            "iterations": result.iterations,
            "converged": result.converged,
        },
        args.output,
    )
    return 0


def _cmd_kfunc(args) -> int:
    pattern = _load_pattern(args)
    grid = RadiusGrid.uniform(args.R, args.grid)
    if args.intensity == "constant":
        beta = estimate_constant(pattern) if args.fit else float(args.beta)
        model = ConstantIntensity(beta)
    else:
        field = read_covariate_field(args.covariates)
        if args.fit:
            fit = fit_loglinear(pattern, field)
            if not fit.converged:
                raise ValueError(
                    f"log-linear fit did not converge after {fit.iterations} "
                    f"iterations (score norm {fit.score_norm:.3g})"
                )
            beta = fit.beta_hat
        else:
            beta = _vector(args.beta)
        model = LogLinearIntensity(beta, field)
    khat = k_hat(pattern, model, grid)
    if args.with_h:
        h = h_matrix(pattern, model, grid)
        values = np.column_stack([khat.values, h.values])
        names = ["khat"] + [f"h_{k + 1}" for k in range(h.values.shape[1])]
        write_curve_csv(args.output, Curve(grid, values), names)
    else:
        write_curve_csv(args.output, khat, ["khat"])
    return 0


def _cmd_cov(args) -> int:
    grid = RadiusGrid.uniform(args.R, args.grid)
    quad = QuadratureConfig(samples=args.samples, r_trunc=args.r_trunc)
    if args.g_model == "poisson":
        model = POISSON_DENSITIES
    else:
        model = synthetic_densities(
            g_scale=args.decay, g3_scale=args.decay, g4_scale=args.decay
        )
    blocks = sigma_blocks_constant(model, args.beta, grid, quad, dim=args.dim)
    prefix = args.output_prefix

    def out(suffix):
        return Path(prefix + suffix)

    write_matrix_csv(out(".sigma11.csv"), blocks.sigma11)
    write_matrix_csv(out(".sigma2.csv"), blocks.sigma2)
    write_matrix_csv(out(".c.csv"), blocks.c)
    estimated = cov_estimated_constant(blocks, args.beta)
    write_matrix_csv(out(".c_estimated.csv"), estimated.matrix)
    composed = compose_lim_cov(h_limit_constant(blocks, args.beta), blocks)
    write_matrix_csv(out(".c_tilde.csv"), composed.matrix)
    meta = {
        "g_model": args.g_model,
        "beta": args.beta,
        "R": args.R,
        "grid_size": args.grid,
        "dim": args.dim,
        "samples": args.samples,
        "r_trunc": quad.resolve_trunc(grid),
        "points": blocks.points,
        "error_estimates": {
            "sigma11": blocks.sigma11_err.tolist(),
            "sigma2_max": float(blocks.sigma2_err.max()),
            "c_max": float(blocks.c_err.max()),
        },
        "files": [str(out(s)) for s in
                  (".sigma11.csv", ".sigma2.csv", ".c.csv", ".c_estimated.csv", ".c_tilde.csv")],
    }
    _print_json(meta, str(out(".meta.json")))
    sys.stdout.write(f"covariance blocks -> {prefix}.*.csv\n")
    return 0


def _cmd_crit(args) -> int:
    grid = RadiusGrid.uniform(args.R, args.grid)
    if args.cov:
        matrix = read_matrix_csv(args.cov)
        if matrix.shape != (grid.m, grid.m):
            raise ValueError(
                f"covariance is {matrix.shape[0]}x{matrix.shape[1]}, "
                f"but --grid is {grid.m}"
            )
    else:
        matrix = poisson_cov_matrix(grid, args.rho, args.mode).matrix
    draws = simulate_sup(matrix, args.M, args.seed)
    payload = {
        "alpha": args.alpha,
        "critical_value": critical_value(draws, args.alpha),
        "M": args.M,
        "seed": args.seed,
        "R": args.R,
        "grid_size": args.grid,
    }
    _print_json(payload, args.output)
    return 0


def _cmd_gof(args) -> int:
    pattern = _load_pattern(args)
    config = GofConfig(
        R=args.R,
        grid_size=args.grid,
        alpha=args.alpha,
        mode=args.mode,
        rho=args.rho,
        sample_size=args.M,
        seed=args.seed,
    )
    result = gof_test(pattern, config)
    _print_json(result.to_dict(), args.output)
    return 0


def _cmd_study(args) -> int:
    config = StudyConfig.from_dict(json.loads(Path(args.config).read_text()))
    if args.threads is not None:
        config = replace(config, workers=args.threads)
    result = rejection_study(config)
    if args.output:
        path = Path(args.output)
        text = result.to_csv() if path.suffix == ".csv" else result.to_markdown()
        path.write_text(text)
    else:
        sys.stdout.write(result.to_markdown())
    return 0


def _add_pattern_args(parser) -> None:
    parser.add_argument("pattern", help="pattern CSV file")
    parser.add_argument("--side", type=float, default=None, help="window side (overrides sidecar)")
    parser.add_argument("--dim", type=int, default=None, help="window dimension (overrides sidecar)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inhomk",
        description="K-function estimation and goodness-of-fit testing for spatial point patterns",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a point pattern")
    p.add_argument("--model", choices=("poisson", "matern", "poisson-inhom"), required=True)
    p.add_argument("--rho", type=float, default=200.0, help="poisson intensity")
    p.add_argument("--kappa", type=float, default=25.0)
    p.add_argument("--mu", type=float, default=8.0)
    p.add_argument("--rdisp", type=float, default=0.2)
    p.add_argument("--covariates", help="covariate raster file (poisson-inhom)")
    p.add_argument("--beta", help="comma-separated parameter vector (poisson-inhom)")
    p.add_argument("--rho-max", type=float, help="dominating intensity (poisson-inhom)")
    p.add_argument("--side", type=float, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit an intensity model")
    _add_pattern_args(p)
    p.add_argument("--model", choices=("constant", "loglinear"), default="constant")
    p.add_argument("--covariates", help="covariate raster file (loglinear)")
    p.add_argument("--beta0", help="starting values, comma separated")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("kfunc", help="estimate the K-function")
    _add_pattern_args(p)
    p.add_argument("--R", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--intensity", choices=("constant", "loglinear"), default="constant")
    p.add_argument("--beta", help="intensity parameter(s); scalar or comma separated")
    p.add_argument("--fit", action="store_true", help="estimate the intensity from the pattern")
    p.add_argument("--covariates", help="covariate raster file (loglinear)")
    p.add_argument("--with-h", action="store_true", help="append gradient columns")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_kfunc)

    p = sub.add_parser("cov", help="asymptotic covariance blocks (constant intensity)")
    p.add_argument("--g-model", choices=("poisson", "exponential"), default="poisson")
    p.add_argument("--decay", type=float, default=0.02, help="decay scale of the exponential kernels")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--R", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=10)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--samples", type=int, default=2**16)
    p.add_argument("--r-trunc", type=float, default=None)
    p.add_argument("-o", "--output-prefix", required=True)
    p.set_defaults(func=_cmd_cov)

    p = sub.add_parser("crit", help="Monte Carlo critical value of the sup statistic")
    p.add_argument("--cov", help="covariance matrix CSV (otherwise a Poisson closed form)")
    p.add_argument("--rho", type=float, default=200.0)
    p.add_argument("--mode", choices=("known", "estimated"), default="estimated")
    p.add_argument("--R", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--M", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_crit)

    p = sub.add_parser("gof", help="Kolmogorov-Smirnov test of the Poisson null")
    _add_pattern_args(p)
    p.add_argument("--R", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--mode", choices=("estimated", "known"), default="estimated")
    p.add_argument("--rho", type=float, default=None, help="known intensity for the statistic")
    p.add_argument("--M", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gof)

    p = sub.add_parser("study", help="rejection-probability study from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_study)

    return parser


# Options a model needs that argparse cannot require on its own, keyed by
# (subcommand, model); the model is --model, or --intensity for kfunc.
_MODEL_OPTIONS = {
    ("simulate", "poisson-inhom"): ("covariates", "beta", "rho_max"),
    ("fit", "loglinear"): ("covariates",),
    ("kfunc", "loglinear"): ("covariates",),
}


def _check_model_options(parser, args) -> None:
    """Exit with a usage error on a missing or conflicting model option."""
    model = getattr(args, "intensity", getattr(args, "model", None))
    for dest in _MODEL_OPTIONS.get((args.command, model), ()):
        if getattr(args, dest) is None:
            parser.error(f"{args.command} with {model} needs --{dest.replace('_', '-')}")
    if args.command == "kfunc" and args.beta is None and not args.fit:
        parser.error("kfunc needs --beta or --fit")
    if args.command == "kfunc" and args.beta is not None and args.fit:
        parser.error("kfunc takes --beta or --fit, not both")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_model_options(parser, args)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
