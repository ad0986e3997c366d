"""Command-line interface.

Subcommands: simulate, fit, kfunc, cov, crit, gof, study. Structured results
are JSON, curves/patterns/matrices are CSV; every stochastic command requires
an explicit --seed (no wall-clock seeding). Exit codes: 0 success, 1 domain
or input error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .asymcov import (
    MODES,
    POISSON_DENSITIES,
    QuadratureConfig,
    compose_lim_cov,
    cov_estimated_constant,
    h_limit_constant,
    poisson_cov_matrix,
    sigma_blocks_constant,
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
from .limitlaw import check_sample_size, critical_value, simulate_sup
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
        model = LogLinearIntensity(_vector(args.beta), read_covariate_field(args.covariates))
        pattern = simulate_poisson_inhom(model, model.cell_values().max(), window, args.seed)
    write_pattern_csv(args.output, pattern)
    sys.stdout.write(f"{len(pattern)} points -> {args.output}\n")
    return 0


def _cmd_fit(args) -> int:
    pattern = read_pattern_csv(args.pattern, side=args.side, dim=args.dim)
    if args.model == "constant":
        payload = {"model": "constant", "beta_hat": estimate_constant(pattern), "converged": True}
    else:
        field = read_covariate_field(args.covariates)
        result = fit_loglinear(pattern, field, _vector(args.beta0) if args.beta0 else None)
        # Every FitResult field, in its order, with beta_hat as a list.
        payload = {"model": "loglinear", **vars(result), "beta_hat": result.beta_hat.tolist()}
    _print_json(payload, args.output)
    return 0


def _cmd_kfunc(args) -> int:
    pattern = read_pattern_csv(args.pattern, side=args.side, dim=args.dim)
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
    quad = QuadratureConfig()
    blocks = sigma_blocks_constant(POISSON_DENSITIES, args.beta, grid, quad, dim=args.dim)
    # Every matrix is computed, and checked, before the first file is written.
    matrices = {
        ".sigma11.csv": blocks.sigma11,
        ".sigma2.csv": blocks.sigma2,
        ".c.csv": blocks.c,
        ".c_estimated.csv": cov_estimated_constant(blocks).matrix,
        ".c_tilde.csv": compose_lim_cov(h_limit_constant(blocks), blocks).matrix,
    }
    prefix = args.output_prefix
    files = [str(Path(prefix + suffix)) for suffix in matrices]
    for path, matrix in zip(files, matrices.values()):
        write_matrix_csv(path, matrix)
    meta = {
        "g_model": "poisson",
        "beta": args.beta,
        "R": args.R,
        "grid_size": args.grid,
        "dim": args.dim,
        "samples": quad.samples,
        "r_trunc": quad.resolve_trunc(grid),
        "points": blocks.points,
        "error_estimates": {
            "sigma11": blocks.sigma11_err.tolist(),
            "sigma2_max": float(blocks.sigma2_err.max()),
            "c_max": float(blocks.c_err.max()),
        },
        "files": files,
    }
    _print_json(meta, prefix + ".meta.json")
    sys.stdout.write(f"covariance blocks -> {prefix}.*.csv\n")
    return 0


def _cmd_crit(args) -> int:
    check_sample_size(args.M, "sample_size")  # gof's name and rule for --M
    grid = RadiusGrid.uniform(args.R, args.grid)
    if args.cov:
        matrix = read_matrix_csv(args.cov)
    else:
        matrix = poisson_cov_matrix(grid, args.rho, args.mode).matrix
    if matrix.shape != (grid.m, grid.m):
        rows, cols = matrix.shape
        raise ValueError(f"covariance is {rows}x{cols}, but --grid is {grid.m}")
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
    pattern = read_pattern_csv(args.pattern, side=args.side, dim=args.dim)
    config = GofConfig(
        R=args.R,
        grid_size=args.grid,
        alpha=args.alpha,
        mode=args.mode,
        sample_size=args.M,
        seed=args.seed,
    )
    result = gof_test(pattern, config)
    _print_json(result.to_dict(), args.output)
    return 0


def _cmd_study(args) -> int:
    config = StudyConfig.from_dict(json.loads(Path(args.config).read_text()))
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
    p.add_argument("--rho", type=float, help="poisson intensity")
    p.add_argument("--kappa", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--rdisp", type=float)
    p.add_argument("--covariates", help="covariate raster file (poisson-inhom)")
    p.add_argument("--beta", help="comma-separated parameter vector (poisson-inhom)")
    p.add_argument("--side", type=float, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_simulate, parser=p)

    p = sub.add_parser("fit", help="fit an intensity model")
    _add_pattern_args(p)
    p.add_argument("--model", choices=("constant", "loglinear"), default="constant")
    p.add_argument("--covariates", help="covariate raster file (loglinear)")
    p.add_argument("--beta0", help="starting values, comma separated")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_fit, parser=p)

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
    p.set_defaults(func=_cmd_kfunc, parser=p)

    p = sub.add_parser("cov", help="asymptotic covariance blocks (constant intensity)")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--R", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=10)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("-o", "--output-prefix", required=True)
    p.set_defaults(func=_cmd_cov, parser=p)

    p = sub.add_parser("crit", help="Monte Carlo critical value of the sup statistic")
    p.add_argument("--cov", help="covariance matrix CSV (otherwise a Poisson closed form)")
    p.add_argument("--rho", type=float)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--R", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--M", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_crit, parser=p)

    p = sub.add_parser("gof", help="Kolmogorov-Smirnov test of the Poisson null")
    _add_pattern_args(p)
    p.add_argument("--R", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--mode", choices=MODES, default="estimated")
    p.add_argument("--M", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gof, parser=p)

    p = sub.add_parser("study", help="rejection-probability study from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_study, parser=p)

    return parser


# The options each (subcommand, model) reads, with the value an absent one takes
# (``...``: it must be given). The model is --model, --intensity for kfunc, and
# for crit "--cov" or "poisson" (the closed form). These options have no parser
# default, so one given to a model that does not read it is seen and refused.
_MODEL_OPTIONS = {
    ("simulate", "poisson"): {"rho": 200.0},
    ("simulate", "matern"): {"kappa": 25.0, "mu": 8.0, "rdisp": 0.2},
    ("simulate", "poisson-inhom"): {"covariates": ..., "beta": ...},
    ("fit", "loglinear"): {"covariates": ..., "beta0": None},
    ("kfunc", "loglinear"): {"covariates": ...},
    ("crit", "poisson"): {"rho": 200.0, "mode": "estimated"},
}


def _check_model_options(args) -> None:
    """Usage error on a missing, unread or conflicting model option; fill in absent ones.

    The error prints the usage of ``args.parser``, the subcommand's parser.
    """
    parser = args.parser
    model = getattr(args, "intensity", getattr(args, "model", "poisson"))
    model = "--cov" if getattr(args, "cov", None) else model
    reads = _MODEL_OPTIONS.get((args.command, model), {})
    options = [d for (cmd, _), ds in _MODEL_OPTIONS.items() if cmd == args.command for d in ds]
    unread = [f"--{d}" for d in options if d not in reads and getattr(args, d) is not None]
    if unread:
        parser.error(f"{args.command} with {model} does not read {', '.join(unread)}")
    for dest, default in reads.items():
        if getattr(args, dest) is None:
            if default is ...:
                parser.error(f"{args.command} with {model} needs --{dest}")
            setattr(args, dest, default)
    if args.command == "kfunc" and (args.beta is not None) == args.fit:
        parser.error("kfunc needs --beta or --fit, not both")


# Built from module constants alone, on first use; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command and return its exit code; the parser is built once per process."""
    args, extra = _parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    _check_model_options(args)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
