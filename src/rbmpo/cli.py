"""Command-line front end.

Subcommands:

* ``generate`` — run the Monte Carlo RB engine from an experiment config and
  write the ASF table plus a run manifest;
* ``learn`` — fit the unitary noise node to an ASF table and write the
  training result and predicted curve; the state and POVM are those of the
  ``generate`` manifest beside the table, or |0><0| without one, and its
  output directory may not be the table's own (that manifest would be lost);
* ``diagnose`` — read a learned node and report its Markovianity;
* ``selfcheck`` — run the desk-scale invariant suites.

Every command is a pure function of its input bytes and the seed: rerunning
with the same config produces byte-identical data outputs (the manifest
records wall-clock time and is the one file that differs).

Exit codes: 0 success, 1 input error (a malformed or unreadable input, one
too large for memory, an output directory that cannot be made), 2 numerical
failure, 3 non-convergence (learn only, with --require-convergence).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# numpy and the numerical modules are imported by the command that runs them,
# so --version, --help and a usage error start without them
from . import __version__
from .errors import ConvergenceError, InputError, NumericalError, ToolkitError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_NOT_CONVERGED = 3


def _manifest(command: str, config_echo: dict, inputs: list[str],
              outputs: list[str], started: float, **extra) -> dict:
    return {
        "command": command,
        "config": config_echo,
        "toolkit_version": __version__,
        "inputs": inputs,
        "outputs": outputs,
        "duration_seconds": time.monotonic() - started,
        **extra,
    }


def _out_dir(path: str) -> Path:
    """Output directory `path`, made if missing; one that cannot be is an input error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make output directory {path}: {exc.strerror}") from None
    return out


def cmd_generate(args) -> int:
    from .rb import estimate_asf
    from .serialize import dump_json, experiment_config_from_dict, load_json

    started = time.monotonic()
    cfg_dict = load_json(args.config)
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    cfg = experiment_config_from_dict(cfg_dict)
    out_dir = _out_dir(args.out)
    curve = estimate_asf(cfg)
    curve_path = out_dir / "asf.csv"
    curve_path.write_text(curve.to_csv(), encoding="utf-8")
    manifest = _manifest(
        "generate", cfg_dict, [str(args.config)], [str(curve_path)], started, seed=cfg.seed
    )
    dump_json(manifest, out_dir / "manifest.json")
    if args.json:
        print(json.dumps({"curve": str(curve_path), "rows": len(curve.lengths)}))
    else:
        print(f"wrote {curve_path} ({len(curve.lengths)} rows, {curve.n_samples} samples each)")
    return EXIT_OK


def cmd_learn(args) -> int:
    from .learner import train
    from .quantum import basis_state
    from .serialize import (
        dump_json, experiment_config_from_dict, learner_config_from_dict, load_curve, load_json,
        training_result_to_dict,
    )

    started = time.monotonic()
    data = load_curve(args.data)
    cfg_dict = load_json(args.config)
    cfg = learner_config_from_dict(cfg_dict)
    # Fit the state and POVM the data were generated with, as echoed in the
    # `generate` manifest beside them; |0><0| for both without one.
    rho = povm = basis_state(0, 2)
    inputs = [str(args.data), str(args.config)]
    gen_path = Path(args.data).parent / "manifest.json"
    if gen_path.is_file():
        gen = load_json(gen_path)
        if gen.get("command") == "generate":
            if Path(args.out).resolve() == gen_path.parent.resolve():
                raise InputError(f"-o {args.out} would overwrite the generate manifest {gen_path}")
            experiment = experiment_config_from_dict(gen.get("config"))
            rho, povm = experiment.rho_sys, experiment.povm
            inputs.append(str(gen_path))
    out_dir = _out_dir(args.out)
    result = train(data, rho, povm, cfg)

    result_path = out_dir / "result.json"
    dump_json(training_result_to_dict(result, cfg), result_path)
    pred_path = out_dir / "predicted.csv"
    pred_path.write_text(result.predicted.to_csv(), encoding="utf-8")
    manifest = _manifest(
        "learn", cfg_dict, inputs, [str(result_path), str(pred_path)], started
    )
    dump_json(manifest, out_dir / "manifest.json")
    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "best_iteration": result.best_iteration,
        "final_cost": result.cost_trace[result.best_iteration],
        "result": str(result_path),
    }
    if args.json:
        print(json.dumps(summary))
    else:
        print(
            f"learned node -> {result_path} (converged={result.converged}, "
            f"iterations={result.iterations}, best={result.best_iteration})"
        )
    if args.require_convergence and not result.converged:
        raise ConvergenceError(
            f"training did not reach the l1 target (at iteration {result.iterations})")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    import numpy as np

    from .linalg import matrix_to_json_dict
    from .noise import diagnose_markovianity
    from .serialize import node_from_file

    node, d_env = node_from_file(args.model)
    report = diagnose_markovianity(node, d_env, tol=args.tol)
    if args.json:
        print(json.dumps({
            "markovian": report.markovian,
            "off_block_norm": report.off_block_norm,
            "tol": report.tol,
            "system_block": matrix_to_json_dict(report.system_block),
        }))
    else:
        verdict = "markovian" if report.markovian else "non-markovian"
        print(f"{verdict} (off-block norm {report.off_block_norm:.3e}, tol {report.tol:g})")
        with np.printoptions(precision=4, suppress=True):
            print("system block:")
            print(report.system_block)
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_all

    ok, rows = run_all()
    if args.json:
        print(json.dumps({
            "passed": ok,
            "checks": [
                {"suite": s, "check": c, "ok": o, "detail": d} for s, c, o, d in rows
            ],
        }))
    else:
        for suite, check, passed, detail in rows:
            mark = "ok " if passed else "FAIL"
            print(f"[{mark}] {suite}: {check} ({detail})")
    if not ok:
        raise NumericalError("self-check found failing invariants")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rbmpo", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"rbmpo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate an RB experiment from a config file")
    p.add_argument("config", help="experiment config (JSON)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("learn", help="fit a noise node to an ASF table")
    p.add_argument("data", help="ASF curve (CSV from `generate`)")
    p.add_argument("config", help="learner config (JSON)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--require-convergence", action="store_true",
                   help="exit 3 if the l1 target is not reached")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("diagnose", help="report Markovianity of a learned node")
    p.add_argument("model", help="training result or matrix record (JSON)")
    p.add_argument("--tol", type=float, default=1e-2, help="off-block norm threshold")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("selfcheck", help="run the desk-scale invariant suites")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError):
            return EXIT_NOT_CONVERGED
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_INPUT
    except MemoryError as exc:  # an input whose arrays do not fit, such as a huge length
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
