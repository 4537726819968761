"""Command-line front end: demos, threshold tables, privacy audits, sweeps.

Exit codes: 0 success, 1 parameter/validation error, 2 runtime failure
(decode mismatch or singular system), 3 incompletable simulation.
Every file written is accompanied by a `<file>.manifest.json` capturing
the exact inputs, so reruns are reproducible byte for byte.  The seed
is `--seed`, default 0; `simulate` takes its config's seed before that
default.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import __version__, wire
from .bivariate import SchemeParams
from .errors import BipolyError, DecodeSingularError, IncompletableError, ParameterError
from .privacy import exhaustive_mi_check, perfect_privacy_check, sweep_collusion_subsets
from .scheme import (
    compute_all,
    decode,
    encode,
    random_prefix_subset,
    recovery_threshold,
    sample_points,
    upload_cost_bits,
)
from .simulator import (
    GASP,
    PROPOSED,
    WorkerClass,
    budget_sweep,
    scheme_point,
    sweep_rows_to_csv,
)

# A valid class whose fields a config value replaces one at a time.
_SOME_CLASS = WorkerClass(count=1, lam=1.0, nu=0.0)


def _parse_budgets(text: str) -> list[int]:
    """Accept '2-10' ranges and '2,4,6' lists, or a mix of both."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part:
                lo, hi = part.split("-", 1)
                out.extend(range(int(lo), int(hi) + 1))
            elif part:
                out.append(int(part))
        except ValueError:
            raise ParameterError(
                f"budget {part!r} in {text!r} is not an integer or a lo-hi range"
            ) from None
    if not out:
        raise ParameterError(f"no budgets in {text!r}")
    return out


def _write_output(path: str | None, text: str, subcommand: str, settings: dict) -> None:
    """Write text to stdout, or to the file `path` with its manifest beside it."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    _write_manifest(path, subcommand, settings, [path])


def _write_manifest(out_path: str, subcommand: str, settings: dict, outputs: list[str]) -> None:
    manifest = {
        "tool": "bipoly",
        "version": __version__,
        "subcommand": subcommand,
        "settings": settings,
        "outputs": outputs,
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- demo ---------------------------------------------------------------


def _cmd_demo(args: argparse.Namespace) -> int:
    params = SchemeParams(K=args.K, L=args.L, T=args.T, m=args.m, N=args.N, q=args.q)
    field = params.field
    rng = np.random.default_rng(args.seed)
    a = field.random_matrix(rng, args.r, args.s)
    b = field.random_matrix(rng, args.s, args.c)
    enc = encode(params, a, b, rng)
    results = compute_all(enc.shares)
    r_th = recovery_threshold(params)
    subset = random_prefix_subset(results, r_th, rng)
    print(f"params: K={params.K} L={params.L} T={params.T} m={params.m} "
          f"N={params.N} q={params.q}")
    print(f"matrix dims: ({args.r} x {args.s}) @ ({args.s} x {args.c})")
    print(f"recovery threshold: {r_th} of {params.N * params.m} sub-tasks")
    print(f"upload cost: {upload_cost_bits(params, args.r, args.s, args.c)} bits")
    decoded = decode(params, subset)
    expected = field.mat_mul(a, b)
    ok = bool(np.array_equal(decoded.assembled, expected))
    if args.dump:
        dims = (args.r, args.s, args.c)
        share_path = args.dump + ".shares.bin"
        result_path = args.dump + ".results.bin"
        with open(share_path, "wb") as fh:
            fh.write(wire.dump_shares(params, dims, enc.shares))
        with open(result_path, "wb") as fh:
            fh.write(wire.dump_results(params, dims, results))
        settings = {k: getattr(args, k) for k in ("K", "L", "T", "m", "N", "q", "r", "s", "c", "seed")}
        for path in (share_path, result_path):
            _write_manifest(path, "demo", settings, [share_path, result_path])
        print(f"dumped shares to {share_path} and results to {result_path}")
    print("PASS" if ok else "FAIL: decoded product differs from direct multiplication")
    return 0 if ok else 2


# -- thresholds ---------------------------------------------------------


def _cmd_thresholds(args: argparse.Namespace) -> int:
    budgets = _parse_budgets(args.budgets)
    params = SchemeParams(K=args.K, L=args.L, T=args.T, m=1, N=1,
                          q=args.q)
    lines = ["budget,proposed_m,proposed_rth,gasp_m,gasp_rth"]
    for budget in budgets:
        pm, pr = scheme_point(PROPOSED, budget, params)
        gm, gr = scheme_point(GASP, budget, params)
        lines.append(f"{budget},{pm},{pr},{gm},{gr}")
    settings = {"K": args.K, "L": args.L, "T": args.T, "q": args.q, "budgets": budgets}
    _write_output(args.out, "\n".join(lines) + "\n", "thresholds", settings)
    return 0


# -- simulate -----------------------------------------------------------


def _config_value(path: str, sec: configparser.SectionProxy, key: str, convert):
    if key not in sec:
        raise ParameterError(f"{path}: [{sec.name}] section lacks the {key!r} key")
    try:
        return convert(sec[key])
    except (ValueError, ParameterError) as err:
        raise ParameterError(f"{path}: [{sec.name}] {key} = {sec[key]!r}: {err}") from None


def _class_field(field: str, convert):
    """Converter that checks one WorkerClass field alone, so an error names its key."""
    return lambda text: getattr(replace(_SOME_CLASS, **{field: convert(text)}), field)


def load_sim_config(path: str) -> dict:
    """Parse a key=value simulation config.

    Sections: [scheme] with K, L, T, q; [sim] with trials, budgets
    (default 2-10) and seed (default 0); one [class.NAME] per worker
    class with count, lambda, nu.  A missing key, or a value that does
    not parse or breaks a WorkerClass invariant, raises ParameterError
    naming the file, the section and the key.  Bundled
    configs can be named directly ('heterogeneous' or 'homogeneous').
    """
    if not os.path.exists(path) and not path.endswith(".cfg"):
        bundled = resources.files("bipoly") / "configs" / f"{path}.cfg"
        if bundled.is_file():
            path = str(bundled)
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh, source=path)
    if not parser.has_section("scheme"):
        raise ParameterError(f"{path}: missing [scheme] section")
    if not parser.has_section("sim"):
        raise ParameterError(f"{path}: missing [sim] section")
    scheme_sec = parser["scheme"]
    classes = []
    for section in parser.sections():
        if not section.startswith("class."):
            continue
        sec = parser[section]
        classes.append(
            WorkerClass(
                count=_config_value(path, sec, "count", _class_field("count", int)),
                lam=_config_value(path, sec, "lambda", _class_field("lam", float)),
                nu=_config_value(path, sec, "nu", _class_field("nu", float)),
            )
        )
    if not classes:
        raise ParameterError(f"{path}: no [class.*] sections")
    n_workers = sum(c.count for c in classes)
    params = SchemeParams(
        K=_config_value(path, scheme_sec, "K", int),
        L=_config_value(path, scheme_sec, "L", int),
        T=_config_value(path, scheme_sec, "T", int),
        m=1,
        N=n_workers,
        q=_config_value(path, scheme_sec, "q", int),
    )
    sim_sec = parser["sim"]
    sim_sec.setdefault("budgets", "2-10")
    sim_sec.setdefault("seed", "0")
    return {
        "params": params,
        "classes": classes,
        "trials": _config_value(path, sim_sec, "trials", int),
        "budgets": _config_value(path, sim_sec, "budgets", _parse_budgets),
        "seed": _config_value(path, sim_sec, "seed", int),
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_sim_config(args.config)
    trials = args.trials if args.trials is not None else cfg["trials"]
    seed = args.seed if args.seed is not None else cfg["seed"]
    schemes = [PROPOSED, GASP] if args.scheme == "both" else [args.scheme]
    rows = budget_sweep(
        cfg["classes"], cfg["params"], cfg["budgets"], schemes, trials, seed
    )
    settings = {"config": args.config, "scheme": args.scheme, "trials": trials,
                "seed": seed, "budgets": cfg["budgets"]}
    _write_output(args.out, sweep_rows_to_csv(rows), "simulate", settings)
    return 0


# -- privacy ------------------------------------------------------------


def _cmd_privacy(args: argparse.Namespace) -> int:
    params = SchemeParams(K=args.K, L=args.L, T=args.T, m=args.m, N=args.N, q=args.q)
    if args.sweeps < 1:
        raise ParameterError(f"sweeps must be >= 1, got {args.sweeps}")
    rng = np.random.default_rng(args.seed)
    overall_pass = True
    for sweep_idx in range(args.sweeps):
        points = sample_points(params, rng)
        if args.allow_degenerate:
            # Deliberately degenerate draw: repeat an x coordinate (or
            # zero it when T == 1) to exhibit a failing coalition.  The y
            # coordinates stay distinct so the points remain valid tuples.
            if params.T >= 2:
                points[1] = points[1]._replace(
                    x=points[0].x, y=(points[0].y + 1) % params.q
                )
            else:
                points[0] = points[0]._replace(x=0)
        report = sweep_collusion_subsets(
            points, params.K, params.T, params.m, params.q
        )
        if report.passed:
            print(f"sweep {sweep_idx}: PASS ({report.subsets_checked} subsets)")
        else:
            overall_pass = False
            first = report.failing_subsets[0]
            print(
                f"sweep {sweep_idx}: FAIL "
                f"({len(report.failing_subsets)}+ of {report.subsets_checked} subsets)"
            )
            check = perfect_privacy_check(
                [points[i] for i in first], params.K, params.T, params.m, params.q
            )
            print(f"  witness subset (worker indices): {first}")
            print(f"  deficient matrix {check.failed_name} "
                  f"(rank_a={check.rank_a}, rank_b={check.rank_b}):")
            print("  " + str(check.witness).replace("\n", "\n  "))
    # Small enough to enumerate: at most 7**6 states (L == 1 bounds m by 1, as m <= L).
    if params.q <= 7 and params.K == 1 and params.L == 1 and params.T <= 2:
        points = sample_points(params, np.random.default_rng(args.seed))
        mi = exhaustive_mi_check(
            points[: params.T], params.K, params.T, params.m, params.q
        )
        print(f"exhaustive mutual information: {mi} bits")
        overall_pass = overall_pass and mi == 0.0
    print("PASS" if overall_pass else "FAIL")
    return 0 if overall_pass else 2


# -- parser -------------------------------------------------------------


def _add_scheme_args(p: argparse.ArgumentParser, defaults: dict) -> None:
    for name, default in defaults.items():
        p.add_argument(f"--{name}", type=int, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipoly",
        description="Private coded matrix multiplication: demos, analytics, "
                    "privacy checks and straggler simulations.",
    )
    parser.add_argument("--version", action="version", version=f"bipoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end encode/compute/decode round trip")
    _add_scheme_args(
        demo,
        {"K": 5, "L": 5, "T": 3, "m": 5, "N": 51, "q": 2147483647,
         "r": 100, "s": 100, "c": 100},
    )
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--dump", metavar="PREFIX",
                      help="write shares/results as PREFIX.{shares,results}.bin")
    demo.set_defaults(func=_cmd_demo)

    thresholds = sub.add_parser(
        "thresholds", help="proposed-vs-baseline m and recovery threshold per budget"
    )
    _add_scheme_args(thresholds, {"K": 5, "L": 5, "T": 3, "q": 2147483647})
    thresholds.add_argument("--budgets", default="2-10")
    thresholds.add_argument("--out", default=None)
    thresholds.set_defaults(func=_cmd_thresholds)

    simulate = sub.add_parser(
        "simulate", help="Monte Carlo completion-time sweep from a config file"
    )
    simulate.add_argument("--config", required=True,
                          help="config path, or a bundled name "
                               "('heterogeneous' / 'homogeneous')")
    simulate.add_argument("--scheme", choices=[PROPOSED, GASP, "both"], default="both")
    simulate.add_argument("--trials", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(func=_cmd_simulate)

    privacy = sub.add_parser(
        "privacy", help="exact privacy sweep over all coalitions, plus toy-scale "
                        "mutual-information enumeration when feasible"
    )
    _add_scheme_args(privacy, {"K": 5, "L": 5, "T": 3, "m": 5, "N": 51,
                               "q": 2147483647})
    privacy.add_argument("--sweeps", type=int, default=10)
    privacy.add_argument("--seed", type=int, default=0)
    privacy.add_argument("--allow-degenerate", action="store_true",
                         help="inject a degenerate point draw to demo a FAIL witness")
    privacy.set_defaults(func=_cmd_privacy)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IncompletableError as exc:
        print(f"incompletable: {exc}", file=sys.stderr)
        return 3
    except DecodeSingularError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except (BipolyError, configparser.Error, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
