"""Command-line front end.

Subcommands: fit, eval, experiment, summarize, compare, sensitivity-audit.
Exit codes: 0 success, 2 configuration error (also when an output or results path
cannot be opened, or a ``sensitivity-audit`` row's empirical sensitivity exceeds its
bound), 3 data error (also when every record an ``experiment`` run wrote failed),
4 budget error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .dataset import DataError, load_csv, parse_domain_spec
from .ensemble import predict
from .harness import (
    AUDIT_COLUMNS,
    ConfigError,
    ExperimentConfig,
    compare,
    fit_cell,
    load_model,
    read_fit_config,
    read_results,
    run_experiment,
    save_model,
    sensitivity_audit,
    summarize_cumulative,
    write_csv,
)
from .privacy import BudgetExceededError, derive_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BUDGET = 4


def _fit(args) -> int:
    cell, lc_alpha = read_fit_config(args.config)
    spec = parse_domain_spec(args.domains)
    dataset = load_csv(args.data, spec.label_column, spec)
    model, spent = fit_cell(cell, dataset, lc_alpha, derive_seed(args.seed, "fit"))
    save_model(args.out, model, spec)
    shown = f"spent_epsilon={spent}"
    if cell["epsilon"] == "off":  # a private model's exact training error is not released
        shown = f"train_error={model.traces.train_error[-1]}, {shown}"
    print(f"fit: wrote {args.out} ({shown})")
    return EXIT_OK


def _eval(args) -> int:
    model, spec = load_model(args.model)
    dataset = load_csv(args.data, spec.label_column, spec)
    margins, labels = predict(model, dataset.X)
    scores = [{"margin": m, "label": y} for m, y in zip(margins.tolist(), labels.tolist())]
    write_csv(args.out, scores, ("margin", "label"))
    error = float(np.mean(labels != dataset.y))
    print(f"eval: wrote {args.out} (test_error={error})")
    return EXIT_OK


def _experiment(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    written = run_experiment(config, args.out)
    rows = read_results(args.out)  # this run's records are the last `written` rows
    failed = [row["error"] for row in rows[len(rows) - written:] if row["error"]]
    print(f"experiment: wrote {written} records to {args.out} ({len(failed)} failed)")
    if written and len(failed) == written:
        print(f"data error: every record failed; the first: {failed[0]}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _summarize(args) -> int:
    rows = read_results(args.results)
    group_by = tuple(c.strip() for c in args.by.split(",") if c.strip())
    curves = summarize_cumulative(rows, group_by)
    columns = group_by + ("test_error", "cumulative_pct", "default_error_mean")
    write_csv(args.out, curves, columns)
    print(f"summarize: wrote {len(curves)} curve points to {args.out}")
    return EXIT_OK


def _compare(args) -> int:
    cell_columns = tuple(c.strip() for c in args.by.split(",") if c.strip())
    result = compare(
        read_results(args.a), read_results(args.b),
        p_threshold=args.p, cell_columns=cell_columns,
    )
    write_csv(args.out, result.per_cell, cell_columns + ("t", "p", "winner"))
    print(
        f"compare: {result.cells_significant}/{result.cells_total} cells significant "
        f"(p<{args.p}); a wins {result.a_wins}, b wins {result.b_wins} "
        f"(a_win_percent={result.a_win_percent})"
    )
    return EXIT_OK


def _audit(args) -> int:
    rows = sensitivity_audit(trials=args.trials, seed=args.seed)
    write_csv(args.out, rows, AUDIT_COLUMNS)
    violations = [r for r in rows if r["empirical_delta"] > r["bound"] + 1e-9]
    print(f"sensitivity-audit: wrote {len(rows)} rows to {args.out}; "
          f"{len(violations)} bound violations")
    return EXIT_OK if not violations else EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpboost",
        description="Differentially private boosted decision trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="train a model and serialize it")
    fit.add_argument("--config", required=True)
    fit.add_argument("--data", required=True)
    fit.add_argument("--domains", required=True)
    fit.add_argument("--out", required=True)
    fit.add_argument("--seed", type=int, default=0)
    fit.set_defaults(func=_fit)

    evl = sub.add_parser("eval", help="score a CSV with a serialized model")
    evl.add_argument("--model", required=True)
    evl.add_argument("--data", required=True)
    evl.add_argument("--out", required=True)
    evl.set_defaults(func=_eval)

    exp = sub.add_parser("experiment", help="run a cross-validated grid")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=_experiment)

    summ = sub.add_parser("summarize", help="cumulative error curves")
    summ.add_argument("--results", required=True)
    summ.add_argument("--out", required=True)
    summ.add_argument("--by", default="algorithm,alpha,epsilon")
    summ.set_defaults(func=_summarize)

    cmp_ = sub.add_parser("compare", help="significance comparison of two result sets")
    cmp_.add_argument("--a", required=True)
    cmp_.add_argument("--b", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--by", default="epsilon,depth,seed")
    cmp_.add_argument("--p", type=float, default=0.01)
    cmp_.set_defaults(func=_compare)

    audit = sub.add_parser("sensitivity-audit", help="brute-force sensitivity audit")
    audit.add_argument("--out", required=True)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--trials", type=int, default=10)
    audit.set_defaults(func=_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, OSError, ValueError) as exc:  # OSError: a path that cannot be opened
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
