"""Command-line entry point.

Subcommands: parse | cfg | simulate | check | bounds | lab.  Exit status is
0 on success (and on a passing check), 1 when a check fails (the
counterexample is printed), and 2 on usage or input errors.  Reports embed
the tool version, the seed, the box, and the certificate digest, and repeat
runs with identical flags byte-for-byte.  Each subcommand imports only the
termcert modules it runs, so `import termcert.cli` loads none.  Option
values are read in the token grammar of programs and files (`_lex`).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from . import InputError, __version__

if TYPE_CHECKING:
    from .certificates import Certificate
    from .cfg import Cfg, StackElement
    from .distributions import SamplingFunction

USAGE_ERROR = 2
CHECK_FAIL = 1


class CliError(InputError, argparse.ArgumentTypeError):
    """A bad option value; argparse reports one that an option's type raises."""


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return USAGE_ERROR
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _one_of(module: str, name: str) -> Callable[[str], str]:
    """An argparse type for the values of the tuple `name` in `module`, loaded on use."""
    def check(value: str) -> str:
        choices = getattr(importlib.import_module(f".{module}", __package__), name)
        if value not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
        return value
    return check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termcert",
        description="certificate checking and Monte Carlo cross-validation for "
                    "recursive probabilistic programs",
    )
    parser.add_argument("--version", action="version", version=f"termcert {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p = sub.add_parser("parse", help="parse a program and print it back")
    p.add_argument("program")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("cfg", help="print the control-flow graph edge list")
    p.add_argument("program")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_cfg)

    p = sub.add_parser("check", help="check certificate conditions over a box")
    p.add_argument("program")
    p.add_argument("--cert", required=True)
    p.add_argument("--kind", required=True, type=_one_of("certificates", "CHECK_KINDS"))
    p.add_argument("--dist", help="distribution file for sampling variables")
    p.add_argument("--box", action="append", required=True,
                   help="box entries like n=-100..100, comma- or space-separated (repeatable)")
    p.add_argument("--eps")
    p.add_argument("--delta")
    p.add_argument("--zeta")
    p.add_argument("--workers", type=_integer, default=1,
                   help="most processes to use, 0 = all available cores; a check "
                        "within about 8k conditions runs in one process")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("simulate", help="Monte Carlo termination-time statistics")
    p.add_argument("program")
    p.add_argument("--entry", required=True, help="function name, or name@label")
    p.add_argument("--args", default="", help="entry bindings like n=5,m=-2 (rest 0)")
    p.add_argument("--dist")
    p.add_argument("--scheduler", default="uniform",
                   type=_one_of("semantics", "SCHEDULER_KINDS"))
    p.add_argument("--cert", help="certificate for the greedy schedulers")
    p.add_argument("--runs", type=_integer, required=True)
    p.add_argument("--max-steps", type=_integer, default=10**6)
    p.add_argument("--tail", default="", help="thresholds for P(T >= k), like 10,100")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--workers", type=_integer, default=0,
                   help="most processes to use, 0 = all available cores; a "
                        "simulation within about 300k steps runs in one process "
                        "and starts no pool")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("bounds", help="bounds from a (checked) certificate")
    p.add_argument("program")
    p.add_argument("--cert", required=True)
    p.add_argument("--kind", required=True, type=_one_of("certificates", "CHECK_KINDS"))
    p.add_argument("--entry", required=True)
    p.add_argument("--args", default="")
    p.add_argument("--dist")
    p.add_argument("--k", default="", help="thresholds for P(T >= k) bounds")
    p.add_argument("--n", default="", help="thresholds for P(T > n) concentration bounds")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("lab", help="counterexample processes: analytic vs simulated")
    p.add_argument("--example", required=True, type=_one_of("lab", "TAGS"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--runs", type=_integer, required=True)
    p.add_argument("--horizon", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--tail", default="", help="levels for P(T > n), like 10,100")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(handler=_cmd_lab)

    return parser


# ---------------------------------------------------------------------------
# Shared loading helpers
# ---------------------------------------------------------------------------

def _read(load: Callable, path: str):
    """`load(path)`; a file that cannot be read, or is not UTF-8, is an input error."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_labelled(path: str):
    from .lang import label_program
    from .parser import load_program
    return label_program(_read(load_program, path))


def _load_cfg(path: str) -> Cfg:
    from .cfg import build_cfg
    return build_cfg(_load_labelled(path))


def _load_cert(path: str, cfg: Cfg) -> Certificate:
    """The certificate at `path`, each stanza of which names a label of `cfg`."""
    from .certificates import load_certificate
    cert = _read(load_certificate, path)
    cert.require_labels(cfg)
    return cert


def _sampling_function(cfg: Cfg, dist_path: Optional[str]) -> SamplingFunction:
    from .distributions import SamplingFunction, load_distributions, merge_distributions
    dists = merge_distributions(cfg.builtin_dists,
                                _read(load_distributions, dist_path) if dist_path else {})
    missing = [v for v in cfg.sampling_vars if v not in dists]
    if missing:
        raise CliError(
            f"no distribution for sampling variables {missing}; pass --dist")
    return SamplingFunction.from_mapping(dists)


def _values(text: str, what: str, item: Optional[Callable] = None, one: bool = False):
    """`text` read by `_lex.parse_items` with `item` (integers if None), as `bad {what}` if bad."""
    from ._lex import ParseError, TokenStream, parse_integer, parse_items, tokenize
    try:
        return parse_items(TokenStream(tokenize(text)), item or parse_integer, one)
    except ParseError as exc:
        raise CliError(f"bad {what}: {exc}") from None


def _integer(text: str) -> int:  # the type of the integer options
    return _values(text, "integer", one=True)


def _binding(ts) -> Tuple[str, int]:  # `name=value` in --args
    from ._lex import parse_integer
    name = ts.expect("ident", "a variable name").text
    ts.expect("=")
    return name, parse_integer(ts)


def _entry(ts) -> Tuple[str, Optional[int]]:  # `name` or `name@label` in --entry
    from ._lex import parse_integer
    name = ts.expect("ident", "a function name").text
    return name, parse_integer(ts) if ts.accept("@") else None


def _entry_element(cfg: Cfg, entry_spec: str, args_spec: str) -> StackElement:
    from .cfg import StackElement
    from .valuation import Valuation
    fname, label = _values(entry_spec, "--entry", _entry, one=True)
    if fname not in cfg.function_names():
        raise CliError(f"no function named {fname!r}")
    fn = cfg.function(fname)
    label = fn.entry if label is None else label
    if label not in fn.labels():
        raise CliError(f"function {fname!r} has no label {label}")
    bindings = dict.fromkeys(fn.pvars)  # None until --args binds it; the rest are 0
    for name, value in _values(args_spec, "--args", _binding):
        if name not in bindings:
            raise CliError(f"{name!r} is not a program variable of {fname!r}")
        if bindings[name] is not None:
            raise CliError(f"duplicate --args entry for {name!r}")
        bindings[name] = value
    return StackElement(fname, label, Valuation({v: x or 0 for v, x in bindings.items()}))


def _workers(n: int) -> int:
    if n < 0:
        raise CliError(f"bad --workers {n}; expected a nonnegative integer")
    return n


def _meta(seed: Optional[int] = None, box: Optional[str] = None,
          cert: Optional[Certificate] = None) -> Dict:
    meta = {"tool": "termcert", "version": __version__, "seed": seed, "box": box,
            "cert_digest": cert.digest() if cert is not None else None}
    return {key: value for key, value in meta.items() if value is not None}


def _print_json(payload: Dict) -> None:
    import json  # the default table and text output needs no json
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit(fmt: str, meta: Dict, headers: Sequence[str], rows: Sequence[Sequence],
          text_extra: str = "") -> None:
    if fmt == "json":
        payload = dict(meta)
        payload["rows"] = [dict(zip(headers, row)) for row in rows]
        _print_json(payload)
        return
    if fmt == "csv":
        import csv  # like json, loaded only for its --format
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
        return
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(headers)]
    print("  ".join(f"{k}={v}" for k, v in meta.items()))
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    if text_extra:
        print(text_extra)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    from .lang import pretty_print
    prog = _load_labelled(args.program)
    if args.format == "json":
        payload = _meta()
        payload["functions"] = [
            {"name": f.name, "params": list(f.params), "terminal_label": f.terminal_label}
            for f in prog.functions
        ]
        payload["sampling_variables"] = list(prog.sampling_variables())
        _print_json(payload)
    else:
        sys.stdout.write(pretty_print(prog))
    return 0


def _cmd_cfg(args) -> int:
    from .cfg import dump_cfg
    cfg = _load_cfg(args.program)
    if args.format == "json":
        payload = _meta()
        payload["functions"] = [
            {
                "name": fn.name,
                "vars": list(fn.pvars),
                "entry": fn.entry,
                "exit": fn.exit,
                "edges": [
                    {"source": source, "payload": text, "target": target}
                    for source, text, target in fn.edges()
                ],
            }
            for fn in sorted(cfg.functions, key=lambda f: f.name)
        ]
        _print_json(payload)
    else:
        sys.stdout.write(dump_cfg(cfg))
    return 0


def _cmd_check(args) -> int:
    from ._lex import parse_number
    from .checker import VerifyBox, _kind_params, run_check
    cfg = _load_cfg(args.program)
    cert = _load_cert(args.cert, cfg)
    sf = _sampling_function(cfg, args.dist)
    box = VerifyBox.parse(*args.box)
    params = _kind_params(args.kind, cert, **{
        name: _values(getattr(args, name), f"--{name}", parse_number, one=True)
        for name in ("eps", "delta", "zeta")
        if getattr(args, name) is not None})
    report = run_check(args.kind, cert, cfg, sf, box, params, workers=_workers(args.workers))
    meta = _meta(box=report.box, cert=cert)
    meta["kind"] = report.kind
    meta["passed"] = report.passed
    if args.format == "json":
        payload = dict(meta)
        payload["report"] = report.to_json_dict()
        _print_json(payload)
    elif args.format == "csv":
        headers = ["function", "label", "condition", "point", "lhs", "rhs", "detail"]
        rows = [
            [f.fname, f.label, f.condition,
             " ".join(f"{k}={v}" for k, v in f.point), f.lhs, f.rhs, f.detail]
            for f in report.failures
        ]
        _emit("csv", meta, headers, rows)
    else:
        print("  ".join(f"{k}={v}" for k, v in meta.items()))
        print(report.render())
    return 0 if report.passed else CHECK_FAIL


def _cmd_simulate(args) -> int:
    from .semantics import Scheduler, simulate
    cfg = _load_cfg(args.program)
    sf = _sampling_function(cfg, args.dist)
    entry = _entry_element(cfg, args.entry, args.args)
    cert = _load_cert(args.cert, cfg) if args.cert else None
    if args.scheduler.startswith("greedy") and cert is None:
        raise CliError(f"scheduler {args.scheduler!r} requires --cert")
    scheduler = Scheduler(args.scheduler, cert)
    stats = simulate(cfg, sf, entry, scheduler, runs=args.runs,
                     max_steps=args.max_steps, k_list=_values(args.tail, "--tail"),
                     seed=args.seed, workers=_workers(args.workers))
    meta = _meta(seed=args.seed, cert=cert)
    meta.update(entry=f"{entry.fname}@{entry.label}", scheduler=args.scheduler,
                runs=stats.runs, max_steps=stats.max_steps)
    headers = ["statistic", "value", "ci95_lo", "ci95_hi"]
    rows: List[List] = [
        ["terminated", stats.terminated, "", ""],
        ["censored", stats.censored, "", ""],
    ]
    if stats.mean is not None:
        rows.append(["mean_T", f"{stats.mean:.6g}",
                     f"{stats.mean - stats.mean_halfwidth:.6g}",
                     f"{stats.mean + stats.mean_halfwidth:.6g}"])
    for t in stats.tails:
        rows.append([f"P(T >= {t.k})", f"{t.p_hat:.6g}", f"{t.lo:.6g}", f"{t.hi:.6g}"])
    _emit(args.format, meta, headers, rows)
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import bound_rows
    cfg = _load_cfg(args.program)
    cert = _load_cert(args.cert, cfg)
    entry = _entry_element(cfg, args.entry, args.args)
    rows = bound_rows(args.kind, cert, cfg, entry,
                       _values(args.k, "--k"), _values(args.n, "--n"))
    if args.kind in ("cdb", "db"):
        print(f"warning: the eps rows of --kind {args.kind} hold only if "
              "check --kind ranking also passes on this certificate", file=sys.stderr)
    meta = _meta(cert=cert)
    meta["kind"] = args.kind
    headers = ["rule", "entry", "params", "value", "validity"]
    table = [
        [r.rule, r.entry, " ".join(f"{k}={v}" for k, v in sorted(r.params.items())),
         r.value, r.validity]
        for r in rows
    ]
    _emit(args.format, meta, headers, table)
    return 0


def _cmd_lab(args) -> int:
    from .lab import simulate_lab
    result = simulate_lab(args.example, runs=args.runs, horizon=args.horizon,
                          seed=args.seed, alpha=args.alpha,
                          tail_ns=_values(args.tail, "--tail"))
    meta = _meta(seed=args.seed)
    meta.update(example=args.example, runs=args.runs, horizon=args.horizon)
    if args.alpha is not None:
        meta["alpha"] = args.alpha
    headers = ["query", "analytic", "method", "empirical", "ci95_halfwidth"]
    rows = [
        [query, "" if a is None else f"{a:.6g}", method, f"{emp:.6g}", f"{ci:.3g}"]
        for query, a, method, emp, ci in result.rows()
    ]
    _emit(args.format, meta, headers, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
