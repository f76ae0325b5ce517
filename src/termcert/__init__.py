"""termcert: termination certificates for recursive probabilistic programs.

The toolkit parses a small nondeterministic recursive probabilistic
language, lowers it to control-flow graphs, executes the induced
infinite-state decision-process semantics, checks four families of
termination certificates over finite verification boxes, turns checked
certificates into expected-time and tail bounds, and cross-validates every
bound by seeded Monte Carlo simulation.  `import termcert` loads none of
its modules: each public name is imported from its module at first use.
"""

import importlib

__version__ = "0.1.0"


class InputError(Exception):
    """The base of the errors in a program, certificate, distribution, box or
    option, which the command line reports with exit status 2."""


_EXPORTS = {
    "bounds": ("BoundError", "BoundReport", "SqrtTailResult", "cert_value_at", "sqrt_tail",
               "concentration_tail", "lower_expected", "markov_tail", "upper_expected"),
    "certificates": ("CertificateError", "Certificate", "CertParams", "CertPiece",
                     "load_certificate", "parse_certificate"),
    "cfg": ("Cfg", "CfgError", "CfgFunction", "StackElement", "ThetaIndex", "build_cfg",
            "dump_cfg", "theta_fixpoint"),
    "checker": ("CheckReport", "CheckerError", "ConditionFailure", "VerifyBox", "check_cdb",
                "check_db", "check_ranking", "check_super", "run_check"),
    "distributions": ("DiscreteDist", "DistributionError", "SamplingFunction",
                      "load_distributions", "parse_distributions"),
    "lab": ("LabError", "LabResult", "analytic", "fit_tail_slope", "simulate_lab", "step_law"),
    "lang": ("EvalError", "Program", "label_program", "pretty_print"),
    "parser": ("ParseError", "load_program", "parse_program"),
    "rng": ("TailEstimate", "make_generator", "wilson_interval"),
    "semantics": ("RunStats", "Scheduler", "simulate"),
    "valuation": ("Valuation",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
