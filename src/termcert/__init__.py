"""termcert: termination certificates for recursive probabilistic programs.

The toolkit parses a small nondeterministic recursive probabilistic
language, lowers it to control-flow graphs, executes the induced
infinite-state decision-process semantics, checks four families of
termination certificates over finite verification boxes, turns checked
certificates into expected-time and tail bounds, and cross-validates every
bound by seeded Monte Carlo simulation.
"""

from .bounds import (
    BoundError,
    BoundReport,
    SqrtTailResult,
    cert_value_at,
    concentration_tail,
    lower_expected,
    markov_tail,
    sqrt_tail,
    upper_expected,
)
from .certificates import (
    CertificateError,
    Certificate,
    CertParams,
    CertPiece,
    load_certificate,
    parse_certificate,
)
from .cfg import Cfg, CfgError, CfgFunction, Transition, build_cfg, dump_cfg, value_passing
from .checker import (
    CheckReport,
    CheckerError,
    ConditionFailure,
    ThetaIndex,
    VerifyBox,
    check_cdb,
    check_db,
    check_ranking,
    check_super,
    run_check,
    theta_fixpoint,
)
from .distributions import (
    DiscreteDist,
    DistributionError,
    SamplingFunction,
    load_distributions,
    parse_distributions,
)
from .lab import LabError, LabResult, analytic, fit_tail_slope, simulate_lab, step_law
from .lang import EvalError, Program, label_program, pretty_print
from .parser import ParseError, load_program, parse_program
from .rng import make_generator
from .semantics import RunStats, Scheduler, StackElement, TailEstimate, simulate, wilson_interval
from .valuation import Valuation

__version__ = "0.1.0"
