"""Runtime monitoring and action shielding over beliefs of a
multi-agent POMDP: an exact joint-state Bayes filter, a finite-trace
temporal formula language with belief predicates, barrier-style
step checks compiled from formulas, a one-step greedy shield, and a
reproducible episode simulator with trace audit tooling."""

from .audit import AuditReport, EpisodeAudit, ObligationAudit, audit_episode, audit_traces
from .barrier import FtParams, LinearAlpha, dtbf_check, ft_dtbf_check, ft_time_bound
from .config import ScenarioConfig, load_config, parse_config, write_config
from .errors import (
    BeliefShieldError, ConfigError, FormulaSyntaxError,
    InvalidStart, NegationOfCompound, SafetyDeadlock, TraceMismatch,
    UnknownPredicate, UnknownState, UnsupportedNesting, ZeroLikelihood,
)
from .ldtl import (
    Always, And, BeliefExpr, BeliefPred, BeliefVar, Constant, Difference,
    Eventually, Formula, Max, Min, Next, Or, Product, StateSet, Sum,
    Until, describe, expr_text, oracle_columns, pretty_print,
)
from .model import (
    Belief, JointAction, Mpomdp, Violation, belief_update,
    expected_reward, predicted_belief,
    sample_initial_state, sample_observation, sample_transition,
    validate_model, validate_tables,
)
from .monitor import (
    Monitor, MonitorConfig, Obligation, compile_monitor, translate_core,
)
from .parsing import parse_expr, parse_formula
from .shield import CONSERVATIVE, LITERAL, ShieldDecision, shield_step
from .sim import (
    BatchResult, FixedAction, GreedyReward, NominalPolicy, RandomUniform,
    SHIELD_MODES, SHIELD_OFF, Scenario, Trace, TraceStep, run_batch, run_episode,
    select_action,
)
from .traceio import EpisodeRecord, read_traces, write_summary, write_traces

__version__ = "0.1.0"
