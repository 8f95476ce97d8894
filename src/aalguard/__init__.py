"""Behavior- and capability-aware access control for assisted living.

The package authenticates residents of an instrumented home from their
sensor-observed behavior plus a credential, reasons over a fact base with
forward-chained Horn rules, and answers access requests with
permit/deny decisions carrying obligations, recommendations, trust and
priority values.
"""

from .behavior import (
    BehaviorClass,
    BehaviorModel,
    EventLog,
    FeatureVector,
    SensorEvent,
    classify,
    extract_features,
    trust_score,
    update_class,
)
from .engine import (
    Conflict,
    InferenceReport,
    check_consistency,
    explain,
    infer_fixpoint,
)
from .facts import (
    Constant,
    Fact,
    FactStore,
    Variable,
    ground,
    load_facts,
    save_facts,
)
from .pdp import (
    AuditLog,
    AuthnRequest,
    AuthnResult,
    AuthzRequest,
    Credential,
    Decision,
    DecisionPoint,
    authenticate,
    authorize,
    flag_anomaly,
)
from .query import ConjunctiveQuery, eval_query, parse_query
from .rules import Atom, Rule, format_rule, parse_rule, parse_ruleset, validate_rule

__version__ = "0.1.0"
