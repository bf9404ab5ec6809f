"""Causal calculators: temporal causal models that run machines.

The package has three layers. ``core`` and ``interventions`` give executable
semantics for temporal causal models with set-valued equations: computation
trees, value and structure interventions, but-for cause queries, and fault
sweeps. ``machines`` and ``compilers`` turn bounded-tape and unbounded-tape
machine specs into such models. ``equivalence`` checks, to a bounded depth,
that a compiled model and its machine unfold the same tree.
"""

from .core import (
    DEFAULT_NODE_CAP,
    ComputationTree,
    Configuration,
    Defect,
    Family,
    HoldsReport,
    LazyRange,
    Model,
    OverrideEquation,
    PlainVar,
    RuleEquation,
    Signature,
    TableEquation,
    VarId,
    active_variables,
    eval_equation,
    expand_tree,
    holds_at,
    render_value,
    successor_choices,
    successors,
    validate_model,
)
from .interventions import (
    Atom,
    CauseVerdict,
    InterventionSpec,
    RewriteAtom,
    StructureInterventionSpec,
    SweepReport,
    SweepRow,
    apply_intervention,
    apply_structure_intervention,
    is_cause,
    sweep,
)
from .machines import (
    ACCEPT,
    NO_ACCEPT_WITHIN_BUDGET,
    REJECT_EXHAUSTED,
    LbaConfig,
    MachineSpec,
    TapeConfig,
    Transition,
    initial_machine_config,
    machine_step,
    machine_tree,
    run_machine,
    validate_machine,
)
from .compilers import (
    CalculatorModel,
    calc_accepts,
    calc_labeler,
    compile_lba,
    compile_lba_monolithic,
    compile_machine,
    compile_ntm,
    compile_tm,
    decode_config,
    edge_label,
    encode_tm_config,
    initial_calc_config,
)
from .equivalence import (
    EquivReport,
    MatrixReport,
    check_acceptance_matrix,
    check_equivalence,
)
from . import errors, formats, reference

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")] + ["cli"]


def __getattr__(name):
    # ``cli`` loads on first use, so that ``python -m causalcalc.cli`` runs
    # the module once, as __main__, and not also as a package member.
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
