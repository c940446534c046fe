"""repro.analysis — the unified static-analysis subsystem (IQL lint).

One entry point, :func:`analyze` (or :func:`analyze_source` for raw
text), runs every static check the repo knows about — well-typedness
(Sections 3.1/3.3), binding hygiene, invention-cycle detection on G(Γ),
dead-code lints, dataflow analysis on the per-stage dependency graph
(:mod:`repro.analysis.depgraph`, built on the per-rule effect summaries
of :mod:`repro.analysis.effects`) — and Definition-5.3 certification,
returning a
:class:`Report` of structured, source-spanned :class:`Diagnostic`
objects with stable ``IQLxxx`` codes. ``repro lint`` is the CLI face of
this package; the raising APIs in :mod:`repro.iql.typecheck` and
:mod:`repro.iql.sublanguages` remain as thin wrappers for programmatic
use.
"""

from repro.analysis.certify import Certificate, certify
from repro.analysis.depgraph import (
    Schedule,
    StageGraph,
    StageSchedule,
    compute_schedule,
    depgraph_pass,
    graphs_to_dot,
    program_graphs,
    render_graphs_text,
    stage_graph,
)
from repro.analysis.effects import RuleEffects, delta_body, rule_effects
from repro.analysis.impact import (
    Hazard,
    ImpactCone,
    SymbolImpact,
    impact_cone,
    impact_pass,
    impact_to_dot,
    program_cones,
    render_impact_text,
)
from repro.analysis.maintenance import (
    COUNTING,
    DRED,
    NOOP,
    RECOMPUTE,
    MaintenanceCertificate,
    build_certificate,
    build_certificates,
    check_certificate,
    classify_cone,
    overall_strategy,
    replay_insert,
    validate_certificate,
)
from repro.analysis.parallel import (
    ParallelCertificate,
    PartitionPlan,
    RuleConflict,
    StagePlan,
    StratumPlan,
    build_parallel_certificate,
    concurrent_batches,
    parallel_pass,
    parallel_to_dot,
    render_parallel_text,
)
from repro.analysis.passes import (
    binding_pass,
    certification_pass,
    invention_cycle_pass,
    io_schema_pass,
    typecheck_pass,
    unused_pass,
)
from repro.analysis.report import PreflightWarning, Report, analyze, analyze_source
from repro.diagnostics import CODES, Diagnostic, Span, diagnostic, diagnostics_to_json

__all__ = [
    "CODES",
    "COUNTING",
    "Certificate",
    "DRED",
    "Diagnostic",
    "Hazard",
    "ImpactCone",
    "MaintenanceCertificate",
    "NOOP",
    "ParallelCertificate",
    "PartitionPlan",
    "PreflightWarning",
    "RECOMPUTE",
    "Report",
    "RuleConflict",
    "RuleEffects",
    "Schedule",
    "Span",
    "StageGraph",
    "StagePlan",
    "StageSchedule",
    "StratumPlan",
    "SymbolImpact",
    "analyze",
    "analyze_source",
    "binding_pass",
    "build_certificate",
    "build_certificates",
    "build_parallel_certificate",
    "certification_pass",
    "certify",
    "check_certificate",
    "classify_cone",
    "compute_schedule",
    "concurrent_batches",
    "delta_body",
    "depgraph_pass",
    "diagnostic",
    "diagnostics_to_json",
    "graphs_to_dot",
    "impact_cone",
    "impact_pass",
    "impact_to_dot",
    "invention_cycle_pass",
    "io_schema_pass",
    "overall_strategy",
    "parallel_pass",
    "parallel_to_dot",
    "program_cones",
    "program_graphs",
    "render_graphs_text",
    "render_impact_text",
    "render_parallel_text",
    "replay_insert",
    "rule_effects",
    "stage_graph",
    "typecheck_pass",
    "unused_pass",
    "validate_certificate",
]
