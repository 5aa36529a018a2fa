"""Clone-robust weighting over finite pseudo-metric spaces.

Weights a finite set of elements so that near-duplicates split one
element's influence instead of multiplying it.  The construction sweeps a
neighbourhood-graph filtration: for each radius r up to a disambiguation
factor alpha, elements within r of each other are linked, a graph rule
distributes unit mass over the vertices, and the per-radius weights are
integrated against a density on [0, alpha].  Everything downstream --
sharing coefficients, axiom audits, duplication-attack simulation -- builds
on that sweep.
"""

from .caps import Caps, CapExceeded, default_caps, load_caps
from .metric import (
    MetricError,
    MetricInstance,
    add_clone,
    load_instance,
    random_instance,
)
from .filtration import (
    Filtration,
    Graph,
    automorphisms,
    equivalence_classes,
    forbidden_intervals,
    isometry_orbits,
    merge_intervals,
    neighborhood_graph,
    orbits,
    quotient,
    threshold_radii,
)
from .rules import (
    CliqueCover,
    WeightVector,
    class_entropy,
    clique_partitions,
    graph_entropy,
    graph_entropy_certificate,
    lift_quotient,
    maximal_cliques,
    parse_rule,
    registry_names,
    rule_is_rational,
    smooth,
    w_cu,
    w_degree,
    w_entropy,
    w_mcca,
    w_mccp,
    w_uniform,
)
from .weighting import (
    Density,
    MetricWeighting,
    evaluate,
    evaluate_all,
    riemann_oracle,
    sample_labels,
)
from .sharing import (
    AxiomReport,
    InconsistentRescaling,
    RescaleReport,
    SharingRow,
    audit_axioms,
    chi_graph,
    eta,
    private_graph,
    sharing_row,
    sharing_rows,
)
from .euclid import (
    DominanceReport,
    Estimate,
    RemovalReport,
    SharingMatrix,
    chi_fnu,
    chi_gr,
    dominance_check,
    f_nu,
    g_r,
    intersection_volume_1d,
    private_volume_1d,
    removal_effect_gr,
    sharing_matrix,
    union_volume,
)
from .audit import (
    AttackReport,
    ConjectureReport,
    Def31Report,
    DemoTrace,
    GraphSuiteReport,
    Violation,
    add_vertex_clone,
    attack,
    conjecture_search,
    paw_graph,
    planted_asymmetry_rule,
    random_graph,
    run_def31_suite,
    run_graph_suite,
    spider_graph,
    strict_locality_demo,
)

__version__ = "0.1.0"
