"""flagsym: exact-arithmetic symmetry-index engine for generalized flag manifolds."""

from .rootsystem import (
    Diagram,
    InternalConsistencyError,
    Root,
    RootSystem,
    build_root_system,
    classify_connected,
    diagram_components,
    root_str,
)
from .chevalley import (
    ChevalleyTable,
    build_constants,
    convention_violations,
    sign_convention_check,
)
from .flag import (
    FlagData,
    KahlerParam,
    PaintedDiagram,
    kahler_param,
    make_flag,
    parse_painted,
    random_kahler_param,
    to_dot,
)
from .symmetry import (
    ClassificationError,
    LeafDescriptor,
    SymmetryReport,
    build_report,
    center_of_nilradical,
    diagrams_agree,
    h_prime,
    k_prime_check,
    leaf_pair,
    leaf_via_diagram,
    symmetry_roots,
)
from .oracle import (
    shortcut_set,
    shortcut_violations,
    transvection_set,
    transvection_violations,
)
from .cli import (
    EnumerationReport,
    chevalley_table,
    dim_g,
    enumerate_flags,
    main,
    onishchik_exception,
    simple_types,
    verify_theorem,
)

__version__ = "0.1.0"
