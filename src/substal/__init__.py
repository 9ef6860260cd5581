"""substal: a workbench for finite substitution algebras.

Boolean algebras with substitution operators indexed by transformations of
a finite coordinate set — replacements only, transpositions only, the full
transformation monoid, or full with diagonal constants.  The package
decides the attached modal logic, builds and verifies ultrafilter
representations, checks the finite axiom systems, and reproduces the
standard finite counterexamples.
"""

__version__ = "0.1.0"

from .monoid import (
    MODES,
    NotGenerated,
    Transformation,
    apply_point,
    canonical_word,
    compose,
    enumerate_monoid,
    generators,
    hat,
    identity,
    normalize_mode,
    parse_word,
    partitions,
    repl,
    swap,
    word_equiv,
)
from .terms import (
    Equation,
    ParseError,
    QuasiEquation,
    equation_holds_exhaustive,
    eval_term,
    format_equation,
    format_term,
    parse,
    parse_equation,
    quasi_axioms,
    sigma_axioms,
)
from .setalg import (
    ComplexAlgebra,
    ConcreteAlgebra,
    NotLocallySquare,
    Square,
    Subalgebra,
    algebra_from_json,
    algebra_to_json,
    generate_subalgebra,
    make_relativized,
    point_coords,
    point_index,
    small_algebra,
)
from .frames import (
    Frame,
    atom_frame,
    disjoint_union,
    frame_check,
    frame_from_json,
    frame_to_json,
    insep_zigzag,
    point_frame,
    random_coherent_frame,
    superamalgam,
)
from .logic import BDD, Model, model_check, satisfiable, unfold, valid
from .represent import (
    RepMap,
    SubMonoidCtx,
    canonical_extension,
    check_psi,
    check_quasi,
    complete_representation,
    diag_represent,
    full_representation,
    represent_at,
)
from .gallery import (
    TruncationSpec,
    alternating_coloring,
    counter2_truncation,
    not_a_variety_witness,
    product_identities,
)
