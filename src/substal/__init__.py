"""substal: a workbench for finite substitution algebras.

Boolean algebras with substitution operators indexed by transformations of
a finite coordinate set — replacements only, transpositions only, the full
transformation monoid, or full with diagonal constants.  The package
decides the attached modal logic, builds and verifies ultrafilter
representations, checks the finite axiom systems, and reproduces the
standard finite counterexamples.

The exports are loaded on first use (PEP 562): ``substal.parse`` imports
``substal.terms``, and ``import substal`` alone imports no submodule.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "monoid": """MODES NotGenerated apply_point canonical_word
        compose enumerate_monoid generators hat identity normalize_mode
        parse_word partitions point_index repl swap word_equiv""",
    "terms": """Equation ParseError equation_holds_exhaustive eval_term
        format_equation format_term parse parse_equation sigma_axioms""",
    "setalg": """ComplexAlgebra ConcreteAlgebra NotLocallySquare Square
        Subalgebra alternating_coloring algebra_from_json algebra_to_json
        generate_subalgebra make_relativized point_coords small_algebra""",
    "frames": """Frame atom_frame disjoint_union frame_check frame_from_json
        frame_to_json insep_zigzag point_frame random_coherent_frame
        superamalgam""",
    "logic": "BDD satisfiable unfold valid",
    "represent": """RepMap SubMonoidCtx canonical_extension check_psi
        check_quasi complete_representation diag_represent
        full_representation represent_at""",
    "gallery": """TruncationSpec counter2_truncation not_a_variety_witness
        product_identities""",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from importlib import import_module
    return getattr(import_module("." + module, __name__), name)
