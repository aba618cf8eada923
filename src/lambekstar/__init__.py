"""Workbench for the Lambek calculus with iteration.

Sequent provers (focused and general, with independent certificate
checking), context-free grammar tooling, two grammar-to-type compilers, a
join/type-synthesis engine, Kleene-star elimination by approximation and by
instance expansion, and the reduction harnesses tying them together.
"""

from .formula import (
    Atom, Unit, Under, Over, Prod, Star, Plus, Or, And,
    Formula, GroupWord, Sequent, Derivation,
    LambekError, ParseError, FragmentError, BudgetError, CertificateError,
    parse_formula, render_formula, parse_sequent, render_sequent,
    render_derivation,
    fg_interp, sequence_image, zero_balanced, division_pure,
    curried_division, split_curried, type_raise, sentinel, atoms_of,
    VarSupply,
)
from .prover import (
    DEFAULT_BUDGET, ProofResult, ProverSession,
    prove, naive_prove, normalize_plus,
    check_derivation, kernel_backend,
    ProofRecorder, enable_recording, disable_recording,
)
from .cfg import (
    Grammar, GnfCfg, GrammarError, EmptyWordError,
    parse_cfg, render_cfg, cyk_member,
    to_gnf2, total_plus_to_alt2,
)
from .joins import (
    JoinProblem, JoinCertificate, JoinPreconditionError, JoinSynthesisError,
    join, eliminate_product, optionalize,
)
from .compiler import (
    CompiledGrammar, LambekGrammar, UnusedTerminalError,
    compile_unique, compile_gaifman, accepts,
)
from .stars import (
    ApproximationOutcome, InstanceOutcome, InstanceMembershipError,
    approximate, check_approximations, is_star_external,
    instances, check_instances, instance_soundness, derive_identity,
)
from .reductions import (
    RefutationWitness, EquivalenceReport, ProbeReport,
    alt2_sequent, refute_alt2, equivalence_harness,
    vee_elimination_chain, conjecture_probe,
)

__version__ = "0.1.0"
