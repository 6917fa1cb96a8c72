"""bolforge: a workbench for finite loops given by Cayley tables.

Parses and validates multiplication tables, decides the classical loop
identities (Bol, Moufang, inverse and alternative properties,
power-associativity), computes commutant / center / Bol-element sets
and generated subloops, verifies a registry of structural claims about
commutants over loop corpora, and exhaustively enumerates small-order
loops up to isomorphism with targeted counterexample hunts.
"""

from .catalog import cyclic, direct_product, frobenius_21, klein_four, symmetric_3
from .claims import (
    CLAIM_IDS,
    ClaimVerdict,
    CorpusReport,
    check_all,
    check_corollary,
    check_glauberman_parity,
    check_lemma1,
    check_lemma2,
    check_remark1_extension,
    check_remark2_extension,
    check_theorem1,
    read_manifest,
    run_corpus,
)
from .errors import (
    EvenOrder,
    IndexOutOfRange,
    InvalidSearchSpec,
    LoopError,
    MalformedInput,
    ManifestNotFound,
    MultipleSquareRoots,
    NoIdentity,
    NotAGroup,
    NotASubloop,
    NotLatinSquare,
    NoTwoSidedInverse,
    OrderTooLargeForExact,
    PostConstructionCheckFailed,
    SearchSelfCheckError,
)
from .props import (
    PropertyReport,
    Verdict,
    bol_elements,
    center,
    commutant,
    generated_subloop,
    has_lap,
    has_lip,
    has_two_sided_inverses,
    is_associative,
    is_left_bol,
    is_moufang,
    is_normal,
    is_power_associative,
    is_right_bol,
    is_subloop,
    is_twisted_closed,
    is_uniquely_2_divisible,
    property_report,
    square_root,
    square_roots,
)
from .search import (
    SearchResult,
    SearchSpec,
    SearchStats,
    SearchWitness,
    canonical_form,
    construct_bruck_from_group,
    enumerate_loops,
    find_first,
)
from .table import LoopTable, parse_loop

__version__ = "0.1.0"
