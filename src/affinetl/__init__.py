"""
Exact Temperley-Lieb algebras of classical type A and of the affine cycle
type, their Markov traces, and the resulting invariant of affine braid-word
closures.  Everything is exact: values live in the field Q(v) of rational
functions in v = sqrt(q), and the braid-to-trace pipeline runs over the
ring Z[v, 1/v] in the integral basis e = (1+q) f, where no gcd is needed.
"""

from .algebra import (
    TLElement,
    chi,
    element_from_json,
    element_to_json,
    format_element,
    from_g_word,
    gen,
    multiply,
    parse_element,
    psi,
    reduce_letters,
    to_g_basis,
)
from .coxeter import (
    DEFAULT_MAX_LEN,
    CoxeterGraph,
    affine,
    enumerate_fc,
    fc_check,
    fc_word,
    parse_word,
    path,
    reverse,
    rotate,
    word_text,
)
from .errors import (
    DivisionByZero,
    InexactDivision,
    InvalidGenerator,
    LengthLimitExceeded,
    NotFcWord,
    ParseError,
    RankMismatch,
    SingularSystem,
)
from .morphisms import (
    BraidWord,
    E_map,
    F_map,
    braid_image,
    braid_lift,
    include,
    parse_braid,
    widen,
)
from .scalars import DELTA, ONE, Q, V, ZERO, Scalar, format_scalar, parse_scalar
from .traces import (
    FREE_STRAND_FACTOR,
    TraceParamsTL2,
    TraceParamsTL3,
    build_xz,
    classify_orbit3,
    generic_trace2,
    generic_trace3,
    invariant,
    jones_trace,
    rho,
    solve_alpha_beta,
)

__version__ = "0.1.0"
