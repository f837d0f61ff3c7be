"""Verification toolkit for primitive pairs of rational functions over
finite fields with prescribed traces.

Core layers:

- :mod:`primpair.ntheory` — factorization, primes, squarefree structure.
- :mod:`primpair.bounds` — exact-rational sufficient condition and sieve.
- :mod:`primpair.ffield` — GF(q^m) arithmetic, traces, primitivity.
- :mod:`primpair.ratfunc` — rational functions in canonical form.
- :mod:`primpair.charsum` — character-sum laboratory on small fields.
- :mod:`primpair.survey` — candidate classification and published-list diffs.
- :mod:`primpair.cli` — command-line frontend.
"""

from .bounds import (
    BoundReport,
    SieveReport,
    Table1Row,
    Verdict,
    absorbed_window_constants,
    check_thm31,
    check_thm34,
    find_sieve_params,
    lemma35_constants,
    table1_row,
    window_threshold,
)
from .errors import PrimpairError
from .ffield import FieldCtx, FieldElement, make_field
from .ntheory import (
    FactorCache,
    FactorEffort,
    Factorization,
    factor_prime_power_order,
    factorize,
    is_prime,
)
from .ratfunc import (
    POLE,
    Poly,
    RationalFunction,
    eval_rational,
    sample_rational,
)
from .survey import (
    SurveyRecord,
    SurveyStatus,
    classify,
    first_witnesses,
    reproduce_appendix,
    survey_range,
    verify_membership_sample,
    witness_search,
)

__version__ = "1.0.0"

__all__ = [
    "BoundReport", "SieveReport", "Table1Row", "Verdict",
    "absorbed_window_constants", "check_thm31", "check_thm34",
    "find_sieve_params", "lemma35_constants", "table1_row",
    "window_threshold",
    "PrimpairError",
    "FieldCtx", "FieldElement", "make_field",
    "FactorCache", "FactorEffort", "Factorization",
    "factor_prime_power_order", "factorize", "is_prime",
    "POLE", "Poly", "RationalFunction", "eval_rational", "sample_rational",
    "SurveyRecord", "SurveyStatus", "classify", "first_witnesses",
    "reproduce_appendix",
    "survey_range", "verify_membership_sample", "witness_search",
    "__version__",
]
