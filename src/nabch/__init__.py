"""Exact Baker-Campbell-Hausdorff series in the free non-associative algebra.

Monomials are binary trees over {x, y}; series are sparse maps to exact
rationals with an explicit truncation degree.  The package constructs
log_l(exp_l(x) exp_l(y)) in the raw monomial basis, in the
Shestakov-Umirbaev primitive-operation basis (two independent routes), and
coefficient-by-coefficient through cuts, with the supporting Hopf-algebra,
Magnus-expansion and Bernoulli-tree machinery.
"""

from .magma import (
    GENERATORS,
    Monomial,
    ParseError,
    compare,
    enumerate_monomials,
    format_monomial,
    leaf,
    left_normed_power,
    monomial_from_json,
    monomial_to_json,
    node,
    parse,
)
from .series import (
    AssocSeries,
    Series,
    TruncationMismatchWarning,
    b_tau,
    bernoulli,
    dynkin_bch,
    exp_l,
    exp_r,
    log_l,
    log_l_series,
    project_associative,
    series_from_json,
    series_json_text,
    series_to_json,
    substitute,
    tau_factorial,
)
from .hopf import (
    TensorSeries,
    coproduct,
    counit,
    is_grouplike,
    is_primitive,
    left_divide,
    right_divide,
)
from .suops import (
    Commutator,
    Gen,
    Phi,
    PrimCombo,
    PrimExpr,
    SUBracket,
    associator,
    eval_prim,
    expr_to_latex,
    expr_to_text,
    p_series,
    parse_prim_expr,
    phi,
    su_bracket,
    su_bracket_expr,
)
from .dsw import (
    DEGREE,
    apply,
    bracketize_word,
    dsw_identity_check,
    gamma,
    y_partial_x,
)
from .magnus import (
    bch_first_order,
    bch_first_order_combo,
    bch_monomial,
    bch_ode,
    compositions,
    m_coeff,
    n_coeff,
    p_nested_expr,
    tau_apply,
    tau_components,
    tau_exp_l,
    tau_inverse,
)
from .trees import fuchs_level_sum, bernoulli_weights, nj_tree_sum, pi_level, woon_level_sum
from .cuts import (
    Cut,
    bch_series,
    c_tau,
    closed_form_xmyn,
    coefficient_via_cuts,
    enumerate_bch_cuts,
    enumerate_cuts,
    xiyj_shape,
    xmyn_monomial,
)

__version__ = "0.1.0"
