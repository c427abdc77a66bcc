
import operator
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubemass import expr, metric
from cubemass.errors import DomainError, ExpressionSyntaxError, UnknownIdentifier

from _oracles import random_polynomial, richardson_gradient, richardson_hessian


def jet(source, p):
    return expr.eval_jet2(expr.parse(source), np.asarray(p, dtype=float))


# ---------------------------------------------------------------------------
# pinned examples
# ---------------------------------------------------------------------------

def test_linear_polynomial():
    j = jet("x + 2*y", (1.0, 1.0, 0.0))
    assert j.value == pytest.approx(3.0, abs=1e-15)
    assert np.allclose(j.gradient, [1.0, 2.0, 0.0], atol=1e-15)
    assert np.allclose(j.hessian, 0.0, atol=1e-15)


def test_inverse_radius():
    j = jet("1/r", (0.0, 0.0, 2.0))
    assert j.value == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(j.gradient, [0.0, 0.0, -0.25], atol=1e-15)


def test_radius_unit_gradient():
    j = jet("r", (3.0, 4.0, 0.0))
    assert j.value == pytest.approx(5.0)
    assert np.allclose(j.gradient, [0.6, 0.8, 0.0], atol=1e-15)


def test_monomial_hessian_entries():
    j = jet("x^2*y", (1.0, 2.0, 3.0))
    assert j.hessian[0, 0] == pytest.approx(4.0, abs=1e-14)
    assert j.hessian[0, 1] == pytest.approx(2.0, abs=1e-14)


def test_conformal_factor_against_finite_differences():
    # value/gradient/Hessian of the printed expression vs central differences
    src = "(1 + 0.5/r)^4"
    p = np.array([2.0, 0.0, 0.0])
    node = expr.parse(expr.to_source(expr.parse(src)))

    def f(q):
        return float(expr.eval_jet2(node, q).value)

    j = expr.eval_jet2(node, p)
    g = richardson_gradient(f, p, 1e-3)
    h = richardson_hessian(f, p, 1e-3)
    assert np.allclose(j.gradient, g, rtol=1e-6, atol=1e-10)
    assert np.allclose(j.hessian, h, rtol=1e-6, atol=1e-8)


def test_smooth_composite_against_richardson():
    node = expr.parse("exp(-r)*sin(x)")
    p = np.array([0.7, -0.3, 1.1])

    def f(q):
        return float(expr.eval_jet2(node, q).value)

    j = expr.eval_jet2(node, p)
    g = richardson_gradient(f, p, 1e-3)
    h = richardson_hessian(f, p, 1e-3)
    assert np.allclose(j.gradient, g, rtol=1e-8, atol=1e-12)
    assert np.allclose(j.hessian, h, rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_random_polynomials_match_symbolic_differentiation():
    rng = np.random.default_rng(20240901)
    for _ in range(500):
        poly = random_polynomial(rng)
        node = expr.parse(poly.to_source())
        p = rng.uniform(-2.0, 2.0, size=3)
        j = expr.eval_jet2(node, p)
        scale = sum(abs(c) for c in poly.coeffs.values()) * 16.0 + 1.0
        assert abs(float(j.value) - poly.eval(p)) <= 1e-12 * scale
        for a in range(3):
            da = poly.diff(a)
            assert abs(j.gradient[a] - da.eval(p)) <= 1e-12 * scale * 4
            for b in range(3):
                dab = da.diff(b)
                assert abs(j.hessian[a, b] - dab.eval(p)) <= 1e-12 * scale * 16


SMOOTH_SOURCES = [
    "sin(x)*cos(y) + z^2",
    "exp(-r)*atan(x*y)",
    "sqrt(1 + x^2 + y^2 + z^2)",
    "log(2 + sin(z)) * (x - y)",
    "(1 + 1/r)^2 / (3 + cos(x))",
    "r^(-1.5) + x*y*z",
]


@pytest.mark.parametrize("src", SMOOTH_SOURCES)
def test_gradient_and_hessian_match_central_differences(src):
    node = expr.parse(src)
    rng = np.random.default_rng(hash(src) % 2 ** 32)
    for _ in range(5):
        p = rng.uniform(0.5, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        if src.startswith("r^") or "1/r" in src or "exp(-r)" in src:
            p = p + np.sign(p) * 0.5  # keep clear of the origin
        h = 1e-5 * max(1.0, float(np.linalg.norm(p)))

        def f(q):
            return float(expr.eval_jet2(node, q).value)

        from _oracles import fd_gradient, fd_hessian
        j = expr.eval_jet2(node, p)
        g_ref = fd_gradient(f, p, h)
        h_ref = fd_hessian(f, p, h)
        gscale = np.max(np.abs(g_ref)) + 1.0
        hscale = np.max(np.abs(h_ref)) + 1.0
        assert np.allclose(j.gradient, g_ref, atol=1e-5 * gscale)
        assert np.allclose(j.hessian, h_ref, atol=1e-4 * hscale)


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(7)
    node = expr.parse("sin(x*y)*exp(z)/(1 + r^2) + atan(x/r)")
    pts = rng.uniform(0.5, 3.0, size=(40, 3))
    j = expr.eval_jet2(node, pts)
    assert np.array_equal(j.hessian, np.swapaxes(j.hessian, -1, -2))


def test_batched_evaluation_matches_pointwise():
    node = expr.parse("exp(-r)*sin(x) + y^3/(1 + z^2)")
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.5, 2.0, size=(17, 3))
    batch = expr.eval_jet2(node, pts)
    for i in range(len(pts)):
        single = expr.eval_jet2(node, pts[i])
        assert np.allclose(batch.value[i], single.value, rtol=0, atol=0)
        assert np.array_equal(batch.gradient[i], single.gradient)
        assert np.array_equal(batch.hessian[i], single.hessian)


# ---------------------------------------------------------------------------
# round trip and fuzz
# ---------------------------------------------------------------------------

def _ast_strategy():
    leaves = st.one_of(
        st.sampled_from([expr.Var(n) for n in expr.VARIABLES]),
        st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(
            lambda v: expr.Num(round(v, 3))),
    )

    def extend(children):
        return st.one_of(
            children.map(expr.Neg),
            st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children).map(
                lambda t: expr.BinOp(t[0], t[1], t[2])),
            st.tuples(children, st.sampled_from([2.0, 3.0, 0.5, -1.0])).map(
                lambda t: expr.BinOp("^", t[0], expr.Num(t[1]))),
            st.tuples(st.sampled_from(list(expr.FUNCTIONS)), children).map(
                lambda t: expr.Call(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


FUZZ_POINTS = np.array([[0.7, 1.3, 2.1], [1.9, 0.4, 0.8]])


def _bits(j):
    return [np.asarray(a).tobytes() for a in (j.value, j.gradient, j.hessian)]


def _outcome(evaluate):
    """Bits of the jets, or the DomainError message.

    Random trees such as exp(exp(9)) overflow to inf or nan, which both
    sides must reproduce bit for bit, so numpy warnings are silenced.
    """
    with np.errstate(all="ignore"):
        try:
            return [_bits(j) for j in evaluate()]
        except DomainError as err:
            return str(err)


@given(_ast_strategy())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip_evaluates_identically(node):
    reparsed = expr.parse(expr.to_source(node))
    a = _outcome(lambda: [expr.eval_jet2(node, FUZZ_POINTS)])
    if isinstance(a, str):
        return  # same domain failure must occur for the reparsed tree
    assert _outcome(lambda: [expr.eval_jet2(reparsed, FUZZ_POINTS)]) == a


# ---------------------------------------------------------------------------
# compiled programs
# ---------------------------------------------------------------------------

def _tree_walk(e, pts):
    """Recursive evaluation of one tree, the reference for JetProgram."""
    if isinstance(e, expr.Num):
        return expr.jet_constant(e.value, pts.shape[:-1])
    if isinstance(e, expr.Var):
        if e.name == "r":
            return expr.radius_jet(pts)
        return expr.coordinate_jet(pts, "xyz".index(e.name))
    if isinstance(e, expr.Neg):
        return -_tree_walk(e.operand, pts)
    if isinstance(e, expr.Call):
        return getattr(expr, f"jet_{e.func}")(_tree_walk(e.arg, pts))
    left = _tree_walk(e.left, pts)
    if e.op == "^":
        lit = expr._literal_value(e.right)
        if lit is not None:
            return left ** lit
        return expr.jet_pow(left, _tree_walk(e.right, pts))
    right = _tree_walk(e.right, pts)
    return {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv}[e.op](left, right)


@given(_ast_strategy())
@settings(max_examples=150, deadline=None)
def test_program_equals_the_tree_walk(node):
    walked = _outcome(lambda: [_tree_walk(node, FUZZ_POINTS)])
    compiled = _outcome(lambda: expr.JetProgram([node])(FUZZ_POINTS))
    if isinstance(walked, str):
        # the program also names the failing subexpression
        assert isinstance(compiled, str) and compiled.startswith(walked + " in '")
    else:
        assert compiled == walked


@given(st.lists(_ast_strategy(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_program_over_several_roots_equals_each_root_alone(roots):
    alone = [_outcome(lambda: expr.JetProgram([e])(FUZZ_POINTS)) for e in roots]
    together = _outcome(lambda: expr.JetProgram(roots)(FUZZ_POINTS))
    failures = [o for o in alone if isinstance(o, str)]
    if failures:
        assert together == failures[0]
    else:
        assert together == [o[0] for o in alone]


def test_first_failing_subtree_names_the_error():
    # x - 100 is shared: log fails first, as in a left-to-right tree walk
    with pytest.raises(DomainError) as err:
        jet("log(x - 100) + sqrt(x - 100)", (50.0, 0.0, 0.0))
    assert str(err.value) == "log of a non-positive value in 'log(x - 100.0)'"


def test_equal_subtrees_compile_once():
    # r, r^-0.75, x, r^-0.75*x, y, r^-0.75*y
    program = expr.JetProgram([expr.parse("r^-0.75*x"), expr.parse("r^(-0.75)*y")])
    assert len(program) == 6


def test_signed_zero_literals_are_not_merged():
    # Num(0.0) == Num(-0.0) as dataclasses; the program keys literals by bits
    program = expr.JetProgram([expr.Num(0.0), expr.Num(-0.0)])
    zero, negative_zero = program(FUZZ_POINTS)
    assert len(program) == 2
    assert not np.signbit(zero.value).any()
    assert np.signbit(negative_zero.value).all()


def test_intermediate_jets_are_dropped_after_their_last_use(monkeypatch):
    refs, alive_at_sin = [], []

    def radius(pts):
        jet = expr.jet_constant(1.5, pts.shape[:-1])
        refs.append(weakref.ref(jet))
        return jet

    def sin(u):
        alive_at_sin.append(refs[0]() is not None)
        return expr.jet_sin(u)

    monkeypatch.setattr(expr, "radius_jet", radius)
    monkeypatch.setitem(expr._FUNCTION_JETS, "sin", sin)
    root, = expr.JetProgram([expr.parse("sin(exp(r))")])(FUZZ_POINTS)
    # r's only consumer is exp, so r is gone by the time sin runs
    assert alive_at_sin == [False]
    assert np.array_equal(root.value, np.sin(np.exp(np.full(2, 1.5))))


@pytest.mark.parametrize("build", [lambda: metric.pullback_model(0.75),
                                   metric.composed_model],
                         ids=["pullback", "composed"])
def test_metric_jet_runs_the_compiled_program(monkeypatch, build):
    radius_calls, derivative_calls = [], []
    real_radius, real_derivative = expr.radius_jet, expr.derivative

    def counting_derivative(e, axis):
        derivative_calls.append(axis)
        return real_derivative(e, axis)

    monkeypatch.setattr(expr, "derivative", counting_derivative)
    model = build()
    assert derivative_calls  # the Jacobian is differentiated at construction
    derivative_calls.clear()
    monkeypatch.setattr(expr, "radius_jet",
                        lambda pts: radius_calls.append(1) or real_radius(pts))
    metric.metric_jet(model, np.random.default_rng(5).uniform(10.0, 50.0, (64, 3)))
    assert len(radius_calls) == 1
    assert derivative_calls == []


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parse_is_total(source):
    try:
        expr.parse(source)
    except (ExpressionSyntaxError, UnknownIdentifier):
        pass


@given(st.text(alphabet="xyzr0123456789.+-*/^()sincoelgqta ", max_size=30))
@settings(max_examples=300, deadline=None)
def test_parse_is_total_on_grammar_alphabet(source):
    try:
        expr.parse(source)
    except (ExpressionSyntaxError, UnknownIdentifier):
        pass


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def test_syntax_error_reports_offset_and_expectations():
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse("x + * y")
    assert err.value.offset == 4
    assert any("number" in e for e in err.value.expected)


def test_unclosed_paren():
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse("sin(x")
    assert err.value.offset == 5
    assert "')'" in err.value.expected


def test_unknown_variable_and_function():
    with pytest.raises(UnknownIdentifier):
        expr.parse("x + w")
    with pytest.raises(UnknownIdentifier):
        expr.parse("tan(x)")


def test_empty_source_rejected():
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("   ")


def test_domain_errors_name_the_subexpression():
    with pytest.raises(DomainError) as err:
        jet("log(-x)", (1.0, 0.0, 0.0))
    assert "log" in str(err.value)
    with pytest.raises(DomainError) as err:
        jet("1/(x - 1)", (1.0, 2.0, 3.0))
    assert "division by zero" in str(err.value)
    with pytest.raises(DomainError):
        jet("(0*x)^-1", (1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        jet("(-2 + 0*x)^0.5", (1.0, 1.0, 1.0))


def test_power_grammar_binds_like_the_ebnf():
    # factor := unary ('^' factor)?  so -x^2 is (-x)^2 and 2^3^2 is 2^(3^2)
    assert float(jet("-2 + 0*x", (0, 0, 0)).value) == -2.0
    assert float(jet("-x^2", (3.0, 0.0, 0.0)).value) == 9.0
    assert float(jet("2^3^2 + 0*x", (0, 0, 0)).value) == pytest.approx(512.0, rel=1e-12)
    assert float(jet("2^-2 + 0*x", (0, 0, 0)).value) == 0.25


def test_integer_power_of_negative_base_is_real():
    j = jet("(x - 3)^3", (1.0, 0.0, 0.0))
    assert float(j.value) == -8.0
    assert j.gradient[0] == pytest.approx(12.0)


def test_non_integer_tau_power():
    j = jet("r^(-0.75)", (2.0, 0.0, 0.0))
    assert float(j.value) == pytest.approx(2.0 ** -0.75)


# ---------------------------------------------------------------------------
# symbolic derivative helper
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src", SMOOTH_SOURCES + ["r^(-0.75)*x", "x*y/r^2"])
def test_symbolic_derivative_matches_jet_gradient(src):
    node = expr.parse(src)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.6, 2.5, size=(25, 3))
    base = expr.eval_jet2(node, pts)
    for axis in range(3):
        d = expr.derivative(node, axis)
        dval = expr.eval_jet2(d, pts)
        scale = np.max(np.abs(base.gradient[:, axis])) + 1.0
        assert np.allclose(dval.value, base.gradient[:, axis], atol=1e-12 * scale)
        # gradient of the derivative equals the Hessian row
        assert np.allclose(dval.gradient, base.hessian[:, axis, :],
                           rtol=1e-9, atol=1e-11 * scale)
