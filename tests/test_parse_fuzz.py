"""Fuzz tests of the three parsers: any text either parses or raises one of
the documented input errors, all of which the CLI turns into exit 2."""

import re

from hypothesis import given, settings, strategies as st

from liefields import algfile, expr as E, fields as F

INPUT_ERRORS = (E.ParseError, F.FieldError, algfile.AlgebraFileError)


def _grammar_text(children):
    """Text that follows the expression grammar, given texts that do."""
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", " * ", " - "]), children)
        .map("".join),
        children.map(lambda s: f"({s})"),
        st.tuples(st.sampled_from(["log", "exp", "atan", "sqrt"]), children)
        .map(lambda fs: f"{fs[0]}({fs[1]})"),
        st.tuples(children, st.sampled_from(["2", "3", "-1", "-2", "0", "9"]))
        .map(lambda sk: f"({sk[0]})^{sk[1]}"),
    )


grammatical = st.recursive(
    st.sampled_from(["x", "y", "c", "p", "q", "r", "d1", "d2", "2", "1/2", "0", "-x"]),
    _grammar_text, max_leaves=6)


def _mutate(pair):
    """text with one character put in, or taken out, at a position."""
    text, (pos, ch) = pair
    pos %= len(text) + 1
    return text[:pos] + ch + text[pos:] if ch else text[:pos] + text[pos + 1:]


TOKENS = ["x", "y", "c", "p", "q", "d1", "d2", "log", "exp", "atan", "sqrt", "w",
          "0", "1", "2", "7", "1/2", "3/0", "+", "-", "*", "/", "^", "^2", "^-1", "^9",
          "(", ")", " ", "_", ".", "#", "é"]


def _small_powers(text: str) -> bool:
    """Every exponent one digit and at most two carets, so that no case
    expands a huge power."""
    return text.count("^") <= 2 and not re.search(r"\^\s*-?\d\d", text)


texts = st.one_of(
    grammatical,
    st.tuples(grammatical, st.tuples(st.integers(0, 40), st.sampled_from(list("()^*+-/x1 ") + [""])))
    .map(_mutate),
    st.lists(st.sampled_from(TOKENS), max_size=14).map("".join),
).filter(_small_powers)

var_lines = st.sampled_from(["x y", "x y z", "x", "x y z w", "", "x x", "x p", "log y"])
param_lines = st.sampled_from(["c", "c c", "x", ""])
linear_fields = st.lists(st.tuples(grammatical, st.sampled_from(["p", "q", "r", "d1", "d2"])),
                         min_size=1, max_size=3).map(
    lambda terms: " + ".join(f"({c})*{token}" for c, token in terms))
lines = st.one_of(
    st.tuples(st.just("field"), linear_fields),
    st.tuples(st.just("field"), linear_fields),
    st.tuples(st.just("params"), param_lines),
    st.tuples(st.sampled_from(["field", "invariant", "invariant[s=0]", "invariant[s=2]",
                               "bogus", ""]), texts),
    st.tuples(st.just("expect"), st.sampled_from(["transitive=true", "count=1", "x"])),
    st.tuples(st.just("vars"), var_lines),
)


@given(texts)
@settings(max_examples=300, deadline=None)
def test_parse_expression_raises_only_parse_error(text):
    try:
        E.parse_expression(text, ["x", "y"], ["c"])
    except E.ParseError:
        pass


@given(texts, st.sampled_from([("x", "y"), ("x", "y", "z"), ("x",), ("x", "x")]),
       st.sampled_from([(), ("c",), ("x",)]))
@settings(max_examples=300, deadline=None)
def test_parse_field_raises_only_input_errors(text, vars, params):
    try:
        F.parse_field(text, vars, params)
    except INPUT_ERRORS:
        pass


@given(st.one_of(st.none(), var_lines), st.lists(lines, max_size=5))
@settings(max_examples=300, deadline=None)
def test_algebra_file_presentation_raises_only_input_errors(vars, body):
    head = "" if vars is None else f"vars: {vars}\n"
    text = head + "".join(f"{key}: {value}\n" if key else f"{value}\n" for key, value in body)
    try:
        algfile.parse_algebra_file(text).presentation()
    except INPUT_ERRORS:
        pass
