"""The eight-function expression descent the precedence table replaced,
kept as an oracle.

:class:`ReferenceParser` is ``repro.lang.parser.Parser`` with its
formula entry point routed through the old recursive descent, one
function per precedence level.  Every other rule (declarations,
statements, postfix selections, primaries) is inherited, and those
call ``self.parse_formula()``, so a program parsed by this class uses
the old descent at every nesting depth.
``test_parser_differential.py`` requires both parsers to give the same
tree (``repr``, spans included) or the same error (type, message and
span).
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, _shown, text_digest


class ReferenceParser(Parser):
    def parse_formula(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_disjunction()
        while self._at_op("||"):
            span = self._advance().span
            right = self._parse_disjunction()
            left = ast.Binary("||", left, right, span=span)
        return left

    def _parse_disjunction(self) -> ast.Expr:
        left = self._parse_and()
        while self._at_op("|") or self._at_op("#"):
            op = self._advance()
            right = self._parse_and()
            left = ast.PatOr(left, right, disjoint=op.text == "|", span=op.span)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._at_op("&&"):
            span = self._advance().span
            right = self._parse_not()
            left = ast.Binary("&&", left, right, span=span)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._at_op("!"):
            span = self._advance().span
            return ast.Not(self._parse_not(), span=span)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_as_where()
        if self._at_op("=", "!=", "<", "<=", ">", ">="):
            op = self._advance()
            right = self._parse_as_where()
            return ast.Binary(op.text, left, right, span=op.span)
        return left

    def _parse_as_where(self) -> ast.Expr:
        expr = self._parse_additive()
        while True:
            if self._at_keyword("as"):
                span = self._advance().span
                right = self._parse_additive()
                expr = ast.PatAnd(expr, right, span=span)
            elif self._at_keyword("where"):
                span = self._advance().span
                if self._at_op("("):
                    self._advance()
                    condition = self.parse_formula()
                    self._expect_op(")")
                else:
                    condition = self._parse_comparison()
                expr = ast.Where(expr, condition, span=span)
            else:
                return expr

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._at_op("+", "-"):
            op = self._advance()
            right = self._parse_multiplicative()
            left = ast.Binary(op.text, left, right, span=op.span)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_prefix()
        while self._at_op("*", "/", "%"):
            op = self._advance()
            right = self._parse_prefix()
            left = ast.Binary(op.text, left, right, span=op.span)
        return left


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """``repro.lang.parser.parse_program`` through the old descent."""
    return ReferenceParser(tokenize(source, filename), filename).parse_program(
        text_digest(source, filename)
    )


def parse_formula(source: str, type_names: set[str] | None = None) -> ast.Expr:
    """``repro.lang.parser.parse_formula`` through the old descent."""
    parser = ReferenceParser(tokenize(source), "<formula>")
    if type_names:
        parser.type_names |= type_names
    expr = parser.parse_formula()
    tok = parser._peek()
    if not tok.is_eof:
        raise ParseError(f"unexpected trailing input {_shown(tok)}", tok.span)
    return expr
