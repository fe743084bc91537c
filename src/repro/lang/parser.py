"""Parser for the JMatch 2.0 subset.

Declarations and statements are parsed by recursive descent; formulas
by one precedence-climbing loop (``Parser._parse_expr``) over the
``_BINARY`` table.  Binding levels, loosest to tightest (Section 3.3
and the paper's examples fix the relative order of the pattern
operators):

    1 ``||``   2 ``|`` ``#``   3 ``&&``   4 prefix ``!``   5 comparisons
    6 ``as`` / ``where``   7 ``+ -``   8 ``* / %``

and then unary ``-`` and postfix (calls, selections).  Comparisons do
not chain (``a < b < c`` is an error), and ``!`` binds looser than a
comparison (``!a = b`` is ``!(a = b)``) but cannot be an operand of
one.  ``where`` takes a parenthesised formula or a comparison.

With ``|``/``#`` parsed *above* ``&&``, Figure 4's
``zero() && n.zero() | succ(Nat y) && n.succ(y)`` groups as intended.
The other reading the paper requires -- ``x = 1 | 2`` meaning
``x = (1 | 2)`` -- is recovered after parsing:
:class:`repro.lang.check.Normalizer` (run by
:func:`repro.lang.check.analyze`) distributes the comparison over
value-pattern operands, which is semantically the same formula.
"""

from __future__ import annotations

import hashlib

from ..errors import NO_SPAN, ParseError, Span
from . import ast
from .lexer import tokenize
from .tokens import Token, TokenKind

_VISIBILITIES = ("public", "protected", "private")
_KEYWORD = TokenKind.KEYWORD
_OPERATOR = TokenKind.OPERATOR
_EOF = TokenKind.EOF
#: keywords that are literals
_LITERALS = {"true": True, "false": False, "null": None}

#: the binding level of each binary operator and of the ``as``/``where``
#: keywords, loosest first; prefix ``!`` binds at ``_NOT``
_BINARY = {
    "||": 1,
    "|": 2, "#": 2,
    "&&": 3,
    "=": 5, "!=": 5, "<": 5, "<=": 5, ">": 5, ">=": 5,
    "as": 6, "where": 6,
    "+": 7, "-": 7,
    "*": 8, "/": 8, "%": 8,
}
_DISJUNCTION = 2
_NOT = 4
_COMPARISON = 5
_TIGHTEST = 8


def _shown(tok: Token) -> str:
    """A token as a parse error names it: its quoted text, or end of input."""
    return "end of input" if tok.kind is _EOF else repr(tok.text)


class Parser:
    def __init__(self, tokens: list[Token], filename: str = "<input>"):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        #: class/interface names seen so far -- used to resolve whether
        #: ``Foo.bar(...)`` is a static qualifier or a receiver.
        self.type_names: set[str] = set()

    # -- token helpers --------------------------------------------------------

    # The token list always ends with EOF and ``pos`` never moves past
    # it, so the helpers index ``self.tokens[self.pos]`` directly.

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _at(self, kind: TokenKind, text: str | None = None) -> bool:
        return self.tokens[self.pos].matches(kind, text)

    def _at_keyword(self, *texts: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind is _KEYWORD and tok.text in texts

    def _at_op(self, *texts: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind is _OPERATOR and tok.text in texts

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokenKind, text: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if not tok.matches(kind, text):
            wanted = text or kind.value
            raise ParseError(f"expected {wanted!r}, found {_shown(tok)}", tok.span)
        return self._advance()

    def _expect_op(self, text: str) -> Token:
        return self._expect(TokenKind.OPERATOR, text)

    def _expect_keyword(self, text: str) -> Token:
        return self._expect(TokenKind.KEYWORD, text)

    def _expect_ident(self) -> Token:
        return self._expect(TokenKind.IDENT)

    def _accept_op(self, text: str) -> Token | None:
        if self._at_op(text):
            return self._advance()
        return None

    def _accept_keyword(self, text: str) -> Token | None:
        if self._at_keyword(text):
            return self._advance()
        return None

    # -- program structure ------------------------------------------------

    def parse_program(self, text_digest: str) -> ast.Program:
        # Pre-scan for type names so forward references resolve.
        self.type_names |= declared_type_names(self.tokens)
        decls: list = []
        while not self._peek().is_eof:
            decls.append(self._parse_declaration())
        return ast.Program(decls, text_digest)

    def _parse_declaration(self):
        abstract = bool(self._accept_keyword("abstract"))
        if self._at_keyword("interface"):
            return self._parse_interface()
        if self._at_keyword("class"):
            return self._parse_class(abstract)
        if self._at_keyword("static") or self._looks_like_type():
            return self._parse_function()
        tok = self._peek()
        raise ParseError(f"expected a declaration, found {_shown(tok)}", tok.span)

    def _parse_interface(self) -> ast.InterfaceDecl:
        span = self._expect_keyword("interface").span
        name = self._expect_ident().text
        self.type_names.add(name)
        extends: list[str] = []
        if self._accept_keyword("extends"):
            extends.append(self._expect_ident().text)
            while self._accept_op(","):
                extends.append(self._expect_ident().text)
        self._expect_op("{")
        invariants: list[ast.InvariantDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self._at_op("}"):
            visibility = self._parse_visibility(default="public")
            if self._at_keyword("invariant"):
                invariants.append(self._parse_invariant(visibility))
            else:
                method = self._parse_method(
                    visibility, class_name=name, in_interface=True
                )
                methods.append(method)
        self._expect_op("}")
        return ast.InterfaceDecl(name, extends, invariants, methods, span=span)

    def _parse_class(self, abstract: bool) -> ast.ClassDecl:
        span = self._expect_keyword("class").span
        name = self._expect_ident().text
        self.type_names.add(name)
        superclass: str | None = None
        interfaces: list[str] = []
        if self._accept_keyword("extends"):
            superclass = self._expect_ident().text
        if self._accept_keyword("implements"):
            interfaces.append(self._expect_ident().text)
            while self._accept_op(","):
                interfaces.append(self._expect_ident().text)
        self._expect_op("{")
        fields: list[ast.FieldDecl] = []
        invariants: list[ast.InvariantDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self._at_op("}"):
            visibility = self._parse_visibility(default="public")
            if self._at_keyword("invariant"):
                invariants.append(self._parse_invariant(visibility))
                continue
            if self._is_field_decl():
                fields.append(self._parse_field(visibility))
                continue
            methods.append(
                self._parse_method(visibility, class_name=name, in_interface=False)
            )
        self._expect_op("}")
        return ast.ClassDecl(
            name, interfaces, superclass, fields, invariants, methods,
            abstract=abstract, span=span,
        )

    def _parse_visibility(self, default: str) -> str:
        for vis in _VISIBILITIES:
            if self._accept_keyword(vis):
                return vis
        return default

    def _parse_invariant(self, visibility: str) -> ast.InvariantDecl:
        span = self._expect_keyword("invariant").span
        self._expect_op("(")
        formula = self.parse_formula()
        self._expect_op(")")
        self._expect_op(";")
        return ast.InvariantDecl(visibility, formula, span=span)

    def _is_field_decl(self) -> bool:
        """Lookahead: ``type name ;`` with no parameter list."""
        saved = self.pos
        try:
            if self._accept_keyword("static"):
                pass
            if not self._looks_like_type():
                return False
            self._parse_type()
            if not self._at(TokenKind.IDENT):
                return False
            self._advance()
            return self._at_op(";")
        finally:
            self.pos = saved

    def _parse_field(self, visibility: str) -> ast.FieldDecl:
        self._accept_keyword("static")
        type_ = self._parse_type()
        name_tok = self._expect_ident()
        self._expect_op(";")
        return ast.FieldDecl(visibility, type_, name_tok.text, span=name_tok.span)

    def _looks_like_type(self) -> bool:
        tok = self._peek()
        if tok.kind == TokenKind.KEYWORD and tok.text in ("int", "boolean"):
            return True
        return tok.kind == TokenKind.IDENT

    def _parse_type(self) -> ast.Type:
        tok = self._peek()
        if tok.kind == TokenKind.KEYWORD and tok.text in ("int", "boolean"):
            self._advance()
            return ast.INT_TYPE if tok.text == "int" else ast.BOOLEAN_TYPE
        name = self._expect_ident().text
        return ast.Type(name)

    # -- methods ---------------------------------------------------------

    def _parse_method(
        self, visibility: str, class_name: str, in_interface: bool
    ) -> ast.MethodDecl:
        span = self._peek().span
        static = bool(self._accept_keyword("static"))
        abstract = bool(self._accept_keyword("abstract"))
        kind = "method"
        return_type: ast.Type | None = None
        if self._accept_keyword("constructor"):
            name = self._expect_ident().text
            kind = "equality" if name == "equals" else "constructor"
        elif (
            self._at(TokenKind.IDENT, class_name)
            and self.tokens[self.pos + 1].matches(TokenKind.OPERATOR, "(")
        ):
            # A class constructor: `private ZNat(int n) ...`.
            name = self._advance().text
            kind = "class-constructor"
        else:
            return_type = self._parse_type()
            name = self._expect_ident().text
        params = self._parse_params()
        matches, ensures, modes = self._parse_specs_and_modes()
        body = self._parse_method_body(in_interface or abstract)
        return ast.MethodDecl(
            kind=kind,
            visibility=visibility,
            static=static,
            return_type=return_type,
            name=name,
            params=params,
            modes=modes,
            matches=matches,
            ensures=ensures,
            body=body,
            abstract=in_interface or abstract or body is None,
            span=span,
        )

    def _parse_function(self) -> ast.FunctionDecl:
        span = self._peek().span
        self._accept_keyword("static")
        return_type = self._parse_type()
        name = self._expect_ident().text
        params = self._parse_params()
        matches, ensures, modes = self._parse_specs_and_modes()
        body = self._parse_method_body(allow_abstract=False)
        return ast.FunctionDecl(
            return_type, name, params, modes, matches, ensures, body, span=span
        )

    def _parse_params(self) -> list[ast.Param]:
        self._expect_op("(")
        params: list[ast.Param] = []
        if not self._at_op(")"):
            while True:
                type_ = self._parse_type()
                name_tok = self._expect_ident()
                params.append(ast.Param(type_, name_tok.text, span=name_tok.span))
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        return params

    def _parse_specs_and_modes(self):
        matches: ast.Expr | None = None
        ensures: ast.Expr | None = None
        modes: list[ast.ModeDecl] = []
        while True:
            if self._at_keyword("matches"):
                self._advance()
                if self._accept_keyword("ensures"):
                    # `matches ensures(f)` shorthand (Section 4.5).
                    self._expect_op("(")
                    formula = self.parse_formula()
                    self._expect_op(")")
                    matches = formula
                    ensures = formula
                else:
                    self._expect_op("(")
                    matches = self.parse_formula()
                    self._expect_op(")")
            elif self._at_keyword("ensures"):
                self._advance()
                self._expect_op("(")
                ensures = self.parse_formula()
                self._expect_op(")")
            elif self._at_keyword("returns") or self._at_keyword("iterates"):
                tok = self._advance()
                self._expect_op("(")
                names: list[str] = []
                if not self._at_op(")"):
                    while True:
                        names.append(self._expect_ident().text)
                        if not self._accept_op(","):
                            break
                self._expect_op(")")
                modes.append(
                    ast.ModeDecl(tok.text == "iterates", names, span=tok.span)
                )
            else:
                return matches, ensures, modes

    def _parse_method_body(self, allow_abstract: bool):
        if self._accept_op(";"):
            return None
        if self._at_op("{"):
            return self._parse_block()
        if self._at_op("("):
            # Declarative formula body.
            self._expect_op("(")
            formula = self.parse_formula()
            self._expect_op(")")
            return formula
        tok = self._peek()
        raise ParseError(f"expected a method body, found {_shown(tok)}", tok.span)

    # -- statements ------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        span = self._expect_op("{").span
        statements: list[ast.Stmt] = []
        while not self._at_op("}"):
            statements.append(self._parse_statement())
        self._expect_op("}")
        return ast.Block(statements, span=span)

    def _parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        if self._at_op("{"):
            return self._parse_block()
        if self._at_keyword("let"):
            self._advance()
            formula = self.parse_formula()
            self._expect_op(";")
            return ast.LetStmt(formula, span=tok.span)
        if self._at_keyword("switch"):
            return self._parse_switch()
        if self._at_keyword("cond"):
            return self._parse_cond()
        if self._at_keyword("if"):
            return self._parse_if()
        if self._at_keyword("foreach"):
            self._advance()
            self._expect_op("(")
            formula = self.parse_formula()
            self._expect_op(")")
            body = self._statement_as_list()
            return ast.ForeachStmt(formula, body, span=tok.span)
        if self._at_keyword("while"):
            self._advance()
            self._expect_op("(")
            condition = self.parse_formula()
            self._expect_op(")")
            body = self._statement_as_list()
            return ast.WhileStmt(condition, body, span=tok.span)
        if self._at_keyword("return"):
            self._advance()
            value = None
            if not self._at_op(";"):
                value = self.parse_formula()
            self._expect_op(";")
            return ast.ReturnStmt(value, span=tok.span)
        # Local declaration without initialiser: `T x;`
        if self._is_local_decl():
            type_ = self._parse_type()
            name = self._expect_ident().text
            self._expect_op(";")
            return ast.LocalDecl(type_, name, span=tok.span)
        # Bare formula statements. `T x = e;` is sugar for `let ...`;
        # `x = e;` with x already bound is imperative assignment, decided
        # by the interpreter since only it knows the environment.
        formula = self.parse_formula()
        self._expect_op(";")
        return ast.ExprStmt(formula, span=tok.span)

    def _is_local_decl(self) -> bool:
        saved = self.pos
        try:
            if not self._looks_like_type():
                return False
            self._parse_type()
            if not self._at(TokenKind.IDENT):
                return False
            self._advance()
            return self._at_op(";")
        finally:
            self.pos = saved

    def _statement_as_list(self) -> list[ast.Stmt]:
        stmt = self._parse_statement()
        if isinstance(stmt, ast.Block):
            return stmt.statements
        return [stmt]

    def _parse_switch(self) -> ast.SwitchStmt:
        span = self._expect_keyword("switch").span
        self._expect_op("(")
        subjects = [self.parse_formula()]
        while self._accept_op(","):
            subjects.append(self.parse_formula())
        self._expect_op(")")
        subject = (
            subjects[0]
            if len(subjects) == 1
            else ast.TupleExpr(subjects, span=span)
        )
        self._expect_op("{")
        cases: list[ast.SwitchCase] = []
        default: list[ast.Stmt] | None = None
        pending_patterns: list[ast.Expr] = []
        while not self._at_op("}"):
            if self._at_keyword("case"):
                case_span = self._advance().span
                pattern = self.parse_formula()
                self._expect_colon()
                pending_patterns.append(pattern)
                body = self._parse_case_body()
                if body or self._at_op("}") or self._at_keyword("default"):
                    cases.append(
                        ast.SwitchCase(pending_patterns, body, span=case_span)
                    )
                    pending_patterns = []
            elif self._at_keyword("default"):
                self._advance()
                self._expect_colon()
                default = self._parse_case_body()
                if pending_patterns:
                    # `case p: default: body` -- share the body.
                    cases.append(ast.SwitchCase(pending_patterns, [], span=span))
                    pending_patterns = []
            else:
                tok = self._peek()
                raise ParseError(
                    f"expected 'case' or 'default', found {_shown(tok)}", tok.span
                )
        self._expect_op("}")
        if pending_patterns:
            cases.append(ast.SwitchCase(pending_patterns, [], span=span))
        return ast.SwitchStmt(subject, cases, default, span=span)

    def _expect_colon(self) -> None:
        # `:` is not in the operator table as a standalone token... it is
        # required by case labels, so accept it specially.
        tok = self._peek()
        if tok.kind == TokenKind.OPERATOR and tok.text == ":":
            self._advance()
            return
        raise ParseError(f"expected ':', found {_shown(tok)}", tok.span)

    def _parse_case_body(self) -> list[ast.Stmt]:
        body: list[ast.Stmt] = []
        while not (
            self._at_keyword("case")
            or self._at_keyword("default")
            or self._at_op("}")
        ):
            body.append(self._parse_statement())
        return body

    def _parse_cond(self) -> ast.CondStmt:
        span = self._expect_keyword("cond").span
        self._expect_op("{")
        arms: list[ast.CondArm] = []
        else_body: list[ast.Stmt] | None = None
        while not self._at_op("}"):
            if self._accept_keyword("else"):
                else_body = self._statement_as_list()
                break
            arm_span = self._expect_op("(").span
            formula = self.parse_formula()
            self._expect_op(")")
            body = self._statement_as_list()
            arms.append(ast.CondArm(formula, body, span=arm_span))
        self._expect_op("}")
        return ast.CondStmt(arms, else_body, span=span)

    def _parse_if(self) -> ast.IfStmt:
        span = self._expect_keyword("if").span
        self._expect_op("(")
        condition = self.parse_formula()
        self._expect_op(")")
        then_body = self._statement_as_list()
        else_body: list[ast.Stmt] | None = None
        if self._accept_keyword("else"):
            else_body = self._statement_as_list()
        return ast.IfStmt(condition, then_body, else_body, span=span)

    # -- formulas / patterns / expressions ---------------------------------

    def parse_formula(self) -> ast.Expr:
        return self._parse_expr(1)

    def _parse_expr(self, level: int) -> ast.Expr:
        """An expression whose operators all bind at ``level`` or tighter.

        After an operator at level ``p`` the loop lowers its ceiling so
        that only a looser operator may follow: ``p + 1`` for the
        left-associative levels, ``p`` for comparisons, which do not
        chain, and ``_NOT`` after ``!``.
        """
        tok = self.tokens[self.pos]
        if level <= _NOT and tok.kind is _OPERATOR and tok.text == "!":
            self.pos += 1
            left: ast.Expr = ast.Not(self._parse_expr(_NOT), span=tok.span)
            ceiling = _NOT
        else:
            left = self._parse_prefix()
            ceiling = _TIGHTEST + 1
        while True:
            tok = self.tokens[self.pos]
            if tok.kind is not _OPERATOR and tok.kind is not _KEYWORD:
                return left
            op = tok.text
            p = _BINARY.get(op)
            if p is None or p < level or p >= ceiling:
                return left
            self.pos += 1
            span = tok.span
            if op == "where":
                if self._accept_op("("):
                    condition = self.parse_formula()
                    self._expect_op(")")
                else:
                    condition = self._parse_expr(_COMPARISON)
                left = ast.Where(left, condition, span=span)
            else:
                right = self._parse_expr(p + 1)
                if p == _DISJUNCTION:
                    left = ast.PatOr(left, right, disjoint=op == "|", span=span)
                elif op == "as":
                    left = ast.PatAnd(left, right, span=span)
                else:
                    left = ast.Binary(op, left, right, span=span)
            ceiling = p if p == _COMPARISON else p + 1

    def _parse_prefix(self) -> ast.Expr:
        if self._at_op("-"):
            span = self._advance().span
            operand = self._parse_prefix()
            return ast.Binary("-", ast.Lit(0, span=span), operand, span=span)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while self._at_op("."):
            self._advance()
            name_tok = self._expect_ident()
            if self._at_op("("):
                args = self._parse_args()
                # `Foo.bar(...)` with Foo a known type is a static-
                # qualified call, not a method on an object.
                if (
                    isinstance(expr, ast.Var)
                    and expr.name in self.type_names
                ):
                    expr = ast.Call(
                        None, expr.name, name_tok.text, args, span=name_tok.span
                    )
                else:
                    expr = ast.Call(
                        expr, None, name_tok.text, args, span=name_tok.span
                    )
            else:
                expr = ast.FieldAccess(expr, name_tok.text, span=name_tok.span)
        return expr

    def _parse_args(self) -> list[ast.Expr]:
        self._expect_op("(")
        args: list[ast.Expr] = []
        if not self._at_op(")"):
            while True:
                args.append(self.parse_formula())
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        return args

    def _parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        text = tok.text
        if kind is TokenKind.IDENT:
            self.pos += 1
            if self._at_op("("):
                args = self._parse_args()
                return ast.Call(None, None, text, args, span=tok.span)
            if self._at(TokenKind.IDENT) or self._at_op("_"):
                # `Nat x` / `Nat _` declaration pattern.
                return self._parse_decl_pattern(ast.Type(text), tok.span)
            return ast.Var(text, span=tok.span)
        if kind is TokenKind.INT_LIT:
            self.pos += 1
            return ast.Lit(int(text), span=tok.span)
        if kind is TokenKind.STRING_LIT:
            self.pos += 1
            return ast.Lit(text, span=tok.span)
        if kind is _KEYWORD:
            if text in _LITERALS:
                self.pos += 1
                return ast.Lit(_LITERALS[text], span=tok.span)
            if text == "this":
                self.pos += 1
                return ast.Var("this", span=tok.span)
            if text == "notall":
                self.pos += 1
                self._expect_op("(")
                names: list[str] = []
                if not self._at_op(")"):
                    while True:
                        names.append(self._expect_ident().text)
                        if not self._accept_op(","):
                            break
                self._expect_op(")")
                return ast.NotAll(names, span=tok.span)
            if text == "new":
                # `new Foo(args)` is accepted as a synonym for `Foo(args)`.
                self.pos += 1
                name = self._expect_ident().text
                args = self._parse_args()
                return ast.Call(None, None, name, args, span=tok.span)
            if text == "int" or text == "boolean":
                type_ = self._parse_type()
                return self._parse_decl_pattern(type_, tok.span)
        elif kind is _OPERATOR:
            if text == "_":
                self.pos += 1
                return ast.Wildcard(span=tok.span)
            if text == "(":
                self.pos += 1
                items = [self.parse_formula()]
                while self._accept_op(","):
                    items.append(self.parse_formula())
                self._expect_op(")")
                if len(items) == 1:
                    return items[0]
                return ast.TupleExpr(items, span=tok.span)
        raise ParseError(f"expected an expression, found {_shown(tok)}", tok.span)

    def _parse_decl_pattern(self, type_: ast.Type, span: Span) -> ast.Expr:
        if self._at_op("_"):
            self._advance()
            return ast.VarDecl(type_, None, span=span)
        name = self._expect_ident().text
        return ast.VarDecl(type_, name, span=span)


def declared_type_names(tokens: list[Token]) -> set[str]:
    """The names that follow ``class`` or ``interface`` in ``tokens``."""
    names = set()
    for i, tok in enumerate(tokens):
        if tok.kind is _KEYWORD and tok.text in ("class", "interface"):
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if nxt is not None and nxt.kind is TokenKind.IDENT:
                names.add(nxt.text)
    return names


def text_digest(source: str, filename: str) -> str:
    """The digest of a file name and source text
    (``ast.Program.text_digest``)."""
    return hashlib.sha256(f"{filename}\0{source}".encode("utf-8")).hexdigest()


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """Parse a complete compilation unit, recording the digest of its
    file name and source text (``ast.Program.text_digest``)."""
    return Parser(tokenize(source, filename), filename).parse_program(
        text_digest(source, filename)
    )


def parse_formula(source: str, type_names: set[str] | None = None) -> ast.Expr:
    """Parse a standalone formula (handy in tests)."""
    parser = Parser(tokenize(source), "<formula>")
    if type_names:
        parser.type_names |= type_names
    expr = parser.parse_formula()
    tok = parser._peek()
    if not tok.is_eof:
        raise ParseError(f"unexpected trailing input {_shown(tok)}", tok.span)
    return expr
