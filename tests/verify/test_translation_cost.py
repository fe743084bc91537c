"""Translation work grows linearly with the arms of a disjoint invariant.

A right-nested ``a | b | c | ...`` chain used to re-translate every
sub-chain once in its disjunction and once in its exclusion, and every
subtype's invariant atom re-translated the supertype's invariant: the
work doubled per arm.  The exhaustiveness check of one switch over an
``n``-arm invariant now costs a number of ``Translator.vf`` calls linear
in ``n``.
"""

from repro import api
from repro.verify import exhaustiveness, translate
from repro.verify.options import VerifyOptions

from .tier_oracle import smt_only


def shapes(arms: int) -> str:
    """An interface sealed by an ``arms``-arm invariant and one switch."""
    names = [f"K{i}" for i in range(arms)]
    alternatives = " | ".join(f"{name} _" for name in names)
    source = f"interface Shape {{\n  invariant(this = {alternatives});\n}}\n"
    for name in names:
        source += (
            f"class {name} implements Shape {{\n  int v;\n"
            f"  {name}(int x) matches(true) returns(x) ( v = x )\n}}\n"
        )
    return source + (
        "static int tag(Shape s) {\n  switch (s) {\n"
        "    case K0 _: return 0;\n    default: return 1;\n  }\n}\n"
    )


def switch_translations(monkeypatch, arms: int) -> int:
    """``Translator.vf`` calls made while checking the switch."""
    calls = 0
    inside = False
    vf = translate.Translator.vf
    check_switch = exhaustiveness.ExhaustivenessChecker.check_switch

    def counting_vf(self, *args):
        nonlocal calls
        calls += inside
        return vf(self, *args)

    def counted_check_switch(self, *args, **kwargs):
        nonlocal inside
        inside = True
        try:
            return check_switch(self, *args, **kwargs)
        finally:
            inside = False

    monkeypatch.setattr(translate.Translator, "vf", counting_vf)
    monkeypatch.setattr(
        exhaustiveness.ExhaustivenessChecker, "check_switch",
        counted_check_switch,
    )
    unit = api.compile_program(shapes(arms), "shapes.jm")
    with smt_only():
        report = api.verify(unit, options=VerifyOptions(cache=None))
    assert report.clean
    monkeypatch.undo()
    return calls


def test_switch_over_disjoint_invariant_translates_linearly(monkeypatch):
    four = switch_translations(monkeypatch, 4)
    eight = switch_translations(monkeypatch, 8)
    assert four > 0
    assert eight <= 3 * four, (four, eight)
