"""The corpus generator: random hierarchies, methods, ground truth.

Every generated file is a self-contained JMatch program: a handful of
sealed interface/class hierarchies (the exact shape
``tests/verify/test_tiered.py`` uses for its algebra-vs-SMT oracle,
which the algebra and SMT both verify warning-free), followed by ``static`` methods
that switch over a hierarchy value.

The ground truth comes from *construction*, not from running the
verifier.  Each method's pattern matrix starts as a complete split on
the subject type's constructors — exhaustive and irredundant by
definition — and is refined only by partition-preserving expansions
(replace one row's wildcard hole with one row per constructor of that
hole's type), which keep both properties.  A seeded flavor then
perturbs the matrix in a way whose warning set is known exactly:

* ``clean`` — leave it; no warnings.
* ``inexhaustive`` — delete one row; exactly one ``nonexhaustive``
  warning at the switch statement.
* ``redundant`` — append a wildcard-stripped duplicate of an existing
  row as the last arm; exactly one ``redundant-arm`` warning naming
  that arm.
* ``or_merge`` — fuse two adjacent rows into one ``p1 | p2`` (or
  ``p1 # p2``) arm; the rows match disjoint value sets by
  construction, so no warning.
* ``guard`` — insert ``case p where (k > 0):`` in front of an existing
  arm ``case p:``; the guarded arm is reachable (``k > 0``), the
  original stays reachable (``k <= 0``), exhaustiveness is unchanged —
  no warnings.  The pattern algebra decides every other obligation of
  the statement; the guarded arm and the arm after it, which only the
  guard's satisfiability can decide, exercise the SMT pipeline.
* ``default`` — delete one row *and* add a ``default:`` arm, which
  suppresses the exhaustiveness obligation; no warnings.

Warnings land at the ``switch`` keyword's position (the generator
emits it at a fixed indent, so line *and* column are known), with the
exact message strings ``repro.verify.exhaustiveness`` produces.  The
honesty of all of this against the real pipeline — with and without
the algebra fast path — is pinned by ``tests/gen/test_generator.py``.

Determinism: all randomness flows from one ``random.Random(seed)``;
identical ``GenConfig`` values produce byte-identical sources and
manifests on any platform (only ``choice``/``randint``/``random`` are
used, whose sequences are stable across supported Python versions).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from random import Random

#: manifest schema version (bump on incompatible layout changes)
MANIFEST_SCHEMA = 1

#: warning-kind strings, matching ``repro.errors.WarningKind.value``
NONEXHAUSTIVE = "nonexhaustive"
REDUNDANT_ARM = "redundant-arm"

#: the column the ``switch`` keyword lands on (2-space indent, 1-based)
SWITCH_COLUMN = 3

#: flavor weights; clean dominates so most methods verify silently,
#: like a real codebase
FLAVORS = (
    ("clean", 30),
    ("inexhaustive", 20),
    ("redundant", 20),
    ("or_merge", 10),
    ("guard", 10),
    ("default", 10),
)

_WILD = ("wild",)


@dataclass(frozen=True)
class GenConfig:
    """Shape of one generated corpus; equal configs generate equal bytes."""

    #: total methods across all files
    methods: int = 100
    seed: int = 0
    #: sealed hierarchies per file (each method switches over one)
    hierarchies: int = 3
    #: constructors per hierarchy, drawn from [2, max_ctors]
    max_ctors: int = 4
    #: constructor arity, drawn from [0, max_arity] (first ctor is
    #: always nullary so every type is inhabited)
    max_arity: int = 2
    #: partition-preserving refinement rounds per method, [0, max_depth]
    max_depth: int = 2
    #: methods per generated file (bounds per-file compile time)
    methods_per_file: int = 250

    def validate(self) -> None:
        if self.methods < 1:
            raise ValueError(f"methods must be >= 1, got {self.methods}")
        if self.hierarchies < 1:
            raise ValueError(
                f"hierarchies must be >= 1, got {self.hierarchies}"
            )
        if self.max_ctors < 2:
            raise ValueError(f"max_ctors must be >= 2, got {self.max_ctors}")
        if self.max_arity < 0:
            raise ValueError(f"max_arity must be >= 0, got {self.max_arity}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.methods_per_file < 1:
            raise ValueError(
                f"methods_per_file must be >= 1, got {self.methods_per_file}"
            )


@dataclass(frozen=True)
class ExpectedWarning:
    """One warning the verifier must emit for a generated method."""

    method: str
    kind: str
    line: int
    column: int
    message: str

    def key(self) -> tuple:
        return (self.kind, self.line, self.column, self.message)


@dataclass
class GeneratedFile:
    """One self-contained program plus its expected warning set."""

    name: str
    source: str = ""
    methods: list[str] = field(default_factory=list)
    #: in source order — the order the verifier reports them
    expected: list[ExpectedWarning] = field(default_factory=list)


@dataclass
class Corpus:
    config: GenConfig
    files: list[GeneratedFile] = field(default_factory=list)

    def manifest(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "generator": "repro.gen",
            "seed": self.config.seed,
            "config": asdict(self.config),
            "methods": sum(len(f.methods) for f in self.files),
            "expected_warnings": sum(len(f.expected) for f in self.files),
            "files": [
                {
                    "path": f.name,
                    "methods": f.methods,
                    "warnings": [asdict(w) for w in f.expected],
                }
                for f in self.files
            ],
        }


# ---------------------------------------------------------------------------
# hierarchies


@dataclass(frozen=True)
class _Hierarchy:
    index: int
    #: constructor arities; all parameters are the hierarchy type, so
    #: patterns nest
    arities: tuple

    @property
    def type_name(self) -> str:
        return f"T{self.index}"

    def ctor(self, k: int) -> str:
        return f"mk{self.index}_{k}"


def _hierarchy_source(h: _Hierarchy) -> str:
    """The sealed interface + implementing class for one hierarchy.

    This is exactly the shape the tier-oracle tests verify clean with
    and without the algebra: an ``invariant(this = c0() | c1(_) ...)`` seal,
    abstract ``constructor`` declarations with full-``returns`` modes,
    and a tag/field implementation class.
    """
    t = h.type_name
    seals = " | ".join(
        f"{h.ctor(k)}({', '.join('_' for _ in range(a))})"
        for k, a in enumerate(h.arities)
    )
    decls = "\n".join(
        f"  constructor {h.ctor(k)}"
        f"({', '.join(f'{t} x{j}' for j in range(a))}) "
        f"returns({', '.join(f'x{j}' for j in range(a))});"
        for k, a in enumerate(h.arities)
    )
    impls = "\n".join(
        f"  constructor {h.ctor(k)}"
        f"({', '.join(f'{t} x{j}' for j in range(a))}) "
        f"returns({', '.join(f'x{j}' for j in range(a))})\n"
        f"    ( tag = {k}"
        + "".join(f" && f{j} = x{j}" for j in range(a))
        + " )"
        for k, a in enumerate(h.arities)
    )
    max_arity = max(h.arities)
    fields = "\n".join(f"  {t} f{j};" for j in range(max_arity))
    lines = [f"interface {t} {{", f"  invariant(this = {seals});", decls, "}"]
    lines += [f"class C{h.index} implements {t} {{", "  int tag;"]
    if fields:
        lines.append(fields)
    lines += [impls, "}"]
    return "\n".join(lines) + "\n"


def _make_hierarchy(index: int, rng: Random, config: GenConfig) -> _Hierarchy:
    count = rng.randint(2, config.max_ctors)
    arities = [0] + [
        rng.randint(0, config.max_arity) for _ in range(count - 1)
    ]
    return _Hierarchy(index, tuple(arities))


# ---------------------------------------------------------------------------
# pattern matrices


def _holes(pat: tuple, path: tuple = ()) -> list[tuple]:
    """Paths (child-index tuples) of every wildcard hole in ``pat``."""
    if pat[0] == "wild":
        return [path]
    out: list[tuple] = []
    for i, arg in enumerate(pat[2]):
        out.extend(_holes(arg, path + (i,)))
    return out


def _replace(pat: tuple, path: tuple, sub: tuple) -> tuple:
    if not path:
        return sub
    head, rest = path[0], path[1:]
    args = tuple(
        _replace(arg, rest, sub) if i == head else arg
        for i, arg in enumerate(pat[2])
    )
    return (pat[0], pat[1], args)


def _split(h: _Hierarchy, k: int) -> tuple:
    """A constructor pattern with wildcard arguments."""
    return ("ctor", k, tuple(_WILD for _ in range(h.arities[k])))


def _build_rows(h: _Hierarchy, rng: Random, config: GenConfig) -> list[tuple]:
    """An exhaustive, irredundant matrix over ``h``.

    Start from the complete one-row-per-constructor split, then apply
    random partition-preserving expansions: a row's wildcard hole is
    replaced by one copy of the row per constructor.  The expanded
    rows' match sets partition the original row's, and no other row is
    touched, so exhaustiveness and irredundancy are invariants.
    """
    rows = [_split(h, k) for k in range(len(h.arities))]
    for _ in range(rng.randint(0, config.max_depth)):
        if len(rows) >= 8:
            break
        candidates = [i for i, row in enumerate(rows) if _holes(row)]
        if not candidates:
            break
        target = rng.choice(candidates)
        row = rows[target]
        hole = rng.choice(_holes(row))
        expansion = [
            _replace(row, hole, _split(h, k))
            for k in range(len(h.arities))
        ]
        rows[target : target + 1] = expansion
    return rows


# ---------------------------------------------------------------------------
# rendering


class _Renderer:
    """Renders pattern trees, optionally naming wildcard binders."""

    def __init__(self, h: _Hierarchy, rng: Random):
        self.h = h
        self.rng = rng
        self.counter = 0

    def render(self, pat: tuple, binders: bool) -> str:
        if pat[0] == "wild":
            if binders and self.rng.random() < 0.2:
                name = f"v{self.counter}"
                self.counter += 1
                return f"{self.h.type_name} {name}"
            return "_"
        args = ", ".join(self.render(a, binders) for a in pat[2])
        return f"{self.h.ctor(pat[1])}({args})"


@dataclass
class _Arm:
    """One rendered case label (pattern text plus optional guard)."""

    pattern: str
    guard: str | None = None

    def render(self) -> str:
        if self.guard is None:
            return f"case {self.pattern}:"
        return f"case {self.pattern} where ({self.guard}):"


def _pick_flavor(rng: Random) -> str:
    total = sum(weight for _, weight in FLAVORS)
    roll = rng.random() * total
    for name, weight in FLAVORS:
        roll -= weight
        if roll < 0:
            return name
    return FLAVORS[-1][0]


def _make_method(
    name: str,
    h: _Hierarchy,
    rng: Random,
    config: GenConfig,
    start_line: int,
) -> tuple[str, list[ExpectedWarning]]:
    """One method's source text and its expected warnings.

    ``start_line`` is the 1-based line the method header lands on; the
    switch statement is always the next line, which is where every
    expected warning points.
    """
    rows = _build_rows(h, rng, config)
    flavor = _pick_flavor(rng)
    renderer = _Renderer(h, rng)
    switch_line = start_line + 1
    expected: list[ExpectedWarning] = []
    has_default = False

    if flavor == "inexhaustive":
        del rows[rng.randrange(len(rows))]
        arms = [_Arm(renderer.render(row, binders=True)) for row in rows]
        expected.append(
            ExpectedWarning(
                name,
                NONEXHAUSTIVE,
                switch_line,
                SWITCH_COLUMN,
                "match is not exhaustive",
            )
        )
    elif flavor == "redundant":
        dup = rows[rng.randrange(len(rows))]
        arms = [_Arm(renderer.render(row, binders=True)) for row in rows]
        # The duplicate re-renders binder-free so no names collide.
        arms.append(_Arm(renderer.render(dup, binders=False)))
        expected.append(
            ExpectedWarning(
                name,
                REDUNDANT_ARM,
                switch_line,
                SWITCH_COLUMN,
                f"arm {len(arms)} is redundant: no value reaches it",
            )
        )
    elif flavor == "or_merge" and len(rows) >= 2:
        at = rng.randrange(len(rows) - 1)
        op = rng.choice(("|", "#"))
        # Binder-free: or-alternatives must not bind different names.
        merged = _Arm(
            f"{renderer.render(rows[at], binders=False)} {op} "
            f"{renderer.render(rows[at + 1], binders=False)}"
        )
        arms = [_Arm(renderer.render(row, binders=True)) for row in rows[:at]]
        arms.append(merged)
        arms.extend(
            _Arm(renderer.render(row, binders=True)) for row in rows[at + 2:]
        )
    elif flavor == "guard":
        at = rng.randrange(len(rows))
        arms = []
        for i, row in enumerate(rows):
            if i == at:
                arms.append(
                    _Arm(renderer.render(row, binders=False), guard="k > 0")
                )
                arms.append(_Arm(renderer.render(row, binders=False)))
            else:
                arms.append(_Arm(renderer.render(row, binders=True)))
    elif flavor == "default":
        del rows[rng.randrange(len(rows))]
        arms = [_Arm(renderer.render(row, binders=True)) for row in rows]
        has_default = True
    else:  # clean (also or_merge's fallback on one-row matrices)
        arms = [_Arm(renderer.render(row, binders=True)) for row in rows]

    lines = [
        f"static int {name}({h.type_name} t, int k) {{",
        "  switch (t) {",
    ]
    lines.extend(
        f"    {arm.render()} return {i};" for i, arm in enumerate(arms)
    )
    if has_default:
        lines.append("    default: return -1;")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n", expected


# ---------------------------------------------------------------------------
# corpus assembly


def generate_corpus(config: GenConfig) -> Corpus:
    """The whole corpus for ``config``, deterministically from its seed."""
    config.validate()
    rng = Random(config.seed)
    corpus = Corpus(config)
    remaining = config.methods
    file_index = 0
    method_index = 0
    while remaining > 0:
        in_file = min(remaining, config.methods_per_file)
        remaining -= in_file
        hierarchies = [
            _make_hierarchy(i, rng, config)
            for i in range(config.hierarchies)
        ]
        chunks: list[str] = [
            "// generated by repro.gen -- do not edit\n"
            f"// seed={config.seed} file={file_index}\n"
        ]
        line = sum(chunk.count("\n") for chunk in chunks) + 1
        for h in hierarchies:
            chunk = _hierarchy_source(h)
            chunks.append(chunk)
            line += chunk.count("\n")
        generated = GeneratedFile(name=f"corpus_{file_index:03d}.jm")
        for _ in range(in_file):
            name = f"m{method_index}"
            method_index += 1
            h = rng.choice(hierarchies)
            chunk, expected = _make_method(name, h, rng, config, line)
            chunks.append(chunk)
            line += chunk.count("\n")
            generated.methods.append(name)
            generated.expected.extend(expected)
        generated.source = "".join(chunks)
        corpus.files.append(generated)
        file_index += 1
    return corpus


def write_corpus(corpus: Corpus, out_dir: str) -> str:
    """Write sources plus ``manifest.json``; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    for generated in corpus.files:
        with open(
            os.path.join(out_dir, generated.name), "w", encoding="utf-8"
        ) as handle:
            handle.write(generated.source)
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(corpus.manifest(), handle, indent=2)
        handle.write("\n")
    return manifest_path


# ---------------------------------------------------------------------------
# checking


def check_report(expected: list, report) -> list[str]:
    """Mismatches between a file's ground truth and a verify report.

    ``expected`` is the file's :class:`ExpectedWarning` list (or the
    equivalent manifest dicts).  Compares the ordered
    ``(kind, line, column, message)`` sequences — counterexample text
    is model-dependent detail the generator does not predict — and
    returns human-readable mismatch lines; empty means the run matched
    the ground truth exactly.
    """
    want = [
        w.key()
        if isinstance(w, ExpectedWarning)
        else (w["kind"], w["line"], w["column"], w["message"])
        for w in expected
    ]
    got = [
        (
            w.kind.value,
            w.span.start.line,
            w.span.start.column,
            w.message,
        )
        for w in report.diagnostics.warnings
    ]
    if want == got:
        return []
    problems: list[str] = []
    for entry in want:
        if entry not in got:
            problems.append(f"missing: {entry}")
    for entry in got:
        if entry not in want:
            problems.append(f"unexpected: {entry}")
    if not problems:
        problems.append(f"order mismatch: expected {want}, got {got}")
    return problems
