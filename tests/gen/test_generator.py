"""The corpus generator: determinism, honesty, CLI round-trip.

*Determinism* — the same ``GenConfig`` must produce byte-identical
sources and manifests (benchmarks and CI lanes key on this).

*Honesty* — the manifest is ground truth computed at generation time;
``api.verify`` over the generated programs must emit exactly those
warnings, with the pattern-algebra fast path and under pure SMT
(``tests/verify/tier_oracle.py``'s ``smt_only()``) alike.  This is the
property that lets perfbench's generated workloads check every verdict
instead of only timing it.
"""

import contextlib
import json

import pytest

from repro import api
from repro.gen import (
    GenConfig,
    check_report,
    generate_corpus,
    write_corpus,
)
from repro.gen.__main__ import main as gen_main
from tests.verify.tier_oracle import smt_only

SWEEP = GenConfig(methods=40, seed=7)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SWEEP)


# ----------------------------------------------------------------------
# determinism


def test_same_seed_is_byte_identical(corpus):
    again = generate_corpus(SWEEP)
    assert [f.source for f in again.files] == [f.source for f in corpus.files]
    assert json.dumps(again.manifest(), sort_keys=True) == json.dumps(
        corpus.manifest(), sort_keys=True
    )


def test_different_seed_differs(corpus):
    other = generate_corpus(GenConfig(methods=40, seed=8))
    assert [f.source for f in other.files] != [
        f.source for f in corpus.files
    ]


def test_methods_split_across_files():
    corpus = generate_corpus(
        GenConfig(methods=25, seed=1, methods_per_file=10)
    )
    assert [len(f.methods) for f in corpus.files] == [10, 10, 5]
    names = [m for f in corpus.files for m in f.methods]
    assert len(names) == len(set(names)) == 25


def test_manifest_shape(corpus):
    manifest = corpus.manifest()
    assert manifest["schema"] == 1
    assert manifest["seed"] == SWEEP.seed
    assert manifest["methods"] == SWEEP.methods
    assert manifest["files"]
    entry = manifest["files"][0]
    assert entry["path"].endswith(".jm")
    assert entry["methods"]
    for warning in entry["warnings"]:
        assert warning["kind"] in ("nonexhaustive", "redundant-arm")
        assert warning["line"] > 0 and warning["column"] > 0
        assert warning["method"] in entry["methods"]


def test_corpus_exercises_both_warning_kinds(corpus):
    kinds = {w.kind for f in corpus.files for w in f.expected}
    assert kinds == {"nonexhaustive", "redundant-arm"}


def test_config_validation_rejects_nonsense():
    for bad in (
        GenConfig(methods=0),
        GenConfig(hierarchies=0),
        GenConfig(max_ctors=1),
        GenConfig(max_arity=-1),
        GenConfig(methods_per_file=0),
    ):
        with pytest.raises(ValueError):
            bad.validate()


# ----------------------------------------------------------------------
# honesty: the manifest is exactly what the verifier reports


@pytest.mark.parametrize("tier", ["auto", "smt-only"])
def test_verifier_matches_ground_truth(corpus, tier):
    dispatch = smt_only() if tier == "smt-only" else contextlib.nullcontext()
    with dispatch:
        for generated in corpus.files:
            unit = api.compile_program(
                generated.source, filename=generated.name
            )
            report = api.verify(unit, options=api.VerifyOptions(cache=None))
            assert check_report(generated.expected, report) == [], (
                f"{generated.name} under tier={tier}"
            )


def test_check_report_flags_divergence(corpus):
    generated = corpus.files[0]
    unit = api.compile_program(generated.source, filename=generated.name)
    report = api.verify(unit, options=api.VerifyOptions(cache=None))
    assert report.diagnostics.warnings, "sweep config should warn somewhere"
    # Drop one real warning: the checker must notice it is missing.
    report.diagnostics.warnings.pop()
    assert check_report(generated.expected, report)


def test_manifest_round_trips_through_json(corpus):
    generated = corpus.files[0]
    unit = api.compile_program(generated.source, filename=generated.name)
    report = api.verify(unit, options=api.VerifyOptions(cache=None))
    entry = json.loads(json.dumps(corpus.manifest()))["files"][0]
    assert check_report(entry["warnings"], report) == []


# ----------------------------------------------------------------------
# files and CLI


def test_write_corpus_and_cli_agree(tmp_path, corpus):
    lib_dir = tmp_path / "lib"
    manifest_path = write_corpus(corpus, str(lib_dir))
    with open(manifest_path, encoding="utf-8") as handle:
        lib_manifest = json.load(handle)

    cli_dir = tmp_path / "cli"
    assert (
        gen_main(
            ["--methods", "40", "--seed", "7", "--out", str(cli_dir)]
        )
        == 0
    )
    with open(cli_dir / "manifest.json", encoding="utf-8") as handle:
        cli_manifest = json.load(handle)
    assert cli_manifest == lib_manifest
    for entry in cli_manifest["files"]:
        assert (cli_dir / entry["path"]).read_text() == (
            lib_dir / entry["path"]
        ).read_text()


def test_cli_rejects_bad_config(tmp_path, capsys):
    assert (
        gen_main(["--methods", "0", "--out", str(tmp_path / "x")]) == 2
    )
    assert "methods" in capsys.readouterr().err
