"""``VerifyOptions``, the one way to configure ``api.verify``, and the
JSON report.

Loose keyword arguments to ``api.verify`` and the retired
``incremental`` option are rejected, and out-of-range settings fail
fast.  The report's machine-readable form (``to_dict``/``to_json``) is
exercised here too.
"""

import json

import pytest

from repro import api
from repro.api import VerifyOptions
from repro.smt.cache import SolverCache
from repro.verify.verifier import REPORT_SCHEMA_VERSION

PROGRAM = """
interface Nat {
  invariant(this = zero() | succ(_));
  constructor zero() matches(notall(result)) returns();
  constructor succ(Nat n) matches(notall(result)) returns(n);
}
static int f(Nat n) {
  switch (n) {
    case succ(Nat p): return 1;
  }
}
"""


@pytest.fixture(scope="module")
def unit():
    return api.compile_program(PROGRAM)


def _snapshot(report):
    return (
        [str(w) for w in report.diagnostics.warnings],
        report.methods_checked,
        report.statements_checked,
        report.clean,
    )


def test_defaults_are_identical(unit):
    assert _snapshot(api.verify(unit)) == _snapshot(
        api.verify(unit, options=VerifyOptions())
    )


def test_mixing_options_and_legacy_kwargs_raises(unit):
    with pytest.raises(TypeError, match="budget"):
        api.verify(unit, budget=2.0, options=VerifyOptions())


def test_loose_kwargs_to_api_verify_are_rejected(unit):
    with pytest.raises(TypeError, match="budget"):
        api.verify(unit, budget=1)
    with pytest.raises(TypeError):
        api.verify(unit, None)


def test_options_fields_mirror_legacy_defaults():
    opts = VerifyOptions()
    assert opts.budget is None
    # No query cache unless the caller passes one.
    assert opts.cache is None
    assert opts.jobs == 1
    assert opts.cache_dir is None
    assert opts.task_timeout is None
    assert opts.trace is None
    assert opts.tracer is None
    assert not hasattr(opts, "format")
    assert not hasattr(opts, "tier")
    assert not hasattr(opts, "backend")
    assert not hasattr(opts, "batch_size")
    assert not hasattr(opts, "use_cache")
    assert not hasattr(opts, "trace_enabled")


def test_replace_returns_a_modified_copy():
    opts = VerifyOptions()
    other = opts.replace(jobs=4)
    assert other.jobs == 4 and opts.jobs == 1


@pytest.mark.parametrize(
    "bad",
    [
        {"budget": -1.0},
        {"budget": float("nan")},
        {"budget": float("inf")},
        {"task_timeout": 0.0},
        {"task_timeout": float("nan")},
        {"task_timeout": float("inf")},
        {"jobs": 0},
        {"jobs": "many"},
    ],
)
def test_validate_rejects_out_of_range_settings(bad):
    with pytest.raises(ValueError):
        VerifyOptions(**bad).validate()


@pytest.mark.parametrize("cache", [False, True, 0, "memory"])
def test_validate_rejects_a_cache_that_is_not_a_solver_cache(cache):
    # cache=False used to validate, then fail every task with an
    # AttributeError on the first cache call
    with pytest.raises(ValueError, match="SolverCache or None"):
        VerifyOptions(cache=cache).validate()


def test_verify_rejects_cache_false_before_any_task_runs(unit):
    with pytest.raises(ValueError, match="SolverCache or None"):
        api.verify(unit, options=VerifyOptions(cache=False))


def test_validate_accepts_auto_jobs_and_zero_budget():
    VerifyOptions(jobs="auto", budget=0.0).validate()


def test_validate_normalizes_numeric_strings_in_place():
    # config files and CLIs hand over strings; after validate() the
    # drivers must never see jobs="3" again
    opts = VerifyOptions(jobs="3")
    opts.validate()
    assert opts.jobs == 3 and type(opts.jobs) is int


def test_validate_keeps_auto_and_ints_as_is():
    opts = VerifyOptions(jobs="auto")
    opts.validate()
    assert opts.jobs == "auto"
    opts = VerifyOptions(jobs=4)
    opts.validate()
    assert opts.jobs == 4


@pytest.mark.parametrize("bad", [
    {"jobs": True},
    {"jobs": False},
])
def test_validate_rejects_booleans(bad):
    # bool subclasses int, so int(True) == 1 would slip through as a
    # silent typo; reject it loudly instead
    with pytest.raises(ValueError, match="positive integer or 'auto'"):
        VerifyOptions(**bad).validate()


# -- the removed backend option ------------------------------------------


def test_validate_rejects_unknown_backend():
    # There is one engine and no option that names one: every former
    # backend name is rejected at construction, not silently ignored.
    for backend in ("incremental", "reference", "z3", "cvc5", "portfolio", None):
        with pytest.raises(TypeError, match="backend"):
            VerifyOptions(backend=backend)


def test_batch_size_option_is_rejected():
    # The pool sizes its batches from the task and worker counts; no
    # option sets them.
    for batch_size in ("auto", 1, 8):
        with pytest.raises(TypeError, match="batch_size"):
            VerifyOptions(batch_size=batch_size)


def test_incremental_option_is_rejected():
    with pytest.raises(TypeError, match="incremental"):
        VerifyOptions(incremental=False)


def test_api_verify_backend_kwarg_is_rejected(unit):
    for backend in ("reference", "incremental"):
        with pytest.raises(TypeError, match="backend"):
            api.verify(unit, backend=backend)
        with pytest.raises(TypeError, match="backend"):
            api.verify(
                unit, options=VerifyOptions(cache=None, backend=backend)
            )


def test_api_does_not_export_a_backend_registry():
    import importlib.util

    removed = (
        "SolverBackend",
        "register_backend",
        "available_backends",
        "backend_names",
    )
    for name in removed:
        assert name not in api.__all__
        assert not hasattr(api, name)
    for module in ("repro.smt.backend", "repro.smt.z3backend"):
        assert importlib.util.find_spec(module) is None


# -- the machine-readable report -----------------------------------------


def test_report_to_dict_shape(unit):
    report = api.verify(unit, options=VerifyOptions(cache=SolverCache()))
    data = report.to_dict()
    assert data["schema"] == REPORT_SCHEMA_VERSION
    assert data["clean"] is False
    assert data["methods_checked"] == report.methods_checked
    assert data["statements_checked"] == report.statements_checked
    assert data["tasks"] == {"retried": 0, "timed_out": 0, "failed": 0}
    assert len(data["warnings"]) == len(report.diagnostics.warnings)
    first = data["warnings"][0]
    assert set(first) == {
        "kind", "message", "file", "line", "column",
        "end_line", "end_column", "counterexample",
    }
    assert first["line"] > 0
    assert sum(data["warning_counts"].values()) == len(data["warnings"])
    assert data["solver_stats"]["total"]["queries"] > 0
    assert set(data["solver_stats"]) == {
        "total", "per_method", "tasks_retried", "tasks_timed_out",
        "tasks_failed", "tasks_replayed", "algebra_discharged",
        "algebra_fallbacks", "parallel_decision",
    }


def test_report_to_json_roundtrips(unit):
    report = api.verify(unit, options=VerifyOptions(cache=SolverCache()))
    assert json.loads(report.to_json()) == report.to_dict()
    assert json.loads(report.to_json(indent=2)) == report.to_dict()


def test_warning_order_matches_text_output(unit):
    report = api.verify(unit, options=VerifyOptions(cache=SolverCache()))
    texts = [str(w) for w in report.diagnostics.warnings]
    dicts = report.to_dict()["warnings"]
    assert [d["message"] for d in dicts] == [
        w.message for w in report.diagnostics.warnings
    ]
    assert len(texts) == len(dicts)
