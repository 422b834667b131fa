"""The names the benchmark in perfbench/ relies on.

perfbench traces a fixed list of public functions, labels each span by
the function's defining module, and fails a run whose workload expects
a label it never sees.  These checks catch a renamed, moved or deleted
function here, without running the benchmark, and two ops of each
workload catch a changed signature of a function the workloads call.
"""

import sys
from pathlib import Path

import pytest

import chipchain

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_perfbench():
    """Import tracing and workloads without writing into perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


tracing, workloads = _import_perfbench()


def test_traced_names_are_public_functions():
    for name in tracing._TRACED:
        assert callable(getattr(chipchain, name, None)), name


def test_expected_labels_are_traced():
    labels = {tracing.label_of(getattr(chipchain, name))
              for name in tracing._TRACED}
    for workload in workloads.WORKLOADS.values():
        missing = set(workload.expected) - labels
        assert not missing, (workload.name, missing)


def test_active_kernel_is_a_string():
    assert isinstance(chipchain.active_kernel(), str)


def test_fig10_trace_sees_every_expected_label():
    """A fig10 run under perfbench's tracer calls each label fig10 expects.

    perfbench builds a workload, its parse included, before it installs
    the tracer, so only the run is traced here: a label the parse calls
    and the run does not would fail perfbench's --trace 1 replay."""
    config = chipchain.bundled_scenario("fig10-coexistence")
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        chipchain.run_scenario(config, seed=0)
    finally:
        tracer.uninstall()
    calls = {label: entry["calls"] for label, entry in tracer.summary().items()}
    missing = [label for label in workloads.Fig10Sweep.expected
               if not calls.get(label)]
    assert not missing, missing


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_two_ops(name):
    """Each workload's set-up, prepare, op and check run on the package as
    it is, so a changed signature the benchmark calls fails here."""
    workload = workloads.WORKLOADS[name](1)
    for i in range(2):
        args = workload.prepare(i)
        digest = workload.check(i, args, workload.op(args))
        assert isinstance(digest, bytes) and len(digest) == 32
