"""Smoke test of the benchmark's calls into the package: each perfbench
workload is built at seed 1, and its first and last instances are run and
checked, with no campaign and no pool.  A rename that perfbench/ still
calls by its old name fails here rather than in every benchmark run."""

import dis
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # import without leaving a bytecode cache in perfbench/
    sys.path.insert(0, str(PERFBENCH))
    no_cache, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = no_cache
    return workloads, tracing


@pytest.mark.parametrize("name", ["trees", "connected", "oracle", "solve"])
def test_workload_instances_run_and_verify(bench, name):
    workloads, tracing = bench
    rec = tracing.Recorder(False)
    w = workloads.build(name, 1, rec)
    assert len(w.instances) >= 5
    for inst in w.instances[:3] + w.instances[-2:]:
        assert w.verify(inst, w.run(inst, rec))


def _attribute_loads(code: types.CodeType):
    """(global name, attribute) for each `name.attribute` read in code and
    in the code nested in it."""
    ins = list(dis.get_instructions(code))
    for a, b in zip(ins, ins[1:]):
        if a.opname == "LOAD_GLOBAL" and b.opname in ("LOAD_ATTR", "LOAD_METHOD"):
            yield a.argval, b.argval
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _attribute_loads(const)


def test_every_package_attribute_the_workloads_read_exists(bench):
    # covers the calls the instance runs above do not make, such as the
    # campaigns' harness.audit_* entry points
    workloads, _ = bench
    path = Path(workloads.__file__)
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    checked = 0
    for alias, attr in _attribute_loads(code):
        mod = getattr(workloads, alias, None)
        if isinstance(mod, types.ModuleType) and mod.__name__.startswith("oidrd"):
            assert hasattr(mod, attr), f"perfbench reads {mod.__name__}.{attr}"
            checked += 1
    assert checked >= 10
