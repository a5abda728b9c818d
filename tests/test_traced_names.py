"""Every function the benchmark tracer wraps still exists under the name it
wraps: a dropped import (``mixlearn.scheffe.pmf_or_pdf``, say) would stop
the benchmark, so it fails here first."""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    # executed from its source, so no bytecode is written under perfbench/
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer.__dict__)
    names = [name for table in (tracer.SPANS, tracer.COUNTERS)
             for names in table.values() for name in names]
    assert len(names) > 50
    for name in names:
        module, attr = tracer.resolve(name)
        assert callable(getattr(module, attr)), name
