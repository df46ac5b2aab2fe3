import json
import os
import subprocess
import sys
from pathlib import Path

import eopack

# Import the package, run a small suite and one CLI request, and report every
# top-level module that this loaded and that is neither eopack nor part of the
# standard library.  Modules that were loaded before the import (site hooks)
# are not counted, and neither are aliases of ``__main__`` (multiprocessing
# adds ``__mp_main__``), which name the running script, not an import.  It
# also reports the process-pool modules that the import alone loaded: only
# ``run_suite`` needs them, and importing them costs every start about 10 ms.
_SCRIPT = """
import json, sys
before = set(sys.modules)
import eopack, eopack.cli
imported = set(sys.modules) - before
pool = [m for m in ("concurrent.futures", "multiprocessing") if m in imported]
from eopack import cli, harness
harness.run_suite(max_n=2)
cli.main(["compute", "--invariant", "nu-i", "--g6", "Bw"])
main = sys.modules["__main__"]
loaded = [name for name in set(sys.modules) - before if sys.modules[name] is not main]
added = {name.partition(".")[0] for name in loaded}
print(json.dumps(pool))
print(json.dumps(sorted(m for m in added if m != "eopack" and m not in sys.stdlib_module_names)))
"""


def test_runtime_imports_only_the_standard_library():
    src = str(Path(eopack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *printed, pool, last = proc.stdout.splitlines()
    assert printed == ["1"]  # nu_I of the path on three vertices
    assert json.loads(pool) == []
    assert json.loads(last) == []
