"""A server loads only what it serves.

``import repro.serve`` (and the storage and core modules a served index
uses) must not pull in scipy, which only §9's d >= 3 hull layering
needs, nor any package that sits above ``core`` in the layering DAG:
§9's d-way index and the interval queries live in ``repro.baselines``,
preference sampling in ``repro.datagen`` and the K advisor and the
index verifier in ``repro.bench``.  Each of these cost a freshly
spawned server start-up time and resident memory while serving nothing
(docs/PERFORMANCE.md, "Cold start").
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Module prefixes a serving process must not load.
NOT_ON_THE_SERVING_PATH = (
    "scipy",
    "repro.relalg",
    "repro.sql",
    "repro.experiments",
    "repro.analysis",
    "repro.bench",
    "repro.baselines",
    "repro.datagen",
)

#: At most this many ``repro.*`` modules load: a ratchet, lowered when
#: a module leaves the serving path.
MAX_REPRO_MODULES = 39


def test_serving_import_set_excludes_unserved_packages():
    # A fresh interpreter: this process has long since imported
    # everything.  It imports the same ``repro`` tree as this process.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    script = (
        "import repro.serve, repro.storage.durable, repro.core.index\n"
        "import json, sys\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    ).stdout
    loaded = json.loads(out.splitlines()[-1])
    offenders = [
        name
        for name in loaded
        for prefix in NOT_ON_THE_SERVING_PATH
        if name == prefix or name.startswith(prefix + ".")
    ]
    assert offenders == []
    repro_modules = [n for n in loaded if n == "repro" or n.startswith("repro.")]
    assert len(repro_modules) <= MAX_REPRO_MODULES, repro_modules
