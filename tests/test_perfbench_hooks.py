"""The repository benchmark's traced run can still hook its layers.

``perfbench/layers.py`` wraps public entry points through each class's
own ``__dict__`` (``KeyDbServer.run``, ``DesKeyDbServer.run`` /
``run_open_loop``, ``KeyValueStore.plan_get`` / ``plan_set``, ...).  A
renamed function or a method moved onto a base class breaks that only
when the traced benchmark runs; installing the hooks here fails the
test suite instead.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_layer_hooks_install():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "perfbench")]
        ),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install(layers.Tracer())"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
