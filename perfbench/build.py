"""Build step: make sure the numeric workloads' model is in ``.model_cache``.

A fresh checkout has no trained weights (``.model_cache`` is ignored by
git), so the first run trains ``llama-3.1-8b-sim`` once (a couple of
minutes on two cores); later runs find it cached. ``run.py`` calls this in
a child process so training never shows in the measured process's
set-up time or peak memory.

    python3 perfbench/build.py
"""

import program  # noqa: F401  (puts the checkout's src on the path)

from repro.models.zoo import load_model
from workloads import MODEL

if __name__ == "__main__":
    load_model(MODEL)
