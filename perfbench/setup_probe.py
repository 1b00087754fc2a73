"""Set-up of one benchmark process: import, config and calibration load, warm-up.

Run as `python3 perfbench/setup_probe.py {cli|design} ROOT`, it prints
`ready` once set up; the benchmark times a fresh interpreter from spawn to
that line. `cli` stops after importing hcmkit.cli, which is what every CLI
invocation pays; `design` also loads the pneumatic config and the shipped
calibration and makes the first `analyze` call, which loads scipy's LAPACK
wrappers.
"""

from __future__ import annotations

import os
import sys


def ready(kind: str, root: str):
    """Set up this interpreter; returns the loaded calibration for `design`."""
    src = os.path.join(root, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import hcmkit.cli  # noqa: F401

    if kind == "cli":
        return None
    from hcmkit import config, postbuckle

    cfg = config.load_config(os.path.join(root, "configs", "pneumatic.json"))
    calib = postbuckle.load_calibration()
    postbuckle.analyze(cfg.geom, cfg.mat, calib, n_grid=cfg.options.n_grid,
                       corrected_torsion=cfg.options.corrected_torsion)
    return calib


if __name__ == "__main__":
    ready(sys.argv[1], sys.argv[2])
    print("ready", flush=True)
