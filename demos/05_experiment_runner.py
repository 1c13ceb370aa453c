"""Drive a full experiment from a config, the same path the CLI uses.

Equivalent shell commands:
    torusflow run --scenario stability-smoke --out runs/demo
    torusflow verify --out runs/demo
    torusflow calibrate --N 16

The last prints the grid's constants: c1, c2, the L6/H1 embedding bound c3,
the interpolation bound c_interp, and c4, c5 derived from them.
"""

import json
import tempfile

from torusflow import experiments as exp

config = {
    "scenario": "demo",
    "nu": 1.0,
    "dt": 2e-3,
    "T": 1.0,
    "windows": 2,
    "base": {"initial": {"kind": "taylor-green", "amplitude": 0.005}},
    "perturbation": {"initial": {"kind": "random", "seed": 7}},
}

spec = exp.parse_config(json.dumps(config))
print("resolved spec (defaults filled in):")
print(json.dumps(spec, indent=2, sort_keys=True)[:400], "...\n")

with tempfile.TemporaryDirectory() as out:
    artifacts = exp.run_experiment(spec, out)
    text, code = exp.emit_report(artifacts)
    print(text)
    print(f"exit code {code}   wall {artifacts.wall_seconds:.1f}s")
    print("artifacts:", sorted(artifacts.paths))
