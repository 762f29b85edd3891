"""Golden outputs of ``scripts/reproduce_experiments.py``.

Runs the reproduce script's CLI sequence into a temporary directory and
pins the sha256 of every CSV and JSON it writes, and of
``design_report.txt`` with its ``wall_s`` column (the only output that
depends on the clock) stripped. A refactor of the library must leave
every hash unchanged.
"""

import hashlib
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "reproduce_experiments.py")

# a wall time in the design report's LP table: two spaces and d.dddd at
# the end of a row ("mirrored" rows carry no time and are kept)
WALL_TIME = re.compile(r"  \d+\.\d{4}$", re.MULTILINE)

GOLDEN = {
    "attack.json":
        "836ee90e42356abde7219959b1f2d447e3f21a0ce3c1a6b9571d13ee4b3597e2",
    "design_report.txt":
        "a5132c82cd10d87b84518e464ee525328bd10e3639bc51492b058e62f724ef70",
    "filter.json":
        "d749cadb21e7463fbd4a0b6bd2b124fd4f66c5a5e784a847ea5f79f689880df8",
    "pole_sweep/trace_p0.1.csv":
        "e25256aa8c9c736400177bd6cb98c571d8c6a367e1134e525918a5aca6c28cef",
    "pole_sweep/trace_p0.2.csv":
        "3efe592847e5b195cfb27289a5306dbb013464d134ccf59729aa1ac7eae8cecf",
    "pole_sweep/trace_p0.4.csv":
        "a0fbb260a0fae48917f486fa8102f7a2cd4432e8b1c7d58f795851075422ddbb",
    "pole_sweep/trace_p0.6.csv":
        "2bca34c07acd95e534e5335a13df739b0e0e4fa43e8d238f615d3c5c52634718",
    "pole_sweep/trace_p0.98.csv":
        "6055d1d362b41e2bc3ffa2bb5664a083481212c0b087ec9d0b95c07bcb27b8f3",
    "scenario1_basic/panel_dynamic_residual.csv":
        "01d4688ac02a1e3bc01c591911b72c6ed1000a20babb5ae280316d6d96b8750f",
    "scenario1_basic/panel_load_attack.csv":
        "d6c623128d50cf710c05e6ba8800b4ccc5afc65a784ab821a89ecedd5a1a2b70",
    "scenario1_basic/panel_static_residual.csv":
        "b47ddec9ad7b2fa64c7ddbaf773590cb515595efc9e127f809f521b4e8cbe6dd",
    "scenario1_basic/trace.csv":
        "72b0b4365dfc7b7eae8c232be43118503801f6dca8b10338250b166e7ed7257a",
    "scenario1_basic/trace_meta.json":
        "a87a5dbb7c22aeb8a41b097f447aba6f478c7b16ee5cdcbfe5e39f3151c9692a",
    "scenario2_stealthy/panel_dynamic_residual.csv":
        "a63e09301cc476f4337643caadaf8309ecc3c5e3fb6e4b772a99aa216c30efc0",
    "scenario2_stealthy/panel_load_attack.csv":
        "9d351f37fcf090213e7b7d1f554e92d952e0b2b30ba889b4f29739baa3962b9b",
    "scenario2_stealthy/panel_static_residual.csv":
        "6d946cd9587379720e05d809e6e802f253b7b22625c37269d623e0c012408ff8",
    "scenario2_stealthy/trace.csv":
        "a6c6514d51ac7dd7791571c7d1089d4c667f7fa3af4e45439592addf8b6833d3",
    "scenario2_stealthy/trace_meta.json":
        "7111f7f99b92c4841bdf867e715f944c8d87b76901dd0b74463b4a7d5abfd2a2",
}


def output_hashes(out_dir) -> dict[str, str]:
    hashes = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            with open(path, "rb") as handle:
                data = handle.read()
            if rel == "design_report.txt":
                data = WALL_TIME.sub("", data.decode()).encode()
            hashes[rel] = hashlib.sha256(data).hexdigest()
    return hashes


def test_reproduce_outputs_match_golden_hashes(tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # the outputs do not depend on the BLAS thread count; one thread is
    # only faster for these small matrices
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("AGCDIAG_OUTDIR", None)
    subprocess.run([sys.executable, SCRIPT, "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=300)
    assert output_hashes(tmp_path) == GOLDEN
