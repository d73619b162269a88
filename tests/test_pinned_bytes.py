"""Training and predict bytes, pinned across changes.

For every variant, ``docgraph train --protocol two_way --epochs 2 --seed 42``
runs in a fresh process at one BLAS thread on the planted corpora (40
training documents, so the deferred Adam's window syncs and end-of-epoch
syncs all run), then ``docgraph predict`` scores the dev file with the
checkpoint. The SHA-256 of each checkpoint, run log and predict output is
compared with ``DIGESTS``.

The bytes depend on the numpy build, on the SIMD loops numpy dispatches to
at run time (``np.exp`` and ``np.log`` differ between its AVX-512 and AVX2
loops) and on the OpenBLAS core picked for the CPU, so the digests hold on
the host that ``HOST`` describes, with neither ``NPY_DISABLE_CPU_FEATURES``
nor ``OPENBLAS_CORETYPE`` set; on any other host the test skips and prints
the digests it got. A change that moves bytes on purpose updates ``DIGESTS``
and says why.
"""

import ctypes
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import docgraph
from docgraph import training
from docgraph.model import VARIANTS

from conftest import planted_corpus

HOST = {
    "numpy": "2.4.6",
    "blas": {
        "name": "scipy-openblas",
        "version": "0.3.31.188.0",
        "openblas configuration": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
                                  "NO_AFFINITY Haswell MAX_THREADS=64",
    },
    "simd": ["amx_bf16", "amx_int8", "amx_tile", "avx", "avx2", "avx512_bf16",
             "avx512_bitalg", "avx512_fp16", "avx512_vbmi2", "avx512_vnni",
             "avx512_vpopcntdq", "avx512bw", "avx512cd", "avx512dq", "avx512f",
             "avx512ifma", "avx512vbmi", "avx512vl", "avx_vnni", "f16c", "fma", "sse",
             "sse2", "sse4_1", "sse4_2", "ssse3"],
    "numpy dispatch": ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"],
    "openblas core": "SkylakeX",
    "environment": {"NPY_DISABLE_CPU_FEATURES": None, "OPENBLAS_CORETYPE": None},
}

DIGESTS = {
    "cnn": {
        "checkpoint": "c55e971521df5686ca16ddf02888c83ed38780fdc92cca5a87560e2a8c5440fb",
        "runlog": "6d306887aad205bc25c6dbbcf0047a7e6035166542e57f9d5eca688c9d692bff",
        "predict": "b7f06cf7e196689d859c885406731ec7d679242d72ae3f6c521ebca0e018b861",
    },
    "lstm": {
        "checkpoint": "f3951c68fe3880caf4ab0d7bd3e9c8bbcf8e6d00d9505ab64eb64b674a5041f5",
        "runlog": "3a72dec4e3a6e908cda61f670d0daafdf352af5644ccbb3abc9291b42714278c",
        "predict": "8e2fd2926d91eb70ed67435129cf388d0ef4b55c5b332d7c6bcc418024443123",
    },
    "gcn": {
        "checkpoint": "3db6fb6acb9d7ef5181b8b96cb685c2941f67a227c1a41d76e85efd78c836189",
        "runlog": "751852ce99823a6a2600cff14618e0136beef606307e15c2dc5f1597562059c6",
        "predict": "a5c34f056b4fb907283b7e42a62cf9210e2aa82ff6ebdb8765f2b842384240b7",
    },
    "gcn_ss": {
        "checkpoint": "f85592d99008f6f74da42ede7df988fc44f9314da4c5d2f4147299bac5e817fa",
        "runlog": "436fad397eb03f049f864aa8bc767ae7cc1cd6819e14553042670587c9771e3f",
        "predict": "d8e0ee5500059c8ccf61d62a2769e13c73fb2993cee7d1925543a7792376b558",
    },
    "gcn_attn": {
        "checkpoint": "5bdc1d0654457fd8ef71af3985668ca557d6ad9e70f635a8ef1b3ebcd779ea70",
        "runlog": "bb5f775b737f84608c5b863ab422589f22cb729ae8ff8da53bc0a7479477be32",
        "predict": "4dce3214db05de8a8719fc6ec87d79a4f232913a44a3a1f016af74e15721d507",
    },
    "gcn_attn_ss": {
        "checkpoint": "db982ff610f562dd9bf00260e8fad5012de783037b8b8ff82fb6416d7c362112",
        "runlog": "3197f2819ddfac28c37a10990cbdc08cc00574beb9c7bf62ffa183b7f2fdaaac",
        "predict": "203db09c0b2bb869bcf14c9d8a5e674916d03a0481c15ec88ae3cd587b188168",
    },
    "gat": {
        "checkpoint": "d3d204b2b12a3ed468567dd7d9098a43dc354f8b5a2df326e32e135ba01e2116",
        "runlog": "2269d25750887e4a17f8f387cb2d5c61ac3f06f64e227aee026e2281d1c85f98",
        "predict": "5766498e5d2b5869bad933b3a2ef89c687197b28842600726e91cd2d5860598f",
    },
    "gat2": {
        "checkpoint": "050094c052e5d9ec54473218f406bbd31ea62e243bff3f52b3de0be83f49088f",
        "runlog": "839b96877faaa9eb6465d07ec9a901eac9426f580fab44f7d6a4b8b3522e1b0a",
        "predict": "78ee50b1a9badaf40134eec392a44ef8df99736120314030143de37c7580a1b6",
    },
}

# CPU feature flags that can change which kernel OpenBLAS or numpy runs
SIMD_FLAG = re.compile(r"(sse|ssse|avx|fma|f16c|amx|asimd|sve|neon)")


def numpy_dispatch() -> list[str]:
    """numpy's dispatch targets that are enabled at run time, after
    ``NPY_DISABLE_CPU_FEATURES`` has switched some off."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x, which the pinned host does not run
        return []
    return sorted(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def openblas_core() -> str | None:
    """The kernel core the OpenBLAS that numpy loaded picked at run time (a
    DYNAMIC_ARCH build chooses by CPU unless ``OPENBLAS_CORETYPE`` says), or
    ``None`` when the library or its ``scipy_openblas_get_corename64_`` is
    not found."""
    try:
        corename = training.openblas().scipy_openblas_get_corename64_
    except AttributeError:  # no library, or one without the symbol
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def host_fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    flags = next((line.split(":", 1)[1].split() for line in cpuinfo
                  if line.startswith(("flags", "Features"))), [])
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in HOST["blas"]},
        "simd": sorted(f for f in set(flags) if SIMD_FLAG.match(f)),
        "numpy dispatch": numpy_dispatch(),
        "openblas core": openblas_core(),
        "environment": {k: os.environ.get(k) for k in HOST["environment"]},
    }


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def corpus_records(docs):
    return [{"id": d.id, "label": d.label, "source": d.source, "text": d.text} for d in docs]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_train_and_predict_bytes_are_pinned(tmp_path):
    train_docs = [dataclasses.replace(d, id=f"train-{d.id}") for d in planted_corpus(0, 40)]
    dev_docs = planted_corpus(1, 10)
    train = write_jsonl(tmp_path / "train.jsonl", corpus_records(train_docs))
    dev = write_jsonl(tmp_path / "dev.jsonl", corpus_records(dev_docs))
    # every planted document has 3 sentences; dev doc-k gets the matrix of
    # train-doc-k, as one id must not name two documents
    rng = np.random.default_rng(0)
    matrices = []
    for d in train_docs:
        m = rng.uniform(0.1, 1.0, size=(3, 3))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        matrices.append(m.tolist())
    weights = write_jsonl(tmp_path / "weights.jsonl", [
        {"id": d.id, "n": 3, "weights": m}
        for docs in (train_docs, dev_docs) for d, m in zip(docs, matrices)])

    src = str(Path(docgraph.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def docgraph_cli(*argv):
        return subprocess.run([sys.executable, "-m", "docgraph.cli", *argv], env=env,
                              check=True, capture_output=True).stdout

    digests = {}
    for variant in VARIANTS:
        ckpt = tmp_path / f"{variant}.ckpt"
        edge = ["--edge-weights", weights] if variant.endswith("_ss") else []
        docgraph_cli("train", "--protocol", "two_way", "--train", train, "--dev", dev,
                     "--model", variant, "--epochs", "2", "--seed", "42",
                     "--out", str(ckpt), *edge)
        predicted = docgraph_cli("predict", "--ckpt", str(ckpt), "--data", dev, *edge)
        digests[variant] = {
            "checkpoint": sha256(ckpt.read_bytes()),
            "runlog": sha256(Path(f"{ckpt}.runlog.json").read_bytes()),
            "predict": sha256(predicted),
        }

    host = host_fingerprint()
    if host != HOST:
        report = json.dumps(digests, indent=1, sort_keys=True)
        print(f"digests on this host:\n{report}")
        pytest.skip(f"host {host} is not the pinned host; digests here: {report}")
    assert digests == DIGESTS
