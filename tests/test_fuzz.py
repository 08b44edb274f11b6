"""Seeded fuzz test: a malformed input raises MvcnnError and nothing else.

A valid WAV file, manifest, scenario, MVC1 model file and SPM1 frame are
each mutated many times: bytes are flipped, zeroed, truncated or
duplicated, and lines are duplicated, dropped or lose a field. Every
mutant goes to its loader. A loader may accept a mutant or raise an
MvcnnError; any other exception is a leak and fails the test.
"""

import numpy as np

from mvcnn.audio import AudioClip, load_wav, save_wav
from mvcnn.errors import MvcnnError
from mvcnn.evaluation import load_manifest
from mvcnn.model import ModelConfig, build, load, save
from mvcnn.wasn import SpectrumMessage, decode, encode, load_scenario

SEED = 2024
MUTANTS_PER_FORMAT = 300
HEADER_BYTES = 32

SCENARIO = b"""# two nodes, one outage each way
nodes = 2
clips_per_node = 1
clip_seconds = 0.5
sample_rate = 16000
window_len = 1024
feature_len = 64
server_outage = 100..400
[node 2]
clock_skew_ms = -5
fallback_classes = 0, 1
link_outage = 50..90
"""


def _pos(rng, blob):
    # half of all byte mutations land in the first 32 bytes, where the
    # magic, version and counts of every binary format live
    head = len(blob) if rng.random() < 0.5 else min(len(blob), HEADER_BYTES)
    return int(rng.integers(0, head))


def _flip(rng, blob):
    out = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        out[_pos(rng, out)] ^= int(rng.integers(1, 256))
    return bytes(out)


def _zero_run(rng, blob):
    start = _pos(rng, blob)
    stop = min(len(blob), start + int(rng.integers(1, 9)))
    return blob[:start] + bytes(stop - start) + blob[stop:]


def _truncate(rng, blob):
    return blob[: int(rng.integers(0, len(blob)))]


def _duplicate_bytes(rng, blob):
    start = _pos(rng, blob)
    piece = blob[start : start + int(rng.integers(1, 17))]
    at = int(rng.integers(0, len(blob) + 1))
    return blob[:at] + piece + blob[at:]


def _duplicate_line(rng, blob):
    lines = blob.split(b"\n")
    i = int(rng.integers(0, len(lines)))
    return b"\n".join(lines[: i + 1] + lines[i:])


def _drop_line(rng, blob):
    lines = blob.split(b"\n")
    i = int(rng.integers(0, len(lines)))
    return b"\n".join(lines[:i] + lines[i + 1 :])


def _drop_field(rng, blob):
    # a field is a comma-separated cell or one side of "key = value"
    lines = blob.split(b"\n")
    i = int(rng.integers(0, len(lines)))
    sep = b"=" if b"=" in lines[i] else b","
    fields = lines[i].split(sep)
    del fields[int(rng.integers(0, len(fields)))]
    lines[i] = sep.join(fields)
    return b"\n".join(lines)


BYTE_OPS = (_flip, _zero_run, _truncate, _duplicate_bytes)
LINE_OPS = (_duplicate_line, _drop_line, _drop_field)


def _valid_inputs(tmp_path):
    rng = np.random.Generator(np.random.PCG64(SEED))
    wav = tmp_path / "valid.wav"
    save_wav(wav, AudioClip(rng.uniform(-0.5, 0.5, size=64), 8000))
    for name in ("frog.wav", "bird.wav"):
        save_wav(tmp_path / name, AudioClip(rng.uniform(-0.5, 0.5, size=64), 8000))
    mvc = tmp_path / "valid.mvc"
    save(build(ModelConfig(input_len=6, n_classes=2, view_widths=(2,),
                           layer_depths=(1, 2, 1))), mvc)
    frame = encode(SpectrumMessage(3, 7, 1234, rng.normal(size=5).astype(np.float32)))
    return {
        "wav": (wav.read_bytes(), load_wav, False),
        "manifest": (b"path,label\nfrog.wav,frog\nbird.wav,bird\n", load_manifest, True),
        "scenario": (SCENARIO, load_scenario, True),
        "model": (mvc.read_bytes(), load, False),
        "frame": (frame, None, False),
    }


def test_mutated_inputs_raise_only_mvcnn_errors(tmp_path):
    rng = np.random.Generator(np.random.PCG64(SEED))
    leaks = []
    for fmt, (valid, loader, textual) in _valid_inputs(tmp_path).items():
        ops = BYTE_OPS + LINE_OPS if textual else BYTE_OPS
        target = tmp_path / f"mutant.{fmt}"
        for _ in range(MUTANTS_PER_FORMAT):
            op = ops[int(rng.integers(0, len(ops)))]
            mutant = op(rng, valid)
            try:
                if loader is None:
                    decode(mutant)
                else:
                    target.write_bytes(mutant)
                    loader(target)
            except MvcnnError:
                pass
            except Exception as exc:  # any other type is a leak
                leaks.append(f"{fmt} {op.__name__}: {type(exc).__name__}: {exc}")
    assert not leaks, f"{len(leaks)} leaks, e.g.\n" + "\n".join(sorted(set(leaks))[:10])
