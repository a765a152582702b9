"""Run manifests: every artifact records the hash of the configuration,
seeds, and input digests that produced it.

The embedded hash covers only the deterministic fields, so rerunning an
identical pipeline yields byte-identical artifacts; wall-clock timings live
in the sidecar manifest file, outside the hash.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from . import __version__


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_header(fh, path, magic: bytes, noun: str, error: type[Exception],
                expect_vocab_hash: str | None = None) -> dict:
    """The JSON meta line of a binary artifact (`noun`) opening with `magic`,
    read from the start of `fh`, which is left at the first record. Given a
    vocabulary hash, the file must record it. Faults raise `error`."""
    if fh.read(len(magic)) != magic:
        raise error(f"{path}: not a storyrank {noun}")
    at = f"{path}: the metadata line at byte {len(magic)}"
    try:
        meta = json.loads(fh.readline().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise error(f"{at} is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise error(f"{at} is not a JSON object")
    if expect_vocab_hash and meta.get("vocab_hash") != expect_vocab_hash:
        raise error(f"{path}: {noun} was made with vocabulary "
                    f"{meta.get('vocab_hash') or '(none)'}, "
                    f"expected {expect_vocab_hash}")
    return meta


def stable_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: dict[str, str] = field(default_factory=dict)  # name -> sha256
    tool_version: str = __version__
    timings_s: dict[str, float] = field(default_factory=dict)

    @classmethod
    def build(cls, command: str, config: dict,
              input_paths: dict[str, str] | None = None) -> "RunManifest":
        inputs = {name: file_digest(path)
                  for name, path in sorted((input_paths or {}).items())}
        return cls(command=command, config=config, inputs=inputs)

    @property
    def hash(self) -> str:
        return stable_hash({
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "tool_version": self.tool_version,
        })

    def record(self, stage: str, seconds: float) -> None:
        self.timings_s[stage] = round(seconds, 3)

    def write(self, path) -> None:
        payload = {
            "manifest_hash": self.hash,
            "command": self.command,
            "tool_version": self.tool_version,
            "config": self.config,
            "inputs": self.inputs,
            "timings_s": self.timings_s,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
