"""Output-correctness gate: every output's SHA-256 against its references.

An output is checked against up to three references: the digests recorded
for the default seed (``digests.json``), the digests an earlier run on the
same generated inputs left in the work directory, and the first time the
same output was produced in this run. The last two catch a traced run whose
bytes differ from an untraced one, and a remote summary that differs from
the in-process one.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

DEFAULT_SEED = 0
RECORDED = Path(__file__).with_name("digests.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Gate:
    def __init__(self, recorded: dict[str, str] | None = None,
                 earlier: dict[str, str] | None = None):
        self.recorded = recorded
        self.earlier = earlier or {}
        self.seen: dict[str, str] = {}
        self.mismatches: list[str] = []

    def check(self, key: str, data: bytes) -> bool:
        """Record one output; False (and a logged mismatch) if any reference disagrees."""
        digest = sha256(data)
        ok = all(ref.get(key, digest) == digest for ref in (self.earlier, self.seen))
        if self.recorded is not None:
            ok = ok and self.recorded.get(key) == digest
        self.seen.setdefault(key, digest)
        if not ok:
            self.mismatches.append(key)
        return ok


def inputs_key(root: Path) -> str:
    """A digest of the generated inputs under ``root``, paths made relative.

    Earlier-run digests are filed under it, so they are only ever compared
    with outputs of byte-identical inputs.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes().replace(str(root).encode(), b"<root>"))
    return h.hexdigest()[:20]


def load_recorded(group: str, seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED or not RECORDED.exists():
        return None
    return json.loads(RECORDED.read_text(encoding="utf-8")).get(group)


def load_earlier(path: Path) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def save_earlier(path: Path, digests: dict[str, str]) -> None:
    """Merge ``digests`` into the per-seed file, atomically."""
    merged = {**load_earlier(path), **digests}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(merged, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
