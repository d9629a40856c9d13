"""Content-addressed, resumable result store for fleet sweeps.

Each job's result lives at ``<root>/<hh>/<hash>.json`` where ``hash``
is the job's config hash and ``hh`` its first two hex digits (fan-out
so huge sweeps don't pile thousands of files into one directory).  The
document records the parameter dict alongside the result, so a store
is self-describing: ``status``/``report`` never need the spec to tell
which configuration produced a file.

Writes are canonical JSON (sorted keys, fixed separators, trailing
newline) and atomic (temp file + rename), so a store populated twice
from the same simulations is byte-identical and a killed run never
leaves a half-written result for ``--resume`` to trust.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.common.render import json_text
from repro.experiments.golden import canonicalize


class ResultStore:
    """Directory of per-job result documents keyed by config hash."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def path_for(self, job_hash: str) -> Path:
        """Where the result document for ``job_hash`` lives."""
        return self.root / job_hash[:2] / f"{job_hash}.json"

    def has(self, job_hash: str) -> bool:
        """Whether a completed result exists for this configuration."""
        return self.path_for(job_hash).is_file()

    def put(self, job_hash: str, params: Dict, result: Dict) -> Path:
        """Atomically write one job's result document; returns its path."""
        doc = canonicalize({"config_hash": job_hash, "params": params,
                            "result": result})
        path = self.path_for(job_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json_text(doc), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def get(self, job_hash: str) -> Optional[Dict]:
        """Load one result document, or None when absent."""
        path = self.path_for(job_hash)
        if not path.is_file():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def delete(self, job_hash: str) -> bool:
        """Drop one result (used by tests to exercise ``--resume``)."""
        path = self.path_for(job_hash)
        if path.is_file():
            path.unlink()
            return True
        return False

    def hashes(self) -> List[str]:
        """Config hashes of every stored result, sorted."""
        if not self.root.is_dir():
            return []
        found = []
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir():
                for entry in sorted(sub.glob("*.json")):
                    found.append(entry.stem)
        return found

    def documents(self) -> Iterator[Dict]:
        """Every stored result document, in sorted-hash order."""
        for job_hash in self.hashes():
            doc = self.get(job_hash)
            if doc is not None:
                yield doc

    def __len__(self) -> int:
        return len(self.hashes())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r}, results={len(self)})"
